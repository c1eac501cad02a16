(* hangup — clients that misbehave, for smoke tests against a daemon.

   Default mode, the client that hangs up: connect, send one complete
   [status] frame, close without reading the reply, N times.  The daemon
   must survive every such client.  Each client shuts its receive side
   before it writes, so the daemon's reply fails however fast the daemon
   answers; a bare close loses that race whenever the daemon replies
   before the client gets to close.

     dune exec tools/check/hangup.exe -- --socket /tmp/pf.sock --count 20

   [--stall SECONDS], the client that stalls: connect, send 2 of a
   frame's 4 header bytes, print "hangup: stalling", then send nothing
   more and wait at most SECONDS for the daemon's reply.  The daemon
   must give up on the frame at its read deadline and answer with a
   structured watchdog-timeout error.

     dune exec tools/check/hangup.exe -- --socket /tmp/pf.sock --stall 30

   Exits 0 once every frame was sent (or, stalling, once the timeout
   reply arrived), 2 on a usage error, 4 if a connect or write failed (a
   daemon that died mid-run) or no timeout reply came in time. *)

module Proto = Pf_serve.Proto
module SE = Pf_util.Sim_error

let usage = "hangup --socket PATH [--count N | --stall SECONDS]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 4) fmt

let stall socket seconds =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX socket);
     ignore (Unix.write_substring fd "\000\000" 0 2);
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
   with Unix.Unix_error (e, _, _) ->
     fail "hangup: stall: %s" (Unix.error_message e));
  print_endline "hangup: stalling";
  let t0 = Unix.gettimeofday () in
  let reply = try Proto.read_frame fd with Unix.Unix_error _ -> None in
  Unix.close fd;
  match Option.map Pf_serve.Json.of_string reply with
  | Some (Ok j) -> (
      match Proto.response_of_json j with
      | Proto.Error_reply { SE.kind = SE.Watchdog_timeout; _ } ->
          Printf.printf
            "hangup: stalled client got watchdog-timeout after %.1f s\n"
            (Unix.gettimeofday () -. t0)
      | _ -> fail "hangup: stall: the reply was not a watchdog timeout")
  | _ -> fail "hangup: stall: no reply within %g s" seconds

let hang_up socket count =
  let frame =
    Pf_serve.Json.to_string
      (Proto.request_to_json
         { Proto.default_request with Proto.action = Proto.Status })
  in
  for i = 1 to count do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_UNIX socket);
       Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
       Proto.write_frame fd frame
     with Unix.Unix_error (e, _, _) ->
       fail "hangup: client %d: %s" i (Unix.error_message e));
    Unix.close fd
  done;
  Printf.printf "hangup: %d clients hung up\n" count

let () =
  let socket = ref "" and count = ref 20 and stall_s = ref 0. in
  Arg.parse
    [
      ("--socket", Arg.Set_string socket, "PATH daemon socket (required)");
      ("--count", Arg.Set_int count, "N clients to hang up (default 20)");
      ( "--stall",
        Arg.Set_float stall_s,
        "SECONDS stall one client mid-frame; wait this long for the reply" );
    ]
    (fun a ->
      Printf.eprintf "hangup: unexpected argument %S\n%s\n" a usage;
      exit 2)
    usage;
  if !socket = "" || !count < 1 || !stall_s < 0. then begin
    Printf.eprintf
      "hangup: need --socket, a --count >= 1 and a --stall >= 0\n%s\n" usage;
    exit 2
  end;
  if !stall_s > 0. then stall !socket !stall_s else hang_up !socket !count
