(* hangup — the client that hangs up: connect to a daemon, send one
   complete [status] frame, close without reading the reply, N times.
   The daemon must survive every such client.  Each client shuts its
   receive side before it writes, so the daemon's reply fails however
   fast the daemon answers; a bare close loses that race whenever the
   daemon replies before the client gets to close.

     dune exec tools/check/hangup.exe -- --socket /tmp/pf.sock --count 20

   Exits 0 once every frame was sent, 2 on a usage error, 4 if a
   connect or write failed (a daemon that died mid-run). *)

module Proto = Pf_serve.Proto

let usage = "hangup --socket PATH [--count N]"

let () =
  let socket = ref "" and count = ref 20 in
  Arg.parse
    [
      ("--socket", Arg.Set_string socket, "PATH daemon socket (required)");
      ("--count", Arg.Set_int count, "N clients to hang up (default 20)");
    ]
    (fun a ->
      Printf.eprintf "hangup: unexpected argument %S\n%s\n" a usage;
      exit 2)
    usage;
  if !socket = "" || !count < 1 then begin
    Printf.eprintf "hangup: need --socket and a --count >= 1\n%s\n" usage;
    exit 2
  end;
  let frame =
    Pf_serve.Json.to_string
      (Proto.request_to_json
         { Proto.default_request with Proto.action = Proto.Status })
  in
  for i = 1 to !count do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_UNIX !socket);
       Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
       Proto.write_frame fd frame
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "hangup: client %d: %s\n" i (Unix.error_message e);
       exit 4);
    Unix.close fd
  done;
  Printf.printf "hangup: %d clients hung up\n" !count
