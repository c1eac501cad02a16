(* Client side of the protocol: connect, send one request, read the
   reply.  Connects retry with backoff — the one genuinely transient
   failure here is racing a daemon that has not finished binding its
   socket (ENOENT / ECONNREFUSED). *)

let err fmt =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Internal ~where:"serve.client" fmt

let connect ?policy path =
  Retry.with_backoff ?policy ~where:"serve.client" (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e)

let request ?policy ~socket req =
  let exchange () =
    (* encode first: the daemon reads each frame on its one accept loop,
       so a connection should not wait on its client's encoder *)
    let payload = Json.to_string (Proto.request_to_json req) in
    let fd = connect ?policy socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Proto.write_frame fd payload;
        match Proto.read_frame fd with
        | None -> err "daemon closed the connection without a reply"
        | Some bytes -> (
            match Json.of_string bytes with
            | Error msg -> err "malformed response JSON: %s" msg
            | Ok j -> Proto.response_of_json j))
  in
  (* a daemon dying mid-exchange surfaces as a raw Unix_error; callers
     (the load generator counting failures) get one exception type *)
  match Pf_util.Sim_error.protect ~where:"serve.client" exchange with
  | Ok resp -> resp
  | Error e -> raise (Pf_util.Sim_error.Error e)

let shutdown ?policy ~socket () =
  request ?policy ~socket
    { Proto.default_request with Proto.action = Proto.Shutdown }

let status ?policy ~socket () =
  request ?policy ~socket
    { Proto.default_request with Proto.action = Proto.Status }
