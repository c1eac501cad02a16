(** Client side of the serve protocol: one blocking request/response
    exchange per call, over a fresh connection.

    Connecting retries with {!Retry} backoff, so a client started
    concurrently with the daemon (the CI smoke stage, the load
    generator) tolerates the window before the socket is bound.  A
    request is encoded before its connection opens, so the daemon's
    accept loop, which reads each frame under a deadline
    ({!Daemon.frame_deadline_s}), never waits on a client's encoder. *)

val request :
  ?policy:Retry.policy -> socket:string -> Proto.request -> Proto.response
(** Raises a structured {!Pf_util.Sim_error.Error} — never a raw
    [Unix_error] — if the daemon never becomes reachable, dies
    mid-exchange, closes the connection without replying, or replies
    with bytes that do not parse. *)

val shutdown : ?policy:Retry.policy -> socket:string -> unit -> Proto.response
(** Ask the daemon to drain and exit. *)

val status : ?policy:Retry.policy -> socket:string -> unit -> Proto.response
