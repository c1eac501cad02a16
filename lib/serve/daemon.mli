(** The [powerfits serve] daemon: a Unix-domain-socket service wrapping
    {!Service} with bounded admission and a crash-safe {!Store}.

    One request/response exchange per connection.  [status] and
    [shutdown] answer on the accept loop; compute requests go through a
    bounded {!Pf_util.Pool.Service} whose refusal-when-full becomes a
    structured [overloaded] reply — backpressure, not unbounded queueing.
    Identical concurrent requests coalesce ({!Inflight}): the second
    waiter blocks on the first computation and shares its response; the
    [status] report and shutdown summary count coalesced requests.
    Any single connection's failure (unreadable frame, malformed request,
    simulation error, worker exception) is confined to that connection.

    Graceful shutdown — a [shutdown] request, or [max_requests] for
    self-stopping test daemons — drains every admitted request, closes
    and fsyncs the store, and removes the socket file.

    A client that hangs up before reading its reply makes the reply's
    write fail.  The daemon swallows the [EPIPE], but the write also
    raises SIGPIPE, whose default action ends the process; an embedding
    process must ignore SIGPIPE before {!run}, as [powerfits serve]
    does. *)

type config = {
  socket_path : string;
  store_dir : string option;  (** [None]: no cache, compute everything *)
  jobs : int;  (** worker domains *)
  queue_capacity : int;  (** admission bound *)
  budget_s : float option;
      (** default per-request wall-clock budget
          ({!Service.default_budget_s} when [None]) *)
  default_max_steps : int option;
  fsync : bool;  (** store durability; tests trade it for speed *)
  crash : (Pf_util.Atomic_file.crash_point -> bool) option;
      (** store-write crash injection hook (the CLI's [--crash-at]) *)
  max_requests : int option;
      (** stop after accepting this many connections *)
}

val default_config : config
(** [/tmp/powerfits-serve.sock], no store, 2 jobs, capacity 64, fsync
    on. *)

val run : ?log:(string -> unit) -> config -> unit
(** Open the store (recovery scan first), bind the socket (replacing a
    stale socket file), and serve until shutdown; blocks the calling
    domain for the daemon's whole life.  [log] (default stderr) receives
    startup/recovery/quarantine/shutdown lines — the CI smoke stage
    greps them. *)

(** {2 Decode memo}

    The accept loop decodes each request frame through a memo keyed by
    the frame's exact bytes.  A repeated compute frame gets the decoded
    request it had the first time, with the cache key a worker computed
    for it, so it is neither parsed nor keyed again.  The memo only
    replaces parsing and keying: the store, [no_cache], coalescing and
    every reply byte behave as without it. *)
module Memo : sig
  type t

  val budget : int
  (** 16 MB: the frame bytes the memo holds.  An insert past it clears
      the table; a larger frame is never stored. *)

  val create : unit -> t

  val decode : t -> string -> (Service.keyed, Pf_util.Sim_error.t) result
  (** The request a frame carries: parsed and stored on a miss, taken
      from the table on a hit.  A frame that does not parse gets the
      structured error it gets without the memo, and a [status] or
      [shutdown] frame, or a request whose key raised, is parsed on
      every arrival; none of them is stored.  Call it from one domain
      only. *)

  type stats = {
    hits : int;  (** compute frames taken from the table *)
    misses : int;  (** compute frames parsed *)
    entries : int;
    bytes : int;  (** frame bytes held, at most {!budget} *)
  }

  val stats : t -> stats
end
