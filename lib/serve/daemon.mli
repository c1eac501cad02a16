(** The [powerfits serve] daemon: a Unix-domain-socket service wrapping
    {!Service} with bounded admission and a crash-safe {!Store}.

    One request/response exchange per connection.  [status], [shutdown]
    and repeated warm hits ({!Memo}) answer on the accept loop; other
    compute requests go through a bounded {!Pf_util.Pool.Service} whose
    refusal-when-full becomes a structured [overloaded] reply —
    backpressure, not unbounded queueing.
    Identical concurrent requests coalesce ({!Inflight}): the second
    waiter blocks on the first computation and shares its response; the
    [status] report and shutdown summary count coalesced requests.
    Any single connection's failure (unreadable frame, malformed request,
    simulation error, worker exception) is confined to that connection.

    Graceful shutdown — a [shutdown] request, or [max_requests] for
    self-stopping test daemons — drains every admitted request, closes
    and fsyncs the store, and removes the socket file.

    Each accepted connection gets a receive deadline of
    {!frame_deadline_s} per read ([SO_RCVTIMEO]): a client that stalls
    mid-frame gets a structured [watchdog-timeout] error reply, counted
    in [errors] and [timeouts], and the accept loop moves on.  The deadline bounds
    each read, not the whole frame, so a client that drips a byte
    within every deadline still holds the loop.

    A client that hangs up before reading its reply makes the reply's
    write fail with [EPIPE] (or [ECONNRESET]).  The daemon counts it in
    [client_gone] and carries on, but the write also raises SIGPIPE,
    whose default action ends the process; an embedding process must
    ignore SIGPIPE before {!run}, as [powerfits serve] does.

    [status] reports, and the shutdown line logs, the counters [served],
    [cache_hits] ([hits] in the line), [computed], [errors],
    [overloaded], [degraded], [timeouts], [client_gone] and
    [coalesced], the memo's {!Memo.stats}, and the shared recordings'
    {!Trace_share.stats} ([status] has them all under [trace_share];
    the line has [trace_recordings], [trace_waits], [trace_replays] and
    [trace_replays_shared]). *)

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

val frame_deadline_s : float
(** 2 s: how long one read of a request frame may wait for bytes. *)

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
    for it, so it is neither parsed nor keyed again.

    Each entry also holds a reply slot.  A worker that answers the
    entry's request with a store hit ([Ok_reply] with [cached = true])
    encodes the reply once and publishes the framed bytes there; later
    arrivals of the frame are answered from the slot on the accept
    loop, with no worker, {!Inflight}, store read or JSON.  Nothing else
    fills a slot: not a computed reply (its [cached] flag differs), not
    a [no_cache] request (it never hits), not an error, [overloaded],
    [status] or [shutdown] reply.  So against an empty store a frame's
    third arrival is the first one answered from memory.

    The bytes are exact.  The store is content-addressed, and
    {!Service.handle} rewrites a committed record only after a lookup
    missed it, so a record that stays committed keeps the bytes the slot
    was filled from: the slot sends what the worker path would send.
    The caveat is a record that leaves the store after its slot is
    filled: one quarantined (and then recomputed and rewritten) or
    removed by hand.  The slot keeps answering with the bytes the store
    held when it was filled, where the worker path would recompute;
    [trace_shared] and [degraded] can differ in a recomputed reply. *)
module Memo : sig
  type t

  val budget : int
  (** 16 MB: the frame bytes the memo holds, plus the reply bytes of
      every entry it has answered from.  An insert past it clears the
      table, replies and all; a larger frame is never stored.  A reply
      is counted the first time it answers an arrival, and when that
      would pass the budget the table is cleared (the arrival is still
      answered).  Until then a filled slot is not counted: at most one
      reply per entry. *)

  val create : unit -> t

  type slot
  (** An entry's reply slot.  A slot filled after its entry was cleared
      is never read. *)

  type reply = private { degraded : bool; framed : string }
  (** A store hit's reply: its [degraded] flag and its frame bytes. *)

  type decoded =
    | Request of Service.keyed * slot option
        (** To answer on the worker path.  The slot is the entry's, or
            [None] for a frame that may not fill one. *)
    | Reply of reply  (** To send as is. *)

  val decode : t -> string -> (decoded, Pf_util.Sim_error.t) result
  (** What a frame carries: parsed and stored on a miss, taken from the
      table on a hit, and a [Reply] once the entry's slot is full.  A
      frame that does not parse gets the structured error it gets
      without the memo, and a [status] or [shutdown] frame, or a request
      whose key raised, is parsed on every arrival; none of them is
      stored.  Call it from one domain only. *)

  val reply : slot option -> Proto.response -> string
  (** The frame bytes of the response to a [Request]; a store hit's are
      also published into the slot, if it is still empty.  Safe from
      any domain.  Raises as {!Proto.frame} does. *)

  type stats = {
    hits : int;  (** compute frames taken from the table *)
    misses : int;  (** compute frames parsed *)
    replies : int;  (** hits answered from a reply slot *)
    entries : int;
    bytes : int;  (** frame and reply bytes held, at most {!budget} *)
  }

  val stats : t -> stats
end
