(** Request evaluation: cache keys, compute paths and the degradation
    ladder.  The daemon owns sockets, queueing and counters; tests drive
    this directly.  Apart from the store handle it is given, the one
    piece of state is a process-wide memo of registry program digests:
    one slot per registry benchmark (21 today), holding the digest of
    the last scale asked for, so the memo never grows. *)

val cache_key : Proto.request -> string
(** Canonical key preimage for a computable request: exactly the fields
    that can change the result, with the program entering by content
    (MD5 of its canonical KIR encoding at the request scale) so a
    registry name and an identical inline program share one cache entry.
    A registry program's digest comes from the memo when the benchmark
    was last keyed at the same scale, so a warm named key costs a table
    lookup; an inline program is encoded and hashed on every call.
    Evaluate keys also carry a power-model version line, so no store
    entry computed under another power model answers them.
    Raises a structured [Invalid_config] {!Pf_util.Sim_error.Error} for
    [Status]/[Shutdown], which have no result to cache. *)

val default_budget_s : float
(** Per-request wall-clock budget when neither the request nor the
    daemon sets one: 60 s. *)

val compute :
  ?traces:Trace_share.t ->
  ?budget_s:float ->
  ?default_max_steps:int ->
  Proto.request ->
  (Json.t * bool, Pf_util.Sim_error.t) result
(** Run the request's compute path under {!Pf_util.Sim_error.protect}
    and a fresh {!Pf_util.Deadline} per attempt.  The bool is the
    degraded flag: a [Watchdog_timeout] on a named benchmark with
    [scale > 1] retries at half scale (repeatedly, down to 1) instead of
    failing.  Deterministic simulation errors never retry.

    Evaluate and explore-point read the program's recording
    ({!Pf_dse.Explore.recording}): its ARM half, keyed by program
    content, unroll and effective max_steps, and for FITS a FITS half
    that adds the dictionary budget and synthesis weighting (multiplier
    1 for explore-point).  Geometry never enters, so requests walking a
    geometry grid record once and replay many.  With [traces] the halves
    are shared across requests; an explore-point reply's [trace_shared]
    field says whether its recording was already in the table.  An
    evaluate runs only its own ISA and answers from the recording run at
    {!Pf_dse.Space.recording_point}, elsewhere from a replay — the bytes
    a direct run at that geometry gives, with the power explore-point
    reports for the same variant
    ({!Pf_power.Account.Params.for_geometry} at every geometry).
    Results are bit-identical with or without sharing (replays are
    read-only on the recording).  Synthesize keeps a bare counting
    run. *)

val envelope : degraded:bool -> Json.t -> string
(** Store payload for a computed result: result JSON plus the degraded
    flag, so a later cache hit replays the original reply exactly. *)

val of_envelope : string -> Json.t * bool
(** Inverse of {!envelope}; raises a structured error on malformed
    payload bytes (which {!handle} maps to an error reply). *)

val handle :
  ?store:Store.t ->
  ?inflight:Proto.response Inflight.t ->
  ?traces:Trace_share.t ->
  ?budget_s:float ->
  ?default_max_steps:int ->
  Proto.request ->
  Proto.response
(** One computable request end to end: key → verified store lookup
    (transient I/O retried with backoff) → on miss, {!compute} and
    commit.  With [inflight], the lookup-or-compute step is coalesced:
    concurrent calls with the same cache key block on the first and
    share its response verbatim (coalescing applies even under
    [no_cache] — that flag bypasses possibly-stale store entries, but an
    in-flight computation is fresh by definition).  [Status]/[Shutdown]
    get an error reply — the daemon answers those itself.  Never
    raises. *)
