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

type keyed
(** A decoded request paired with the cache key computed from it.  The
    key is computed once, on first use by any domain, and published
    through an atomic slot, so one [keyed] value can be shared by
    concurrent workers. *)

val keyed : Proto.request -> keyed
(** The request, its key not yet computed. *)

val request : keyed -> Proto.request

val key : keyed -> string
(** {!cache_key} of the request, computed on the first call.  Raises as
    {!cache_key} does, on every call. *)

val unkeyable : keyed -> bool
(** Whether computing the key has raised. *)

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
    ({!Pf_dse.Explore.recording}) through a {!Trace_share} table: its
    ARM half, keyed by program content, unroll and effective max_steps,
    and for FITS a FITS half that adds the dictionary budget and
    synthesis weighting (multiplier 1 for explore-point).  Geometry
    never enters, so requests walking a geometry grid record once and
    replay many.  With [traces] the halves and their results are shared
    across requests, each computed once; without it the request gets a
    table of its own.  An explore-point reply's [trace_shared] field
    says whether another request recorded its FITS half.  Both actions
    answer from the recording runs at {!Pf_dse.Space.recording_point}
    and from the half's replay at any other geometry — the bytes a
    direct run at that geometry gives; evaluate runs only its own ISA,
    with the power explore-point reports for the same variant
    ({!Pf_power.Account.Params.for_geometry} at every geometry).
    Synthesize reads its profile from the table's ARM half when the
    table holds it or is recording it, and otherwise runs a bare
    counting run.  Replies are bit-identical with or without sharing
    and in any request order, apart from [trace_shared]. *)

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
  keyed ->
  Proto.response
(** One computable request end to end: {!key} → verified store lookup
    (transient I/O retried with backoff) → on miss, {!compute} and
    commit.  With [inflight], the lookup-or-compute step is coalesced:
    concurrent calls with the same cache key block on the first and
    share its response verbatim (coalescing applies even under
    [no_cache] — that flag bypasses possibly-stale store entries, but an
    in-flight computation is fresh by definition).  [Status]/[Shutdown]
    get an error reply — the daemon answers those itself.  Never
    raises. *)
