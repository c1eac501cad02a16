(** Fixed-size domain worker pool for embarrassingly parallel sweeps.

    OCaml 5 gives the simulator one domain per core; the experiment sweep
    (21 independent benchmarks × 4 configurations), the fault campaigns
    (N independently seeded trials) and the design-space explorer (one
    trace-replay pipeline per benchmark) are pure fan-out, so a small
    [Domain.spawn] pool with a mutex/condition work queue covers all of
    them.  Results always come back in input order — parallelism must
    never change what a sweep reports, only how fast it reports it.

    This lives in [pf_util] so every layer, from the design-space
    explorer in [pf_dse] up to the harness, the CLI and the bench, fans
    out through the same pool. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — one worker per available
    core. *)

val validate_jobs : ?where:string -> int -> int
(** Identity on a well-formed worker count; raises a structured
    {!Sim_error.Error} of kind [Invalid_config] when [jobs < 1].  Every
    entry point that accepts a jobs count — {!map}, {!Service.create},
    the CLI's [--jobs] — validates through here so malformed values fail
    identically everywhere.  [where] defaults to ["util.pool"]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on a pool of
    [jobs] worker domains (the calling domain works too, so [jobs = 4]
    spawns three) and returns the results in input order.

    [jobs] defaults to {!default_jobs}; [jobs = 1] runs sequentially in
    the calling domain — no domain is spawned.

    Failure reporting covers {e every} failing element, not just the
    first: all elements run to completion regardless of failures (the
    sequential path matches the parallel one), the spawned domains are
    joined, and then

    - if exactly one element failed, its exception is re-raised with its
      original backtrace;
    - if several failed, one {!Sim_error.Error} is raised whose [kind]
      is that of the lowest-indexed failure (or [Internal] if it was not
      a [Sim_error]), [where] is ["util.pool"], and whose detail lists
      each failing index with its own diagnostic — deterministic even
      when elements fail in parallel.

    [f] must be safe to run concurrently with itself on different
    elements (no shared mutable state); every simulation entry point in
    this tree qualifies. *)

(** Persistent bounded-admission worker pool.

    Where {!map} is a one-shot fan-out over a closed list, [Service] is
    the long-running form the [powerfits serve] daemon schedules onto: a
    fixed set of worker domains draining a bounded queue of submitted
    tasks.  The bound is the backpressure mechanism — when the queue is
    full, {!submit} refuses instead of buffering without limit, and the
    daemon turns that refusal into a structured [overloaded] reply. *)
module Service : sig
  type 'a t

  val create :
    ?jobs:int -> ?on_error:(exn -> unit) -> capacity:int -> ('a -> unit) -> 'a t
  (** [create ~capacity worker] spawns [jobs] (default {!default_jobs})
      worker domains, each looping: pop a task, run [worker] on it.  At
      most [capacity] tasks wait in the queue (clamped to ≥ 1).  A task
      that raises never kills its domain: the exception goes to
      [on_error] (default: dropped) and the worker keeps serving. *)

  val submit : 'a t -> 'a -> bool
  (** Enqueue a task.  Returns [false] — without blocking and without
      side effects — when the queue is at capacity or the service is
      draining. *)

  val depth : 'a t -> int
  (** Tasks currently queued plus in flight. *)

  val capacity : 'a t -> int

  val workers : 'a t -> int

  val accepted : 'a t -> int
  (** Total tasks accepted by {!submit} since creation. *)

  val drain : 'a t -> unit
  (** Graceful shutdown: stop admitting, run every already-accepted task
      to completion, join all worker domains.  Idempotent in effect —
      after [drain] returns the service holds no threads and {!submit}
      always refuses. *)
end
