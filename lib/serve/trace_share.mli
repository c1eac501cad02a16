(** Memoized {!Pf_dse.Explore.recording}s and the results derived from
    them, shared across the service's requests.

    The service keeps each program's halves here: an ARM half, keyed by
    program content, unroll and effective max_steps, and a FITS half per
    (dictionary budget, weighting), built on the ARM half.  None is a
    function of cache geometry, so a client walking a geometry grid needs
    a program recorded once, not once per point, and evaluates of both
    ISAs share one ARM execution.

    Every value here is computed once.  The first caller that needs a
    half records it; a caller that asks for the same key while that
    recording runs waits for it and shares it, so racing workers never
    both record.  A recording that raises (its caller's deadline, a
    simulation error) removes its pending slot and wakes its waiters,
    who then record for themselves rather than inherit the error.  The
    same holds for what a half derives: the ARM half's execution counts,
    and each half's results at a geometry (the recording run at
    {!Pf_dse.Space.recording_point}, a replay anywhere else), kept with
    the half by full geometry and evicted with it.

    The table is LRU-bounded and its bookkeeping is mutex-protected;
    every computation runs outside the lock.  Recordings and results are
    immutable, so concurrent worker domains read them freely. *)

type t

val default_capacity : int
(** 8 halves — traces are the largest objects the daemon holds. *)

val results_per_half : int
(** 16 geometries: the results one half keeps, least recently used
    first out. *)

val create : ?capacity:int -> unit -> t

type half
(** A recording half the table holds (or held: a half stays usable
    after its eviction). *)

val recording : half -> Pf_dse.Explore.recording

val arm_half :
  t -> key:string -> (unit -> Pf_dse.Explore.recording) -> half * bool
(** [arm_half t ~key record] is the ARM half under [key].  The flag is
    [true] when the table held it or another caller was recording it,
    [false] when this call ran [record].  If [record] raises, the
    exception propagates and the key is free again. *)

val fits_half :
  t ->
  key:string ->
  arm:(unit -> half) ->
  (half -> Pf_dse.Explore.recording) ->
  half * bool
(** [fits_half t ~key ~arm record] is the FITS half under [key], as
    {!arm_half}; on a miss it is [record (arm ())], and the half keeps
    [arm ()] for its ARM-side counts and results. *)

val find : t -> key:string -> half option
(** The half under [key] if the table holds it, or once its recording in
    progress completes; [None] if it is absent or that recording raised.
    Never records. *)

val counts : t -> half -> int array
(** The ARM side's per-code-word execution counts
    ({!Pf_dse.Explore.dyn_counts}), computed once per ARM half.  Equal
    to a dedicated counting run's. *)

val arm_result : t -> half -> Pf_cache.Icache.config -> Pf_cpu.Arm_run.result
(** The ARM side's result at a geometry: the recording run's own at
    {!Pf_dse.Space.recording_point}, elsewhere a replay of its trace,
    run once per geometry.  Either is what a direct run at that geometry
    reports. *)

val fits_result : t -> half -> Pf_cache.Icache.config -> Pf_fits.Run.result
(** {!arm_result} for a FITS half's FITS side. *)

type stats = {
  shared : int;  (** lookups answered by a half the table held *)
  waits : int;  (** lookups that joined a recording in progress *)
  recordings : int;  (** recordings run, ones that raised included *)
  recorded : int;  (** recordings that entered the table *)
  entries : int;  (** halves held or being recorded *)
  replays : int;  (** replays run *)
  replays_shared : int;
      (** results at a geometry answered by a replay already run or
          running *)
}

val stats : t -> stats
