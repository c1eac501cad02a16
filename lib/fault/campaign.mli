(** SEU-sensitivity campaigns: run a translated benchmark many times under
    seeded injection and classify each trial's outcome.

    Outcome taxonomy (per trial):
    - [Clean]: the random draw planted no flips; the run is bit-identical
      to the baseline.
    - [Detected]: a parity-protected structure caught the corruption (the
      machine trapped on a poisoned decoder/dictionary entry, or the
      cache invalidated a flipped line).
    - [Silent]: flips landed but the program still printed the reference
      output (dead entry, masked value, or timing-only perturbation).
    - [Divergent]: the program completed with {e wrong} output — silent
      data corruption, the worst case.
    - [Crashed]: the simulation raised a structured error (decode fault,
      memory fault, watchdog) before completing. *)

type outcome = Clean | Detected | Silent | Divergent | Crashed

type report = {
  target : Injector.target;
  rate : float;
  seed : int;
  trials : int;
  parity : bool;
  baseline : Pf_fits.Run.result;
      (** the uninjected run; with [rate = 0.] every trial reproduces it *)
  flips : int;                  (** total bit flips across all trials *)
  entries_corrupted : int;
  parity_detectable : int;      (** entries a parity bit would flag *)
  clean : int;
  detected : int;
  silent : int;
  divergent : int;
  crashed : int;
  crash_kinds : (string * int) list;
      (** [Sim_error] kind name -> count, most frequent first *)
}

val run :
  ?trials:int ->
  ?parity:bool ->
  ?max_steps:int ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?jobs:int ->
  target:Injector.target ->
  rate:float ->
  seed:int ->
  reference:string ->
  Pf_fits.Translate.t ->
  report
(** [run ~target ~rate ~seed ~reference tr] executes the baseline once,
    then [trials] (default 20) independently-seeded injection runs.  Each
    trial draws its generator with {!Pf_util.Rng.split} from a parent
    seeded with [seed], so the whole campaign replays exactly; the splits
    happen up front in trial order, which keeps the report independent of
    [jobs] (default {!Pf_util.Pool.default_jobs}) when trials run on a
    pool of worker domains.  Runaway
    corrupted programs are cut off by a step budget derived from the
    baseline (override with [max_steps]) and surface as [Crashed] with a
    watchdog kind.  [reference] is the golden program output. *)

val to_string : report -> string
(** Multi-line human-readable breakdown. *)
