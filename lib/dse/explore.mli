(** Evaluate a {!Space} over the benchmark suite via the single-pass
    sweep kernel, with trace replay as its oracle.

    Each benchmark executes {e once per ISA variant} at the fixed
    {!Space.recording_point}, recording the retired stream; every grid
    geometry is then evaluated from that recording, by ONE {!Sweep} pass
    per trace that measures all geometries simultaneously (2 executions +
    2 passes per benchmark on the default variant axis) or, when
    [?engine] is [Replay], by a {!Pf_cpu.Trace} replay per geometry
    (2 executions + 2·N replays) — bit-identical results either way,
    never 2 + 2·N executions.  Per-point power is the one power model,
    {!Pf_power.Account.Params.for_geometry}: coefficients scale
    analytically with the read width while both paper geometries see the
    calibrated defaults unchanged — the ARM16/ARM8/FITS16/FITS8 grid
    points reproduce the harness numbers bit-for-bit (asserted by
    test/test_dse.ml).

    Benchmarks fan out on {!Pf_util.Pool} with per-benchmark fault
    isolation ({!Pf_util.Sim_error.protect} + a monotonic deadline), and
    every reported artifact — points, aggregates, frontiers, emitters —
    is a deterministic function of the space and suite, independent of
    [--jobs]. *)

type variant = Arm | Fits of int option
(** An instruction-stream variant: the source ARM stream, or a FITS
    synthesis with the given dictionary budget ([None] = uncapped). *)

val variant_label : variant -> string
(** ["arm"], ["fits"], or ["fits@<budget>"]. *)

type metrics = {
  instructions : int;   (** source (ARM) instructions for both ISAs *)
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_pm : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
  gate_count : int;     (** area proxy of this geometry *)
}

type point = {
  variant : variant;
  geometry : Pf_cache.Icache.config;
  metrics : metrics;
}

type bench_run = {
  name : string;
  category : string;
  points : point list;
      (** variant-major ({!variant} order), geometry order within —
          the canonical {!Space.geometries} order *)
  replayed_events : int;
      (** trace events evaluated: Σ trace length × geometries — counted
          identically under both engines (the sweep evaluates every
          geometry per pass), so it is the unit of explore throughput *)
  outputs_consistent : bool;
      (** every recording run printed the reference output *)
}

type row = {
  bench : string;
  outcome : (bench_run, Pf_util.Sim_error.t) result;
  elapsed_s : float;
}

type t = {
  space : Space.t;
  geometries : Pf_cache.Icache.config list;
  variants : variant list;
  rows : row list;       (** one per benchmark, in suite order *)
  completed : int;
  total : int;
  jobs : int;
  engine : Space.engine; (** how geometries were evaluated *)
}

val default_wall_clock_s : float
(** Per-benchmark wall-clock budget (600 s), as in the harness sweep. *)

val run :
  ?scale:int ->
  ?max_steps:int ->
  ?wall_clock_s:float ->
  ?jobs:int ->
  ?engine:Space.engine ->
  ?benchmarks:Pf_mibench.Registry.benchmark list ->
  Space.t ->
  t
(** Explore the space over [benchmarks] (default: the full 21-benchmark
    suite) with [jobs] worker domains.  [engine] (default [Sweep])
    selects the evaluation engine; [Replay] is the oracle
    [powerfits explore --cross-check] runs, and results are
    bit-identical either way.  A failing benchmark is isolated into its
    row ([Error]); it never aborts the sweep. *)

(** {2 Recordings}

    The one product of the timed program flow (compile, profile,
    synthesize, translate, run): consumers that need timing read a
    recording or replay it at another geometry.  Geometry never enters
    a recording, and it is immutable, so one may serve any number of
    geometries across domains (the serve daemon shares halves). *)

type arm_half = private {
  image : Pf_arm.Image.t;
  arm_trace : Pf_cpu.Trace.t;
  arm_result : Pf_cpu.Arm_run.result;
      (** the recording run, at {!Space.recording_point} *)
}

type fits_half = private {
  dict_budget : int option;  (** the {!variant} label's budget *)
  synthesis : Pf_fits.Synthesis.result;
  translation : Pf_fits.Translate.t;
  fits_trace : Pf_cpu.Trace.t;
  fits_result : Pf_fits.Run.result;
      (** the recording run, at {!Space.recording_point} *)
}

type recording = private {
  bench : Pf_mibench.Registry.benchmark;  (** what was recorded *)
  arm : arm_half;
  fits : fits_half list;  (** in the order they were added *)
}

val record_arm :
  ?scale:int ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?engine:Pf_cpu.Arm_run.engine ->
  Pf_mibench.Registry.benchmark ->
  recording
(** Step one: compile the benchmark and execute it once on ARM, recording
    its trace, under [engine] (default [Compiled]; results are
    engine-invariant).  The recording has no FITS half yet.  Unprotected;
    exceptions (including watchdogs) propagate. *)

val dyn_counts : recording -> int array
(** The ARM half's per-code-word execution counts,
    {!Pf_cpu.Trace.exec_counts} of its trace: the ARM run doubles as the
    profiling run, bit-identical to a dedicated counting execution.  Each
    call walks the trace. *)

val record_fits :
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?engine:Pf_cpu.Arm_run.engine ->
  dict_budget:int option ->
  Pf_fits.Synthesis.result ->
  recording ->
  recording
(** Step two: translate the recording's image under the synthesis's
    spec and execute the FITS binary once, recording its trace.  Returns
    the recording with this FITS half appended; the argument is
    unchanged, so its ARM half is shared, not copied.  [dict_budget] is
    only the label of the half's {!variant}. *)

val record :
  ?scale:int ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?engine:Pf_cpu.Arm_run.engine ->
  dict_budgets:int option list ->
  Pf_mibench.Registry.benchmark ->
  recording
(** {!record_arm}, then one {!record_fits} per budget, each synthesized
    from the ARM half's {!dyn_counts} with
    {!Pf_fits.Synthesis.synthesize_suite} at that budget: 1 +
    |dict_budgets| executions. *)

val sweep_recording :
  ?engine:Space.engine ->
  geometries:Pf_cache.Icache.config list ->
  recording ->
  bench_run
(** The geometry half: evaluate every grid point from the recording, by
    per-geometry replay (default) or the single-pass [Sweep] kernel —
    bit-identical either way.  Read-only on the recording. *)

val metrics_of_arm : Pf_cache.Icache.config -> Pf_cpu.Arm_run.result -> metrics
val metrics_of_fits : Pf_cache.Icache.config -> Pf_fits.Run.result -> metrics
(** Project a runner result at the given geometry onto {!metrics};
    [instructions] are source (ARM) instructions for both ISAs. *)

val arm_sweep :
  image:Pf_arm.Image.t ->
  output:string ->
  geometries:Pf_cache.Icache.config list ->
  Pf_cpu.Trace.t ->
  point list
(** Replay a recorded ARM trace through every geometry — the DSE inner
    loop, exposed so test/test_alloc.ml can assert it allocates O(grid),
    not O(trace events). *)

(** {2 Derived views} *)

val completed_runs : t -> bench_run list
val diverged : t -> bool
(** True when any completed benchmark printed non-reference output —
    the CLI maps this to exit code 3, as [run]/[figures] do. *)

val banner : t -> string
(** Completion summary plus any failed or diverged benchmarks. *)

val aggregate : t -> point list
(** Suite-aggregate point per (variant, geometry), in point order:
    counts, energies and cycles sum over completed benchmarks (in suite
    order, so float sums are order-fixed); IPC and the I-cache miss rate
    are recomputed from the sums; the (geometry-invariant) D-cache rate
    is an instruction-weighted mean. *)

val objectives : point -> Pareto.objectives
(** (total energy, IPC, miss rate, gate count) of one point. *)

val frontier_of : point list -> point Pareto.front
(** {!Pareto.frontier} over {!objectives}, preserving point order. *)

(** {2 Emitters} *)

val to_csv : t -> string
(** One row per (benchmark, variant, geometry) plus a ["suite"] aggregate
    group; the [pareto] column marks frontier membership within each
    group.  Floats print with ["%.17g"] (lossless round-trip). *)
