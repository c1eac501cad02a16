(** The paper's experimental setup (§5): each benchmark is compiled to the
    ARM-like ISA, profiled, FITS-synthesized and translated, then simulated
    on four processor configurations that differ only in ISA and I-cache
    size — ARM16, ARM8, FITS16, FITS8 (16 KB / 8 KB, 32-byte blocks,
    32-way, SA-1100-like dual-issue core at a fixed clock).

    Every run cross-checks program output across all configurations: a
    result is only reported if the ARM and FITS executions printed exactly
    the same thing. *)

type per_config = {
  instructions : int;     (** source (ARM) instructions retired *)
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  cache_misses : int;
  miss_rate_pm : float;   (** misses per million accesses (Figure 13) *)
  dcache_miss_rate_pm : float;
      (** the fixed 8 KB data cache (constant across configurations) *)
  power : Pf_power.Account.report;
}

type bench_result = {
  name : string;
  category : string;
  arm16 : per_config;
  arm8 : per_config;
  fits16 : per_config;
  fits8 : per_config;
  static_map_pct : float;        (** Figure 3 *)
  dyn_map_pct : float;           (** Figure 4 *)
  expansion_hist : (int * int) list;
  code_arm : int;
  code_thumb : int;
  code_fits : int;
  datapath_off : float;          (** Figure 12's decoder-deactivation term *)
  ais_ops : int;
  dict_entries : int;
  outputs_consistent : bool;
}

val cache_16k : Pf_cache.Icache.config
val cache_8k : Pf_cache.Icache.config
(** Aliases of {!Pf_dse.Space.cache_16k} / {!Pf_dse.Space.cache_8k}: the
    paper's configurations are named points of the exploration grid. *)

val of_arm : Pf_cpu.Arm_run.result -> per_config
val of_fits : Pf_fits.Run.result -> per_config
(** Project a runner result onto the shared per-configuration record
    (used by the multi-program harness, which assembles its own rows). *)

val run_benchmark :
  ?scale:int ->
  ?classify:bool ->
  ?engine:Pf_cpu.Arm_run.engine ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  Pf_mibench.Registry.benchmark ->
  bench_result
(** Full pipeline for one benchmark (default scale 1): compile, then
    simulate the four configurations as two recorded executions (ARM16,
    FITS16) plus two trace replays (ARM8, FITS8) — cache geometry cannot
    change architectural behaviour, so the replayed statistics are
    bit-identical to direct simulation.  The ARM16 recording doubles as
    the profiling run: synthesis consumes {!Pf_cpu.Trace.exec_counts} of
    its trace, which is bit-identical to a dedicated counting execution.
    [engine] (default [Compiled]) selects the execution engine for both
    recording runs; every engine retires the identical architectural
    stream (engine differential tests), so results do not depend on
    it.  [max_steps] is a per-run step watchdog and [deadline] a
    wall-clock one, polled inside the execute loops and at phase
    boundaries; exhaustion of either raises a [Watchdog_timeout]
    {!Pf_util.Sim_error.Error}. *)

(** {2 Crash-proof parallel sweep}

    One corrupted or runaway benchmark must not take down the other 20:
    {!run_all} isolates every benchmark behind {!Pf_util.Sim_error.protect}
    and a wall-clock/step watchdog, records per-benchmark outcomes, and
    retries a watchdog trip once at reduced scale before giving up on that
    row.  Rows run on a {!Pf_util.Pool} of worker domains (the watchdog is
    a monotonic deadline precisely so it works off the main domain); row
    order, and everything else a sweep reports, is independent of [jobs].
    Figures are then drawn from whatever survived. *)

type sweep_row = {
  bench : string;
  outcome : (bench_result, Pf_util.Sim_error.t) result;
  retried : bool;   (** a watchdog trip triggered the reduced-scale retry *)
  elapsed_s : float;
      (** wall-clock spent on this row, retry included (bench trajectory) *)
}

type sweep = {
  rows : sweep_row list;
  completed : int;
  total : int;
  jobs : int;       (** worker domains the sweep actually used *)
}

val default_wall_clock_s : float
(** Per-benchmark wall-clock budget of {!run_all} (600 s). *)

val run_isolated :
  ?scale:int ->
  ?max_steps:int ->
  ?wall_clock_s:float ->
  ?classify:bool ->
  ?engine:Pf_cpu.Arm_run.engine ->
  Pf_mibench.Registry.benchmark ->
  sweep_row
(** One benchmark under full isolation: any simulation failure — including
    stack overflow, out-of-memory and the watchdogs — comes back as
    [Error], never as an exception. *)

val run_all :
  ?scale:int ->
  ?max_steps:int ->
  ?wall_clock_s:float ->
  ?classify:bool ->
  ?engine:Pf_cpu.Arm_run.engine ->
  ?benchmarks:Pf_mibench.Registry.benchmark list ->
  ?jobs:int ->
  unit ->
  sweep
(** All 21 benchmarks (Figures 3-5 use these), each isolated.
    [benchmarks] narrows the sweep (tests use this to force failures
    without paying for the full suite).  [jobs] (default
    {!Pf_util.Pool.default_jobs}) sets the worker-domain count; [jobs:1]
    is the sequential sweep, and results are identical for every
    value. *)

val completed_results : sweep -> bench_result list
(** The surviving rows, in sweep order. *)

val banner : sweep -> string
(** ["N of M benchmarks completed (jobs=K)"], plus one line per failed or
    retried row. *)

val power_rows : bench_result list -> bench_result list
(** Restrict to the 19-benchmark power suite, reporting each row under
    its {!Pf_mibench.Registry.benchmark.result_name}. *)
