(** Run an ARM image through the full stack: architectural interpreter +
    I-cache + pipeline timing + power accounting.  This produces the ARM16
    and ARM8 data points of the paper's four simulated configurations. *)

type result = {
  instructions : int;
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  output : string;              (** program's printed output *)
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
      (** the fixed 8 KB data cache (constant across configurations) *)
  power : Pf_power.Account.report;
}

val dcache_cfg : Pf_cache.Icache.config
(** The fixed SA-1100-like 8 KB data cache used by both runners. *)

(** Which interpreter drives the run.  [Compiled] (the default) builds a
    {!Step.t} over {!Pf_arm.Pexec} micro-ops and hands it to the block
    driver {!Cexec.run}, which dispatches per basic block and steps one
    instruction at a time through {!Step.step} wherever a cutoff, fault
    or fallback demands exactness.  [Reference] walks {!Pf_arm.Exec.run}
    re-deriving everything per dynamic step, sharing no code with
    [Step]: it is the differential-testing oracle.  Results — cycles,
    toggles, every power float, recorded traces, outputs, fault texts —
    are bit-identical across both. *)
type engine = Reference | Compiled

val run :
  ?engine:engine ->
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Trace.t ->
  Pf_arm.Image.t ->
  result
(** Default cache: 16 KB, 32-byte blocks, 32-way (the SA-1100 I-cache),
    on the {!Pipeline.sa1100} timing model; [cache_cfg] also picks the
    power coefficients ({!Pf_power.Account.create}).  [cache]
    substitutes a pre-built I-cache instance (so the caller can read its
    toggle and refill counters afterwards); otherwise a fresh one is
    built from [cache_cfg].
    [deadline] is the wall-clock watchdog, polled inside the execute loop.
    [trace] (created with [isize:4]) additionally records every retired
    instruction so other cache geometries can be {!replay}ed without
    re-executing. *)

val replay :
  cache_cfg:Pf_cache.Icache.config ->
  output:string ->
  Pf_arm.Image.t ->
  Trace.t ->
  result
(** Re-run a recorded trace through a fresh cache/pipeline/power stack of
    a (typically different) geometry.  Produces bit-identical statistics
    to a direct {!run} of the same image with [cache_cfg]: the pipeline
    sees the same [issue] sequence either way.  [output] is the program
    output captured by the recording run (replay does not execute). *)

(** Per-instruction metadata used by the timing model; exposed for the FITS
    runner which shares the pipeline. *)
module Meta : sig
  val classify : Pf_arm.Insn.t -> Pipeline.insn_class
  val read_mask : Pf_arm.Insn.t -> int
  val write_mask : Pf_arm.Insn.t -> int
end
