(** Execute a translated FITS program on the simulated SA-1100-class core:
    the FITS16/FITS8 configurations of the paper's evaluation.

    The programmable decoder is modeled by the per-instruction micro-
    operations produced at translation time; architectural state and
    semantics are shared with the ARM runner ({!Pf_arm.Exec}), and the
    timing, I-cache and power models are the same {!Pf_cpu.Pipeline} /
    {!Pf_cache.Icache} / {!Pf_power.Account} instances the ARM runner
    uses.  The only differences are the ones the paper studies: 16-bit
    instructions (two per 32-bit fetch) and the synthesized encodings on
    the fetch path. *)

type result = {
  fits_instructions : int;    (** 16-bit instructions retired *)
  arm_instructions : int;     (** source instructions they implement *)
  dyn_one_to_one_pct : float; (** Figure 4: dynamic 1-to-1 mapping rate *)
  cycles : int;
  ipc : float;                (** source (ARM) instructions per cycle *)
  fetch_accesses : int;
  output : string;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
      (** the fixed 8 KB data cache (constant across configurations) *)
  power : Pf_power.Account.report;
}

type engine = Pf_cpu.Arm_run.engine = Reference | Compiled
(** Interpreter choice, shared with the ARM runner: [Compiled] (default)
    builds a {!stepper} and runs it through the block driver
    {!Pf_cpu.Cexec.run} — or, when [on_step] is supplied, through
    {!Pf_cpu.Step.step} one instruction at a time, since the hook
    observes every step; [Reference] dispatches {!Mapping.micro} through
    {!Pf_arm.Exec.execute} each step, sharing no code with
    {!Pf_cpu.Step}.  Bit-identical results across both. *)

val stepper :
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pf_cpu.Pipeline.config ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Pf_cpu.Trace.t ->
  Translate.t ->
  Pf_cpu.Step.t
(** The one place a FITS {!Pf_cpu.Step.t} is built: the translated
    16-bit stream predecoded into one micro-op per slot, with the
    first-of-group and singleton-group flags that drive the source
    instruction counts.  {!run} and the multicore FITS cores
    ({!Pf_mc.Machine.fits_core}) both start here.  Arguments are
    {!Pf_cpu.Step.create}'s. *)

val run :
  ?engine:engine ->
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pf_cpu.Pipeline.config ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?on_step:(Pf_arm.Exec.t -> steps:int -> unit) ->
  ?trace:Pf_cpu.Trace.t ->
  Translate.t ->
  result
(** [cache_cfg] (default 16 KB) picks the I-cache and its power
    coefficients ({!Pf_power.Account.create}).  [pipeline_cfg] (default
    {!Pf_cpu.Pipeline.sa1100}) exists for the fetch-buffer ablation.
    [cache] supplies a pre-built I-cache instance (the fault injector
    uses this to schedule tag flips); its geometry must match
    [cache_cfg].  [on_step] is called after every retired 16-bit
    instruction with the architectural state — the register-file
    injection hook; with it the compiled engine runs one
    {!Pf_cpu.Step.step} at a time instead of a block at a time.  Both
    [cache] and [on_step] default to off and cost nothing when unused.
    [deadline] is the wall-clock watchdog, polled in the execute loop
    every [Pf_arm.Exec.deadline_mask + 1] steps.  [trace] (created with
    [isize:2]) records the retired stream for {!replay}. *)

val replay :
  cache_cfg:Pf_cache.Icache.config ->
  like:result ->
  Translate.t ->
  Pf_cpu.Trace.t ->
  result
(** Replay a recorded FITS stream through a fresh cache/pipeline/power
    stack of another geometry; bit-identical to a direct {!run} with the
    same [cache_cfg].  Execution-derived fields (instruction counts,
    mapping rate, program output) are carried over from [like], the
    result of the recording run. *)
