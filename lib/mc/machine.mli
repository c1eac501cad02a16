(** The shared-memory multicore machine.

    N per-core steppers ({!Pf_cpu.Step}) advance one instruction at a
    time under a deterministic {!Sched}; an optional {!Coherence} layer
    keeps the shared data window consistent.  A machine without a shared
    window runs its cores back to back instead (see {!run}), with the
    same results.  The machine is strictly single-domain: a run —
    including every per-core trace recording — is a pure function of its
    construction arguments and the scheduler seed, independent of any
    surrounding [--jobs] fan-out.

    Each core carries its own PowerFITS I-cache power account; the
    machine report sums energy components across cores (energies are
    additive), takes the max of per-core cycles, and reports the summed
    per-core peaks as an upper bound on machine peak power. *)

type shared = {
  base : int;      (** first shared byte address *)
  limit : int;     (** one past the last shared byte *)
  sync_addr : int; (** fence-marker word ([-1] for none) *)
}

type t

val create : ?shared:shared -> sched:Sched.t -> (string * Pf_cpu.Step.t) array -> t
(** One [(label, core)] per core, in core-index order; the scheduler
    must be for exactly this many cores.  With [shared], a write-through
    snooping coherence layer is built over the cores' memories and
    D-caches.  Without it, the cores must share no mutable state
    (memory, caches, power account, trace), as {!arm_core} and
    {!fits_core} build them.  Raises [Invalid_config] on zero cores or a
    core-count mismatch. *)

val ncores : t -> int
val core : t -> int -> Pf_cpu.Step.t
val label : t -> int -> string

val step : t -> bool
(** Advance one scheduler slice: pick a runnable core, execute one
    instruction, propagate its store (if any and shared).  [false] when
    no core is runnable.  This defines the interleaving semantics of
    every machine: {!run} loops it on a machine with a shared window,
    and reproduces that loop's results on one without. *)

val run : t -> unit
(** Run until quiescent.  Per-core watchdogs/deadlines bound it.

    A machine with a shared window interleaves its cores: {!step} until
    no core is runnable.  A machine without one runs each core to halt
    in index order with the plain {!Pf_cpu.Step.step} loop, and {!slices}
    grows by each core's slice count (its executed steps, the halt
    transition included).  That is exact: such a core has private
    memory, I-cache, D-cache, power account and trace, and no core reads
    anything another writes, so every per-core state, trace and report,
    and the slice total, is the same under any schedule.

    Errors: when a core raises, [run] raises the error the interleaved
    machine would reach first, leaving the {!slices} it would leave.  It
    replays the scheduler's picks over the per-core slice counts,
    executing nothing, so which core's error wins depends on the seed as
    it does under {!step}.  Core states after a raise are unspecified: a
    private run executes steps the interleaving would not reach.  A
    private run in which no core raises draws nothing from its
    scheduler. *)

val all_halted : t -> bool

val slices : t -> int
(** Scheduler slices executed so far. *)

type power = {
  switching : float;
  internal : float;
  leakage : float;
  total : float;
  peak_power : float;  (** sum of per-core peaks: an upper bound *)
}

type report = {
  cores : (string * Pf_cpu.Step.result) array;
  instructions : int;      (** summed retirements (per-core isize) *)
  src_instructions : int;  (** summed ARM-source retirements *)
  cycles : int;            (** max across cores *)
  slices : int;
  power : power;
  coherence : Coherence.stats option;
}

val report : t -> report

(** {1 Core builders} *)

val arm_core :
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Pf_cpu.Trace.t ->
  Pf_arm.Image.t ->
  Pf_cpu.Step.t
(** An ARM core over a compiled image ({!Pf_cpu.Step.of_image}), with the
    SA-1100's 16 KB I-cache. *)

val fits_core :
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Pf_cpu.Trace.t ->
  Pf_arm.Image.t ->
  Pf_cpu.Step.t
(** A FITS core with the 16 KB I-cache: profile the ARM image,
    synthesize its application-specific spec, translate and predecode —
    one decoder configuration per core, the paper's per-application
    flow.  The profiling run executes the image once sequentially
    (single-core), so building a FITS core is only meaningful for
    kernels whose sequential execution terminates. *)
