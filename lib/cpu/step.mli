(** The per-instruction body of every fast run, for both ISAs.

    Each [t] is one core: architectural state, predecoded micro-ops,
    private I-cache, private D-cache, pipeline and power account.  One
    {!step} executes exactly one instruction: the watchdog, the deadline
    poll (every [Exec.deadline_mask + 1] steps), the fetch and decode
    faults, one {!Pipeline.issue} call, an optional {!Trace.record} and,
    on FITS cores, the source-retirement counts.

    This is the only copy of that body.  The compiled engine's block
    driver ({!Cexec.run}) calls it for boundary steps and fallback
    blocks, [Pf_fits.Run.run ~on_step] loops it, and a multicore machine
    ({!Pf_mc.Machine}) interleaves cores one [step] at a time.  A
    single-core machine is therefore bit-identical to the sequential
    runners field by field (floats by their IEEE bits; the mc and
    differential tests pin this).  The reference interpreters in
    {!Arm_run} and [Pf_fits.Run] are independent of it: they are the
    oracles it is checked against. *)

type result = {
  instructions : int;       (** retired instructions at this core's isize *)
  src_instructions : int;
      (** ARM-source instructions: equals [instructions] on ARM cores,
          counts first-of-group slots on FITS cores *)
  cycles : int;
  ipc : float;              (** source instructions per cycle *)
  fetch_accesses : int;
  output : string;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

(** A stepper.  The fields are exposed for the engine built on it: the
    block driver ({!Cexec}) advances the same state a block at a time,
    and the runners ({!Arm_run}, [Pf_fits.Run]) report from its stack.
    Every other caller goes through the functions below. *)
type t = {
  st : Pf_arm.Exec.t;           (** [st.steps] is the watchdog counter *)
  o : Pf_arm.Exec.outcome;
  uops : Pf_arm.Pexec.uop array;
  n : int;
  code_base : int;
  words : int array;
  isize : int;
  ishift : int;                 (** log2 isize: slot = offset lsr ishift *)
  align_mask : int;             (** isize - 1 *)
  where : string;               (** ["arm.exec"] or ["fits.run"] *)
  pipe : Pipeline.t;
  cache : Pf_cache.Icache.t;
  dcache : Pf_cache.Icache.t;
  account : Pf_power.Account.t;
  max_steps : int;
  deadline : Pf_util.Deadline.t option;
  trace : Trace.t option;
  src_first : bool array;       (** empty on ARM cores *)
  src_single : bool array;
  mutable pc : int;
  mutable src_retired : int;
  mutable src_one : int;
}

val create :
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pipeline.config ->
  ?power_params:Pf_power.Account.Params.t ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Trace.t ->
  ?src:bool array * bool array ->
  isize:int ->
  code_base:int ->
  words:int array ->
  entry:int ->
  uops:Pf_arm.Pexec.uop array ->
  Pf_arm.Exec.t ->
  t
(** Build a core over an already-predecoded stream.  [isize] is 4 (ARM)
    or 2 (FITS) and also picks the fault texts and origin each ISA's
    runner reports; [words] backs sequential-fetch toggle accounting and
    is indexed from [code_base] in 32-bit words.  [cache_cfg] defaults to
    16 KB, the ARM baseline geometry.  [cache] substitutes a
    pre-built I-cache (as the runners' [?cache] does); its geometry must
    match [cache_cfg], which still drives the power model.  [src], for
    FITS cores, gives per-slot (first-of-group, group-is-singleton) flags
    indexed like [uops] — they drive the source-instruction counts.
    [max_steps] (default 500 million) is the watchdog; [trace] must be
    created with the matching [isize]. *)

val of_image :
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pipeline.config ->
  ?power_params:Pf_power.Account.Params.t ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Trace.t ->
  Pf_arm.Image.t ->
  t
(** ARM convenience: predecode the image ({!Pf_arm.Pexec.compile}), make
    a fresh {!Pf_arm.Exec.t} and wrap them as an [isize]-4 core. *)

val step : t -> unit
(** Advance the core by exactly one instruction (or by the halt
    transition when the pc reaches the sentinel).  No-op once halted.
    Raises the runners' structured errors ([Watchdog_timeout],
    [Decode_fault], deadline expiry) with their texts. *)

val halted : t -> bool

val steps : t -> int
(** Instructions retired so far (the watchdog counter). *)

val state : t -> Pf_arm.Exec.t
(** The architectural state — shared-memory layers read and write its
    [mem] directly. *)

val dcache : t -> Pf_cache.Icache.t
(** The private D-cache, exposed so a coherence layer can snoop
    ({!Pf_cache.Icache.invalidate_addr}). *)

val stored_addr : t -> int
(** Lowest byte address written by the most recent {!step}, or [-1] if it
    executed no store.  Multi-word stores (push) cover
    [\[stored_addr, stored_addr + 4 * stored_words)]. *)

val stored_words : t -> int
(** Words written by the most recent step's store ([0] if none; byte and
    half stores report [1] — the containing word). *)

val result : t -> result
(** Snapshot of the core's counters, output and power report.  Also
    publishes the D-cache miss rate into the core's trace, as a recording
    run must before replay. *)
