(** Compact instruction-stream traces: execute once, replay through many
    cache geometries.

    The paper's four configurations pair two instruction streams (ARM,
    FITS) with two I-cache sizes (16 KB, 8 KB).  The stream a program
    executes is a function of the ISA alone — cache geometry changes
    timing and power, never architectural behaviour — so the harness
    executes each ISA once, recording everything the timing/power stack
    consumes, and replays the recording through the other geometry.
    "Application Specific Cache Simulation Analysis for ASIP" (PAPERS.md)
    applies the same trace-once/replay-many structure to its cache design
    space sweep.

    A trace stores exactly the arguments of each {!Pipeline.issue} call:
    fetch address, instruction class, read/write register masks,
    taken/backward branch bits, memory word count — plus the observed
    D-cache miss count, so a replay charges the recorded data-side stalls
    instead of re-simulating the (configuration-invariant) D-cache.
    Storage is a chunked flat [int array] — two ints per retired
    instruction, no per-event allocation — so recording costs a few stores
    per instruction and a 10M-instruction trace takes ~160 MB at worst
    and typically far less. *)

type t

val create : ?chunk_events:int -> isize:int -> unit -> t
(** Fresh empty trace for instructions of [isize] bytes (4 = ARM,
    2 = FITS).  [chunk_events] (default 65536) sizes the growth unit. *)

val isize : t -> int

val length : t -> int
(** Retired instructions recorded so far. *)

val cls_code : Pipeline.insn_class -> int
(** Stable numbering of instruction classes (Alu = 0 ... System = 5) used
    in packed trace events and by {!Pf_arm.Pexec} metadata. *)

val cls_of_code : int -> Pipeline.insn_class
(** Inverse of {!cls_code}; out-of-range codes map to [System]. *)

val record :
  t ->
  addr:int ->
  cls:Pipeline.insn_class ->
  reads:int ->
  writes:int ->
  taken:bool ->
  backward:bool ->
  dmisses:int ->
  mem_words:int ->
  unit
(** Append one event.  Arguments mirror {!Pipeline.issue}; [dmisses] is
    the D-cache miss count the recording pipeline observed for this event
    ({!Pipeline.last_dcache_misses}, recorded {e after} issuing). *)

val static_meta :
  cls_code:int -> backward:bool -> reads:int -> writes:int -> int
(** The static (per-static-instruction constant) part of a packed meta
    word: class, branch direction and register masks, with the dynamic
    fields (taken, mem_words, dmisses) zero.  The block-compiled engine
    computes this once per instruction at block-compile time. *)

val dynamic_meta : taken:bool -> mem_words:int -> dmisses:int -> int
(** The dynamic part of a packed meta word; [static_meta ... lor
    dynamic_meta ...] equals what {!record} packs from the same fields. *)

val record_packed : t -> addr:int -> meta:int -> unit
(** Append one event whose meta word is already packed ({!static_meta}
    [lor] {!dynamic_meta}).  Identical trace bytes to {!record}; exists so
    a compiled block pays two stores per instruction instead of re-packing
    seven fields. *)

val register_pairs : t -> int array -> int
(** Register a compiled block's pairs table — (addr, meta) two ints per
    instruction, [record_packed]'s layout, ALU-shaped and strictly
    sequential — returning the table id {!record_span} references.  The
    table is aliased, not copied: it must not change for the life of the
    trace (the engines' tables are block-compile-time constants). *)

val record_span : t -> tid:int -> pos:int -> n:int -> unit
(** Append a fused ALU run of [n] events as ONE block-granular trace
    event referencing [n] pairs of registered table [tid] starting at int
    offset [pos].  Consumers expand it to exactly the stream [n]
    {!record_packed} calls of those pairs would have recorded; the
    recording itself is two stores regardless of [n]. *)

val set_dcache_rate : t -> float -> unit
(** Store the recording run's final D-cache miss rate (per million);
    replays report it verbatim — the data-side stream is identical in
    every configuration, so re-measuring it would only cost time. *)

val dcache_rate : t -> float
(** The stored D-cache miss rate (per million); what {!replay} reports as
    [dcache_miss_rate_pm]. *)

(** {2 Raw event iteration}

    Trace-level evaluators (the all-geometry DSE sweep kernel) process
    events without driving a pipeline object per geometry.  They read the
    same packed events through the same decoders [replay] uses. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f addr meta] for every recorded event in order.
    [meta] is the packed metadata word; decode it with the [meta_*]
    accessors below. *)

val meta_cls_code : int -> int
(** Instruction-class code of a packed meta word (see {!cls_of_code}). *)

val meta_taken : int -> bool
val meta_backward : int -> bool
val meta_mem_words : int -> int
val meta_reads : int -> int
val meta_writes : int -> int

val meta_dmisses : int -> int
(** Recorded D-cache miss count of the event (what [replay] passes to
    {!Pipeline.issue} as [dmisses]). *)

val exec_counts : t -> base:int -> n:int -> int array
(** Per-slot execution counts of the recorded stream: slot
    [(addr - base) / isize] of an [n]-slot code segment.  For an ARM
    recording this is bit-identical to the per-word profile a dedicated
    counting run produces — the trace {e is} the executed sequence —
    letting the harness feed instruction-set synthesis without a separate
    profiling execution. *)

(** What a replay measures — the cache/timing/power half of a runner's
    result record.  Identical to what the same instruction stream produces
    when simulated directly: replay drives the same [Pipeline.issue]
    sequence with the same arguments. *)
type stats = {
  instructions : int;
  cycles : int;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

val dcache_cfg : Pf_cache.Icache.config
(** The fixed SA-1100-like 8 KB data cache shared by every configuration
    (simulated by recording runs only; replays use the recorded misses). *)

val replay :
  ?pipeline_cfg:Pipeline.config ->
  ?power_params:Pf_power.Account.Params.t ->
  ?cache:Pf_cache.Icache.t ->
  ?seq:int array * int ->
  cache_cfg:Pf_cache.Icache.config ->
  fetch_data:(int -> int) ->
  t ->
  stats
(** Drive a fresh I-cache ([cache_cfg]), pipeline and power account with
    the recorded stream; data-side stalls come from the recorded miss
    counts.  [fetch_data] must be the same word-at-address function the
    execute phase used (the image is immutable, so the words driven onto
    the fetch bus are reproduced exactly).  [cache] substitutes a
    pre-built I-cache instance, as in the direct runners.  [seq] =
    [(Pipeline.seq_toggle_prefix of the code words, code_base / 4)]
    routes sequential ALU runs through the line-batched span kernel
    ({!Pipeline.issue_alu_seq_span}) — identical results, several times
    faster; omit it and replay uses the per-access span path. *)
