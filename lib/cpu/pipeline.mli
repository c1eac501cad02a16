(** SA-1100-class in-order dual-issue timing model.

    The paper's simulated core is "a dual-issue, in-order machine" with a
    maximum IPC of 2 (§6.4.2), modeled after the StrongARM SA-1100 at
    200 MHz.  This module charges cycles per retired instruction:

    - up to two instructions issue per cycle when the second has no RAW
      dependence on the first, at most one is a memory operation, and the
      first is neither a branch nor a multiply;
    - a taken branch pays a redirect penalty;
    - a load feeding the immediately following instruction pays a bubble;
    - multiplies and multi-word load/store multiple pay extra cycles;
    - every instruction-fetch word goes through the I-cache; a miss stalls
      the front end for the refill latency.

    The pipeline owns the fetch path: it decides when a new 32-bit word
    must be read from the I-cache.  16-bit (FITS) instructions that fall in
    the word fetched by the previous instruction reuse the fetch buffer —
    the mechanism by which halved code size halves fetch traffic. *)

type insn_class = Alu | Mul | Load | Store | Branch | System

type predictor =
  | No_prediction   (** every taken branch pays the redirect *)
  | Btfn
      (** static backward-taken / forward-not-taken prediction: only
          mispredicted direct branches (and all indirect ones) pay *)

type config = {
  dual_issue : bool;
  miss_penalty : int;       (** cycles to refill a line from memory *)
  branch_penalty : int;     (** redirect cycles on a taken branch *)
  load_use_bubble : int;
  mul_extra : int;
  ldm_word_extra : int;     (** extra cycles per additional LDM/STM word *)
  fetch_buffer : bool;
      (** when false, every instruction re-reads the cache even within the
          same 32-bit word — the ablation that removes FITS' fetch-traffic
          halving *)
  predictor : predictor;
}

val sa1100 : config
(** 200 MHz StrongARM-like defaults: dual issue, 24-cycle miss penalty,
    2-cycle taken-branch redirect, 1-cycle load-use bubble, 2 extra cycles
    per multiply. *)

val mispredicted :
  config -> cls:insn_class -> taken:bool -> backward:bool -> bool
(** Does this retirement pay the redirect penalty?  Pure function of the
    config and geometry-invariant event fields — the exact predicate
    {!issue} applies, exposed so trace-level evaluators (the all-geometry
    DSE sweep) charge identical penalties. *)

val extra_cycles :
  config ->
  cls:insn_class ->
  taken:bool ->
  backward:bool ->
  mem_words:int ->
  int
(** Back-end penalty cycles of one retirement (multiply latency, extra
    LDM/STM words, branch redirect) — exactly what {!issue} spends after
    the issue slot itself.  Like {!mispredicted}, shared with trace-level
    evaluators. *)

type t

val create :
  ?config:config ->
  ?dcache:Pf_cache.Icache.t ->
  cache:Pf_cache.Icache.t ->
  account:Pf_power.Account.t ->
  fetch_data:(int -> int) ->
  unit ->
  t
(** [fetch_data addr] must return the 32-bit word stored at the aligned
    code address [addr] (it is what the cache drives on its output bus).
    [dcache] (optional) models the data side: every memory word moved
    goes through it and misses stall for [miss_penalty]; it is held
    constant across the paper's four configurations, so it affects
    absolute cycle counts but no I-cache comparison. *)

val issue :
  t ->
  backward:bool ->
  mem_addr:int ->
  dmisses:int ->
  addr:int ->
  size:int ->
  cls:insn_class ->
  reads:int ->
  writes:int ->
  taken:bool ->
  mem_words:int ->
  unit
(** Account one retired instruction.  [size] is 4 (ARM) or 2 (FITS);
    [reads]/[writes] are register bitmasks; [taken] marks a taken branch;
    [mem_words] the words a memory instruction transfers; [backward]
    (direct branches only, false otherwise) feeds the static predictor.
    [mem_addr] is the effective address, [-1] if none.  [dmisses >= 0]
    bypasses the D-cache model and charges that many recorded miss
    stalls instead — the trace-replay path, where the D-cache outcome is
    already known to be identical; pass [-1] to simulate the D-cache.
    All arguments are required: a [Some]-boxed optional would allocate on
    every dynamic instruction. *)

val issue_alu_span : t -> ev:int array -> pos:int -> n:int -> unit
(** Span-batched {!issue} for the dominant event shape: [n] consecutive
    plain Alu instructions ([cls = Alu], [taken = backward = false],
    [mem_words = 0], [mem_addr = -1], [dmisses = 0]), packed two ints
    each into [ev] starting at [pos] — slot 0 the fetch address, slot 1
    a meta word with the read mask in bits 11-27 and the write mask in
    bits 28-44 and every other bit zero (the {!Trace} packed event layout
    for an eligible event; {!Trace.static_meta} of an Alu instruction
    produces exactly this).  Callers must prove every event has this
    shape.  Bit-identical to [n] separate {!issue} calls with those
    constants: fetches still hit the I-cache access-by-access
    (miss stalls and toggle streams are exact), while the pairing state
    runs in locals and the power accounting is applied in peak-window
    bounded batches ({!Pf_power.Account.on_block}).  The trace replayer
    and the block-compiled engines feed their ALU runs through here. *)

val seq_toggle_prefix : words:int array -> int array
(** Output-bus toggle prefix of a code segment: entry [w] is the Hamming
    sum of the word transitions [words.(0) -> ... -> words.(w)], so a
    sequential fetch of words [(a, b]] charges entry [b] minus entry [a].
    Computed once per run/replay and fed to {!issue_alu_seq_span}. *)

val issue_alu_seq_span :
  t ->
  ev:int array ->
  pos:int ->
  n:int ->
  size:int ->
  seq_tog:int array ->
  wbase:int ->
  unit
(** {!issue_alu_span} specialized to spans whose fetch addresses are
    strictly sequential — event [k] exactly [size] bytes after event
    [k-1], the shape of every straight-line retirement run.  The first
    access of each cache line takes the real per-access path (misses,
    refills and index toggles exact); the rest of the line's
    words are guaranteed way-0 hits and collapse into one bulk cache
    update whose output-bus toggles come from [seq_tog]
    ({!seq_toggle_prefix} of the code words; [wbase] = code_base / 4
    offsets addresses into it).  Batches are cut at peak-power-window
    boundaries, so windows close on the same retirements with the same
    sums as per-access accounting.  Bit-identical to {!issue_alu_span};
    falls back to it when the fetch buffer is disabled or tag flips are
    pending.  Callers must prove sequentiality — the drivers' block event
    pairs are sequential by construction, and the trace replayer checks
    addresses while scanning spans. *)

val cycles : t -> int
val instructions : t -> int
val ipc : t -> float
val fetch_accesses : t -> int

val last_dcache_misses : t -> int
(** D-cache misses charged by the most recent {!issue} (what a recording
    run stores in the trace). *)
