(** Set-associative instruction cache simulator with LRU replacement.

    Beyond hit/miss bookkeeping it records the *activity* the power model
    needs (paper §4.2: sim-panalyzer ties power to gate switching per
    microarchitectural access):

    - output-bus toggles: Hamming distance between consecutive words driven
      onto the fetch bus;
    - address-path toggles: Hamming distance between consecutive set
      indices (decoder switching);
    - refill traffic: words written into the array on each miss. *)

type config = {
  size_bytes : int;
  block_bytes : int;
  assoc : int;
}

val config : ?block_bytes:int -> ?assoc:int -> size_bytes:int -> unit -> config
(** Defaults match the StrongARM-class I-cache: 32-byte blocks, 32-way.
    Validates the geometry (see {!validate}) before returning it. *)

val validate : config -> unit
(** Raises a [Pf_util.Sim_error] of kind [Invalid_config] listing {e every}
    offending field when the geometry is degenerate: non-power-of-two
    [size_bytes], [block_bytes] (or block smaller than one 4-byte fetch
    word) or [assoc], a cache smaller than one block, or an associativity
    exceeding the line count (zero sets).  Design-space grids hit these
    corners routinely; the structured error lets callers classify and
    skip them instead of crashing mid-sweep. *)

val sets : config -> int
val tag_bits : config -> int

(** {2 Address decomposition and activity model}

    The exact functions {!access_fast} applies per access, exposed so
    trace-level cache evaluators (the all-geometry DSE sweep kernel)
    decompose addresses and charge toggles identically. *)

val block_of_addr : config -> addr:int -> int
(** Block number of a byte address: [addr lsr log2 block_bytes]. *)

val set_of_block : config -> block:int -> int
(** Set index (bit selection): [block land (sets - 1)]. *)

val tag_of_block : config -> block:int -> int
(** Stored tag: [block lsr log2 sets]. *)

val index_toggle : last_idx:int -> idx:int -> int
(** Decoder-path activity of one access: Hamming distance between
    consecutive set indices. *)

val output_toggle : last_out:int -> out:int -> int
(** Output-bus activity of one access: Hamming distance between
    consecutive fetched words.  Both toggle baselines start at 0
    (a fresh cache charges [popcount] of the first index/word). *)

type t

val create : config -> t

type result = {
  hit : bool;
  toggles : int;        (** output + index toggles of this access *)
  refilled_words : int; (** words brought in by this access (0 on hit) *)
}

val access : t -> addr:int -> data:int -> result
(** [access t ~addr ~data] simulates a fetch of the 32-bit word [data] at
    byte address [addr].  [data] is what the cache drives onto its output
    bus (the simulator knows it from the image; a real cache would read it
    from the array). *)

val access_fast : t -> addr:int -> data:int -> int
(** Exactly {!access}, but the result is packed into one immediate int so
    the per-fetch hot path allocates nothing: bit 0 = hit, bits 1-15 =
    refilled words, bits 16 and up = toggles.  {!access} is a wrapper
    around this. *)

val access_count : t -> addr:int -> bool
(** {!access_fast} minus the switching-activity model: returns the hit
    bit alone and skips the index/output Hamming toggles and bus-state
    updates.  Tag array, MRU order, miss counters and pending flips
    evolve identically, so the hit/miss sequence on any address stream
    is bit-identical.  Only sound on an instance whose toggle counters
    are never read and whose {e every} access goes through this entry
    point — the pipeline's D-cache, whose misses are
    the only thing the timing model consumes (power accounting models
    the I-cache alone). *)

val line_of_addr : t -> addr:int -> int
(** Cache-line number of a byte address under this instance's geometry
    ([addr lsr log2 block_bytes]) — the value callers track to prove the
    {!access_seq} precondition. *)

val access_seq : t -> addr:int -> data:int -> int
(** Same contract and packed result as {!access_fast}, specialized to an
    access whose line ({!line_of_addr}) equals that of the immediately
    preceding access to this cache.  Under that precondition the line is a
    guaranteed way-0 MRU hit with zero index toggles, so only the access
    counter and the output-toggle stream advance — one Hamming distance
    instead of a way search, an MRU rotate and a decoder toggle.  Falls
    back to {!access_fast} internally while tag flips are pending.
    Calling it when the precondition does not hold silently corrupts the
    simulation; the block-compiled engine is its only intended caller. *)

val access_seq_run : t -> naccesses:int -> toggles:int -> last_out:int -> unit
(** Bulk form of [naccesses] consecutive {!access_seq}-eligible fetches:
    every access touches the line of the immediately preceding access (so
    each is a guaranteed way-0 hit with zero index toggles), [toggles] is
    the output-bus Hamming sum of the fetched word sequence, and
    [last_out] the final word on the bus.  Counter-for-counter identical to the per-access calls under
    those preconditions — only the access counter, the output-toggle
    total and the bus baseline advance.  Callers must check
    {!has_pending_flips} first: the access counter jumps by [naccesses],
    which would defer a flip falling due inside the run. *)

val invalidate_addr : t -> addr:int -> bool
(** Drop the cache line holding byte address [addr] if it is resident;
    returns whether a line was actually invalidated.  This is the D-side
    coherence hook: the multicore machine's write-through snooping layer
    invalidates the written line in every {e other} core's private
    D-cache so a later read there must re-fetch the (already propagated)
    data.  Remaining ways keep their MRU-first order; statistics are
    untouched. *)

val has_pending_flips : t -> bool
(** Are tag flips scheduled but not yet applied?  While true, batched
    accessors ({!access_seq_run}) are unsound and callers must take the
    per-access path. *)

val block_bytes : t -> int
(** Line size in bytes of this instance's geometry (callers compute line
    spans without re-deriving the config). *)

val stats_accesses : t -> int
val stats_misses : t -> int

val output_toggles : t -> int
(** Total Hamming distance accumulated on the output bus. *)

val addr_toggles : t -> int
(** Total Hamming distance accumulated on the set-index path. *)

val refill_words : t -> int
(** Words moved into the array by misses. *)

val miss_rate_per_million : t -> float

val reset_stats : t -> unit
(** Clear counters — including the toggle baselines, so the next access
    starts a fresh Hamming stream — but keep cache contents (for warmup
    discard). *)

(** {2 Fault injection}

    Soft errors in the tag array.  A flipped tag turns future probes of
    that line into spurious misses (or, rarely, false hits against a
    neighbouring address); the simulator models the timing and power
    consequences — instruction {e data} corruption is modeled at the
    decoder level, not here. *)

val slots : t -> int
(** Total tag slots ([sets * assoc]); the injector's address space. *)

val schedule_tag_flip : t -> at_access:int -> slot:int -> bit:int -> unit
(** Flip [bit] of the tag stored in [slot] once the access counter
    reaches [at_access].  Flips aimed at invalid (empty) lines are
    dropped — there is no stored tag to corrupt. *)

val flips_applied : t -> int
(** How many scheduled flips actually landed on a valid line. *)
