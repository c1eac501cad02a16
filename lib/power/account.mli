(** Sim-panalyzer-style power accounting for one instruction cache.

    Implements the paper's model (§4.1):  P = A·C·V²·f + V·I_leak, split as

    - {b switching} power: output drivers and address path, proportional to
      per-access bit toggles plus refill traffic on misses;
    - {b internal} power: clock/precharge power of the whole cache block,
      proportional to gate count, accrued every cycle the cache is on;
    - {b leakage} power: proportional to gate count and elapsed time;
    - {b peak} power: maximum power over any accounting window.

    Accounting is {e integer event counting}: accesses, toggles, refill
    words, cycles and retired instructions.  Every energy figure is a
    closed-form function of those counters ({!switching_energy},
    {!window_power}, {!report_of_counts}), evaluated on demand — never an
    accumulation of per-access floats.  Two simulators that count the same
    integers therefore report bit-identical floats, which is what lets the
    single-pass all-geometry DSE kernel reproduce a per-geometry replay
    exactly.  Peak windows close every [peak_window_insns] {e retired
    instructions} ({!on_retire}), an event-aligned boundary shared by all
    geometries; a cycle-aligned window would close at geometry-dependent
    points.

    Energies are in arbitrary consistent units; every figure reports
    ratios against the ARM16 baseline, where the units cancel. *)

module Params : sig
  type t = {
    k_access : float;
        (** fixed energy per access: bitline precharge, wordline drive and
            output-bus switching at a constant activity factor — the term
            that makes switching power proportional to fetch count *)
    k_output : float;
        (** energy per data-dependent output/address toggle *)
    k_refill_per_bit : float;
        (** energy per bit written on refill (switching component) *)
    k_internal_per_gate : float;
        (** per-gate per-cycle clock energy (internal component) *)
    k_leakage_per_gate : float;
        (** per-gate per-cycle leakage energy (static component) *)
    peak_window_insns : int;
        (** retired instructions per peak-power evaluation window *)
  }

  val default : t
  (** Calibrated so an ARM16/SA-1100-like run shows the paper's Figure 6
      breakdown: internal > 50 %, switching ≈ a third, leakage ≈ a tenth
      (0.35 um process, where leakage is minor). *)

  val for_geometry : Geometry.t -> t
  (** The coefficients of a cache organization: {!default} scaled
      analytically to its read width.  A read probes [assoc] ways of
      [block_bytes] each, so [k_access] scales with
      [assoc * block_bytes * 8] relative to the reference 32-way / 32 B
      organization (8192 bits) the constants were calibrated on; at both
      paper geometries (16 K and 8 K, which share ways and block size)
      the result equals {!default} exactly, so every paper-point figure
      is the published ARM16/ARM8/FITS16/FITS8 number.  Cache {e size}
      affects power through the geometry's gate count (internal and
      leakage terms) rather than through any coefficient here; no other
      coefficient scales, so every geometry shares [peak_window_insns].
      This is the one power model: every account ({!create}) and every
      sweep lane uses it. *)
end

(** {2 Closed-form energy expressions}

    The single source of the model's float arithmetic, shared by the
    incremental accountant below and by batch evaluators (the DSE sweep
    kernel) that count accesses/toggles/cycles themselves.  Keeping every
    caller on these exact expressions is what makes their reports
    bit-identical. *)

val switching_energy :
  Params.t -> accesses:int -> toggles:int -> refill_words:int -> float
(** [k_access·accesses + k_output·toggles + k_refill_per_bit·32·refill_words]. *)

val internal_per_cycle : Params.t -> Geometry.t -> float
val leakage_per_cycle : Params.t -> Geometry.t -> float

val window_power :
  Params.t ->
  Geometry.t ->
  accesses:int ->
  toggles:int ->
  refill_words:int ->
  cycles:int ->
  float
(** Power of one accounting window: switching energy over the window
    divided by its cycle count, plus the static per-cycle terms.
    [cycles] must be positive (zero-cycle windows carry no sample). *)

type t

val create : ?params:Params.t -> Geometry.t -> t
(** A fresh account for one cache.  [params] defaults to
    [Params.for_geometry geometry]; only the model's own unit tests
    substitute other coefficients. *)

val on_access : t -> toggles:int -> refilled_words:int -> unit
(** Record one cache access (switching activity). *)

val on_cycles : t -> int -> unit
(** Advance simulated time: accrues internal/leakage cycles, attributed
    to the open peak window. *)

val on_retire : t -> unit
(** Record one retired instruction.  Every [peak_window_insns] retirements
    the open window is evaluated ({!window_power}) into the running peak
    and a fresh window starts.  Instruction retirement is the one event
    stream shared by every cache geometry replaying the same trace, so
    window boundaries land at identical points across a design-space
    sweep. *)

val window_room : t -> int
(** Retirements left before the open peak window closes; always in
    [1, peak_window_insns].  The batch quantum for {!on_block}. *)

val on_block : t -> accesses:int -> toggles:int -> refilled_words:int ->
  cycles:int -> insns:int -> unit
(** Batched equivalent of [insns] interleaved {!on_access} /
    {!on_cycles} / {!on_retire} calls whose activity sums to the given
    counts.  Bit-identical to the per-instruction sequence {e provided}
    [insns <= window_room t]: window closes happen at retire boundaries
    and window sums are order-free, so the only thing a batch could get
    wrong is skipping a close that falls strictly inside it — the
    precondition rules that out.  Callers chunk longer runs by
    [window_room].  Used by {!Pf_cpu.Pipeline.issue_alu_span}. *)

type report = {
  switching : float;
  internal : float;
  leakage : float;
  total : float;          (** switching + internal + leakage *)
  peak_power : float;     (** max energy/cycle over any closed window *)
  cycles : int;
}

val report : t -> report
(** Read-only: evaluates the closed forms over the counters, folding any
    open partial window into the peak without disturbing it — safe to call
    mid-stream and repeatedly. *)

val report_of_counts :
  ?params:Params.t ->
  Geometry.t ->
  accesses:int ->
  toggles:int ->
  refill_words:int ->
  cycles:int ->
  peak:float ->
  report
(** Build the same report directly from externally-maintained counters —
    the batch path used by the all-geometry sweep kernel.  Feeding the
    counters an incremental accountant would have accumulated yields the
    bit-identical report.  [params] defaults to
    [Params.for_geometry geometry], as in {!create}. *)

val avg_power : report -> float
(** Mean power in energy units per cycle. *)
