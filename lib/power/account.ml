module Params = struct
  type t = {
    k_access : float;
    k_output : float;
    k_refill_per_bit : float;
    k_internal_per_gate : float;
    k_leakage_per_gate : float;
    peak_window_insns : int;
  }

  (* Calibration (see mli): with a 16 KB 32-way cache (~151 k gate
     equivalents), ~0.8 accesses/cycle and ~15 toggles/access, switching
     is ~33 %, internal ~55 % and leakage ~12 % of ARM16 I-cache power,
     matching Figure 6(a).  Switching is dominated by the per-access
     precharge/output-drive term [k_access], so halving fetch accesses
     (FITS) halves it, while same-width ARM8 saves almost nothing —
     the Figure 7 contrast. *)
  let default =
    {
      k_access = 34.0;
      k_output = 0.30;
      k_refill_per_bit = 3.0;
      k_internal_per_gate = 3.4e-4;
      k_leakage_per_gate = 7.5e-5;
      peak_window_insns = 32;
    }

  (* One read probes [assoc] ways of [block_bytes] each: every bitline in
     the probed ways is precharged and sensed, so the fixed per-access
     energy scales with assoc * block-bits.  The reference organization is
     the paper's 32-way, 32 B-block cache (8192 read bits), where the
     scale is exactly 1.0 — both paper points (16 K and 8 K share ways and
     block size) therefore see [default] unchanged, which is what lets the
     DSE grid reproduce the ARM16/ARM8/FITS16/FITS8 numbers bit-for-bit.
     Size enters only through [gate_count] (internal and leakage terms),
     which [create] already reads from the geometry; the per-toggle and
     per-refill-bit coefficients are per-bit quantities and stay fixed. *)
  let ref_read_bits = 32 * 32 * 8

  let for_geometry (g : Geometry.t) =
    let read_bits = g.Geometry.assoc * g.Geometry.block_bytes * 8 in
    let scale = float_of_int read_bits /. float_of_int ref_read_bits in
    { default with k_access = default.k_access *. scale }
end

(* Accounting is pure integer event counting; every energy is a closed-form
   function of the counters, evaluated on demand.  This is what lets the
   single-pass DSE kernel (Pf_dse.Sweep) reproduce a replay's floats
   bit-for-bit: both paths count the same integers and then evaluate the
   same expressions below, so there is no dependence on the order in which
   per-access energies were accumulated.  Peak-power windows close every
   [peak_window_insns] retired instructions — an instruction-aligned
   boundary that falls at the same event index for every cache geometry
   (a cycle-aligned boundary would not: cycle counts are geometry-
   dependent). *)

let[@inline always] switching_energy (p : Params.t) ~accesses ~toggles ~refill_words =
  (p.Params.k_access *. float_of_int accesses)
  +. (p.Params.k_output *. float_of_int toggles)
  +. (p.Params.k_refill_per_bit *. float_of_int (refill_words * 32))

let[@inline always] internal_per_cycle (p : Params.t) (g : Geometry.t) =
  p.Params.k_internal_per_gate *. float_of_int g.Geometry.gate_count

let[@inline always] leakage_per_cycle (p : Params.t) (g : Geometry.t) =
  p.Params.k_leakage_per_gate *. float_of_int g.Geometry.gate_count

let[@inline always] window_power (p : Params.t) (g : Geometry.t) ~accesses ~toggles
    ~refill_words ~cycles =
  (switching_energy p ~accesses ~toggles ~refill_words
  /. float_of_int cycles)
  +. internal_per_cycle p g +. leakage_per_cycle p g

type t = {
  params : Params.t;
  geometry : Geometry.t;
  mutable accesses : int;
  mutable toggles : int;
  mutable refill_words : int;
  mutable cycles : int;
  mutable insns : int;
  (* open peak window *)
  mutable w_accesses : int;
  mutable w_toggles : int;
  mutable w_refill_words : int;
  mutable w_cycles : int;
  mutable w_insns : int;
  mutable peak : float;
}

let create ?params geometry =
  let params =
    match params with Some p -> p | None -> Params.for_geometry geometry
  in
  {
    params;
    geometry;
    accesses = 0;
    toggles = 0;
    refill_words = 0;
    cycles = 0;
    insns = 0;
    w_accesses = 0;
    w_toggles = 0;
    w_refill_words = 0;
    w_cycles = 0;
    w_insns = 0;
    peak = 0.0;
  }

let on_access t ~toggles ~refilled_words =
  t.accesses <- t.accesses + 1;
  t.toggles <- t.toggles + toggles;
  t.refill_words <- t.refill_words + refilled_words;
  t.w_accesses <- t.w_accesses + 1;
  t.w_toggles <- t.w_toggles + toggles;
  t.w_refill_words <- t.w_refill_words + refilled_words

let on_cycles t n =
  t.cycles <- t.cycles + n;
  t.w_cycles <- t.w_cycles + n

let close_window t =
  (* an all-paired (zero-cycle) window has no power sample *)
  if t.w_cycles > 0 then begin
    let p =
      window_power t.params t.geometry ~accesses:t.w_accesses
        ~toggles:t.w_toggles ~refill_words:t.w_refill_words
        ~cycles:t.w_cycles
    in
    if p > t.peak then t.peak <- p
  end;
  t.w_accesses <- 0;
  t.w_toggles <- 0;
  t.w_refill_words <- 0;
  t.w_cycles <- 0;
  t.w_insns <- 0

let on_retire t =
  t.insns <- t.insns + 1;
  t.w_insns <- t.w_insns + 1;
  if t.w_insns >= t.params.Params.peak_window_insns then close_window t

let window_room t = t.params.Params.peak_window_insns - t.w_insns

(* Batched accounting for [insns] retired instructions whose summed
   activity is [accesses]/[toggles]/[refilled_words]/[cycles].  Exactness
   hinges on the peak windows: a window closes at a retire boundary, and
   contributions within one window are order-free (the sample is a
   function of the window sums), so a batch is bit-identical to the
   per-instruction call sequence iff no close falls strictly inside it —
   the caller must keep [insns <= window_room].  Equivalent to [insns]
   interleaved on_access/on_cycles/on_retire calls. *)
let on_block t ~accesses ~toggles ~refilled_words ~cycles ~insns =
  t.accesses <- t.accesses + accesses;
  t.toggles <- t.toggles + toggles;
  t.refill_words <- t.refill_words + refilled_words;
  t.cycles <- t.cycles + cycles;
  t.insns <- t.insns + insns;
  t.w_accesses <- t.w_accesses + accesses;
  t.w_toggles <- t.w_toggles + toggles;
  t.w_refill_words <- t.w_refill_words + refilled_words;
  t.w_cycles <- t.w_cycles + cycles;
  t.w_insns <- t.w_insns + insns;
  if t.w_insns >= t.params.Params.peak_window_insns then close_window t

type report = {
  switching : float;
  internal : float;
  leakage : float;
  total : float;
  peak_power : float;
  cycles : int;
}

let report_of_counts ?params geometry ~accesses ~toggles ~refill_words
    ~cycles ~peak =
  let params =
    match params with Some p -> p | None -> Params.for_geometry geometry
  in
  let switching = switching_energy params ~accesses ~toggles ~refill_words in
  let internal = internal_per_cycle params geometry *. float_of_int cycles in
  let leakage = leakage_per_cycle params geometry *. float_of_int cycles in
  {
    switching;
    internal;
    leakage;
    total = switching +. internal +. leakage;
    peak_power = peak;
    cycles;
  }

let report t =
  (* fold the open window into the peak without closing it: reporting is
     read-only, so mid-stream reports compose *)
  let peak =
    if t.w_cycles > 0 then begin
      let p =
        window_power t.params t.geometry ~accesses:t.w_accesses
          ~toggles:t.w_toggles ~refill_words:t.w_refill_words
          ~cycles:t.w_cycles
      in
      if p > t.peak then p else t.peak
    end
    else t.peak
  in
  report_of_counts ~params:t.params t.geometry ~accesses:t.accesses
    ~toggles:t.toggles ~refill_words:t.refill_words ~cycles:t.cycles ~peak

let avg_power r = if r.cycles = 0 then 0.0 else r.total /. float_of_int r.cycles
