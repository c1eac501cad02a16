(** Population-scale shared-ISA campaigns over generated workloads.

    [run ~count ~seed ()] generates [count] calibrated programs
    ({!Generate}) and runs the one multi-program campaign,
    {!Pf_multi.Eval.run}, over them: each program is prepared once
    (compile, one traced ARM16 execution that doubles as power baseline
    and profiling run), one shared FITS ISA is synthesized over every
    program that prepared, and every program's FITS8 power saving is
    measured under its own per-application ISA and under the shared one —
    the population-scale version of the paper's multi-program degradation
    question, reported as a distribution (histogram, p50/p95/max) instead
    of 21 table rows.  A population {!row} is a projection of the
    campaign's row.

    Rows are generated and evaluated on a {!Pf_util.Pool} of worker
    domains; every derived number, and the whole {!report} string, is a
    pure function of [(count, seed, dict_budget, max_steps, adaptive)] —
    independent of [jobs].  Per-row failures are isolated with
    {!Pf_util.Sim_error.protect} and reported, never raised.

    With [~adaptive:true] the evaluated population is additionally run
    through phase-adaptive resynthesis: rows are ordered into a
    phase-structured fleet schedule (by descending dynamic memory-op
    share — emulating workloads arriving in behavioural clusters),
    {!Phase.segment} finds the opcode-mix phase boundaries, and each
    phase gets its own dictionary/register-list tables synthesized from
    its members and installed over the shared opcode plane via
    {!Pf_fits.Spec.with_data_plane} — the §3.1 decoder reload.  Energy
    accounting charges every data-plane load at
    {!Pf_power.Account.Params.k_refill_per_bit} per bit: the static core
    pays one shared-table load plus each program's per-program tail
    ({!Pf_fits.Translate.reload}); the adaptive core pays a full table
    load per phase plus its (smaller) tails. *)

type row = {
  r_index : int;
  r_name : string;
  r_steps : int;              (** source instructions simulated (all runs) *)
  r_per_app_saving : float;   (** FITS8-vs-ARM16 avg-power saving, own ISA *)
  r_shared_saving : float;    (** same under the population-shared ISA *)
  r_degradation_pp : float;   (** per-app minus shared, percentage points *)
  r_static_map_pct : float;   (** 1-to-1 mapping under the shared ISA *)
  r_spilled : int;            (** dict entries beyond the shared dictionary *)
  r_reload_bits : int;        (** per-program data-plane tail, in bits *)
  r_shared_energy : float;    (** FITS8 total energy under the shared ISA *)
  r_mix : float array;        (** dynamic opcode mix ({!Phase.categories}) *)
  r_output_ok : bool;         (** both FITS runs reproduced the ARM output *)
}

type distribution = {
  d_mean : float;
  d_p50 : float;
  d_p95 : float;
  d_max : float;
  d_histogram : (float * int) list;
      (** (bucket lower bound in pp, row count), 0.5 pp buckets *)
}

type adaptive = {
  a_phases : (int * int) list;  (** schedule extents [start, stop) *)
  a_boundaries : int list;
  a_static_energy : float;      (** shared ISA + reload charges *)
  a_adaptive_energy : float;    (** per-phase data planes + reload charges *)
  a_saving_pct : float;         (** of adaptive over static *)
  a_static_reload_bits : int;
  a_adaptive_reload_bits : int;
}

type t = {
  count : int;
  seed : int;
  jobs : int;
  digest : string;              (** MD5 over canonical program renderings *)
  calib_max_distance : float;
  calib_report : string;
  shared_dict_entries : int;
  shared_static_map_mean : float;
  rows : row list;              (** successful rows, index order *)
  failures : (int * string) list;
  dist : distribution;
  adaptive_r : adaptive option;
  gen_s : float;                (** wall clock: generation (stderr only) *)
  eval_s : float;               (** wall clock: prepare+synthesis+eval *)
  total_steps : int;            (** sum of [r_steps] *)
}

val run :
  ?jobs:int ->
  ?dict_budget:int ->
  ?max_steps:int ->
  ?adaptive:bool ->
  count:int ->
  seed:int ->
  unit ->
  t
(** @raise Pf_util.Sim_error.Error ([Invalid_config]) for [count < 1] or
    if every program failed preparation. *)

val report : t -> string
(** The deterministic stdout report: digest, calibration, shared-ISA
    summary, degradation distribution, worst rows, failures, and the
    adaptive section when present.  Contains no timing or host
    information — byte-identical for any [jobs]. *)
