(** Generality evaluation: every program simulated under per-app, shared,
    and leave-one-out ISAs.

    The campaign answers the deployment question the per-application flow
    cannot: how much of the paper's power saving survives when one
    synthesized ISA must serve a whole suite ({e shared}), and how well
    such an ISA generalizes to a program that was excluded from its
    synthesis ({e leave-one-out}).  It is the one multi-program campaign:
    [powerfits multi] reports it over registry benchmarks, and
    {!Pf_workgen.Population} over a generated population.  Every cell is
    one translation plus one direct FITS8 run, cross-checked against the
    profiling reference output. *)

type isa = Per_app | Shared | Loo

val isa_label : isa -> string

(** One (program, spec) evaluation. *)
type cell = {
  cell_isa : isa;
  fits8 : Pf_harness.Experiment.per_config;
  static_map_pct : float;
  dyn_map_pct : float;
  code_fits : int;
  dict_entries : int;   (** after per-program dictionary extension *)
  spilled_imms : int;   (** entries appended beyond the spec's dictionary *)
  reload_bits : int;
      (** the per-program data-plane tail, in bits
          ({!Pf_fits.Translate.reload}) *)
  output_ok : bool;     (** the run matched the profiling reference *)
}

val eval_cell :
  ?max_steps:int -> isa:isa -> Pf_fits.Spec.t -> Suite.prepared -> cell
(** Translate the program under [spec], run it once at 8 KB under the
    step budget [max_steps], cross-check its output.  Records no trace.
    Deterministic: equal inputs give a bit-identical cell (the
    differential test relies on this).  Unprotected. *)

type row = {
  r_bench : string;
  r_prepared : Suite.prepared;
      (** the program's prepared view, for readers that re-evaluate it *)
  r_arm16 : Pf_harness.Experiment.per_config;  (** power baseline *)
  r_per_app : cell;
  r_shared : cell;
  r_loo : cell option;   (** present when the campaign ran leave-one-out *)
}

type row_outcome = {
  ro_bench : string;
  ro_outcome : (row, Pf_util.Sim_error.t) result;
}

type campaign = {
  c_shared : Suite.shared;
  c_rows : row_outcome list;   (** one per program, in input order *)
  c_completed : int;
  c_total : int;
  c_jobs : int;
  c_loo : bool;
}

val loo_spec :
  weighting:Weighting.t -> dict_budget:int -> Suite.prepared list ->
  string -> Pf_fits.Spec.t
(** The ISA synthesized from every prepared program {e except} the named
    one (same weighting and dictionary budget as the full-suite spec). *)

val run :
  ?weighting:Weighting.t ->
  ?dict_budget:int ->
  ?loo:bool ->
  ?scale:int ->
  ?max_steps:int ->
  ?jobs:int ->
  Pf_mibench.Registry.benchmark list ->
  campaign
(** Full campaign: prepare each benchmark once, synthesize the shared
    spec, then evaluate every program under its per-app, the shared, and
    (when [loo]) its leave-one-out ISA.  [max_steps] bounds every run.
    Preparation and each program's evaluation are isolated behind
    {!Pf_util.Sim_error.protect}: a program that fails either is an
    [Error] row, and the shared and leave-one-out syntheses read only the
    programs that prepared.  Both stages run on an order-preserving
    domain pool: results are bit-identical for every [jobs] value.
    Defaults: [Dyn_count] weighting, {!Suite.default_dict_budget}, no
    LOO, scale 1.
    @raise Pf_util.Sim_error.Error ([Invalid_config]) if no program
    prepared. *)

val ok_rows : campaign -> row list
val failed : campaign -> (string * string) list
(** Failed programs as [(name, error)] pairs. *)

val divergent : campaign -> string list
(** Programs with at least one cell whose output mismatched the
    reference. *)

val power_saving_pct : row -> cell -> float
(** The cell's FITS8 average I-cache power saving over the row's ARM16
    baseline, in percent ({!Pf_power.Account.avg_power}). *)

val table : campaign -> string
(** Per-program, per-ISA table: code bytes, static/dynamic 1-to-1 rates,
    FITS8 miss rate and IPC, FITS8-vs-ARM16 total power saving, output
    status. *)

val summary : campaign -> string
(** Mean power-saving degradation: per-app vs shared (and LOO), in
    percentage points — the cost of generality. *)

val banner : campaign -> string

val figures : campaign -> Pf_harness.Figures.figure list
(** Code size, power saving, miss rate and IPC, one series per ISA. *)
