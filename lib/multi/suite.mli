(** Multi-program suites: prepared benchmarks, weighted profile merging,
    and shared-ISA synthesis.

    A {e prepared} benchmark is the view of a recording's ARM half
    ({!Pf_dse.Explore.record_arm}): the program has been compiled and
    executed once, and its image, per-word dynamic counts, profile and
    reference output are all captured, so every downstream consumer
    (merging, synthesis, LOO evaluation) reuses the same measurement.
    Preparation is the only stage that executes ARM code; everything
    after it is arithmetic on the captured counts and FITS
    executions. *)

type prepared = {
  bench : Pf_mibench.Registry.benchmark;
  image : Pf_arm.Image.t;
  dyn_counts : int array;   (** per-code-word execution counts *)
  profile : Pf_fits.Profile.t;
  reference_output : string;  (** output of the profiling ARM run *)
}

val name : prepared -> string

val of_recording : Pf_dse.Explore.recording -> prepared
(** The prepared view of a recording's ARM half; the profile is built
    from its counts. *)

val prepare :
  ?scale:int -> ?max_steps:int -> Pf_mibench.Registry.benchmark ->
  prepared * Pf_cpu.Arm_run.result
(** Record the benchmark's ARM half once, keeping its prepared view and
    its ARM16 result ({!Pf_dse.Explore.arm_half}'s [arm_result]).  The
    trace is dropped.  Unprotected, like {!Pf_dse.Explore.record_arm}. *)

val multiplier : Weighting.t -> prepared -> int
(** The integer weight applied to this program's dynamic counts. *)

val programs : weighting:Weighting.t -> prepared list ->
  Pf_fits.Synthesis.program list
(** The weighted synthesis inputs for {!Pf_fits.Synthesis.synthesize_suite}. *)

val merged_profile : ?weighting:Weighting.t -> prepared list -> Pf_fits.Profile.t
(** The suite's merged profile: each program's profile scaled by its
    weight and folded with {!Pf_fits.Profile.merge_all}.  Defaults to
    [Dyn_count]. *)

(** Per-program coverage of a shared spec, measured by translating the
    program under it. *)
type coverage = {
  cov_name : string;
  static_map_pct : float;   (** ARM insns mapped 1-to-1, static *)
  dyn_map_pct : float;      (** same, weighted by execution counts *)
  code_bytes_fits : int;
  code_saving_pct : float;
  dict_entries : int;       (** dictionary after per-program extension *)
  spilled_imms : int;
      (** entries this program added beyond the shared dictionary — the
          reloadable per-program tail of §3.1 *)
}

type shared = {
  spec : Pf_fits.Spec.t;
  synthesis : Pf_fits.Synthesis.result;
  weighting : Weighting.t;
  coverage : coverage list;  (** one per input program, in input order *)
}

val default_dict_budget : int
(** Shared-dictionary budget used by {!synthesize_shared}:
    [Spec.dict_capacity - 64], leaving a 64-entry reloadable tail for
    values an individual program (including a held-out one) still needs
    at translation time. *)

val coverage_of : shared_dict_entries:int -> Pf_fits.Spec.t -> prepared -> coverage

val synthesize_shared :
  ?weighting:Weighting.t -> ?dict_budget:int -> prepared list -> shared
(** One ISA for the whole suite: weighted sites from every program feed a
    single {!Pf_fits.Synthesis.synthesize_suite} run, then every program
    is translated under the resulting spec to measure its coverage.
    Defaults: [Dyn_count] weighting, {!default_dict_budget}.
    @raise Pf_util.Sim_error.Error if the weighting does not validate
    against the suite's names. *)

val coverage_table : shared -> string
(** Human-readable per-program coverage table with a summary banner. *)
