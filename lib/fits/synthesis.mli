(** Instruction-set synthesis: the "synthesize" stage of Figure 1.

    Given an image and its dynamic execution weights, construct the
    application's FITS specification:

    + collect the immediate-dictionary head (the 16 hottest operate
      immediates, per the utilization-based heuristic of §3.3) and the
      register-list table;
    + start from the fixed BIS/SIS base ({!Spec.base});
    + generate application-specific candidates from every instruction the
      base does not cover: three-operand forms, shift-baked forms,
      literal/dictionary immediate variants, extra addressing modes, and
      predicated variants;
    + greedily allocate the remaining opcode groups and sub-op slots by
      benefit = (dynamic weight + smoothed static weight) x (expansion
      length - 1), re-evaluating as coverage changes;
    + extend the dictionary with every value the final translation plans
      will need. *)

type result = {
  spec : Spec.t;
  ais : Spec.opdef list;            (** the allocated AIS, in pick order *)
  candidates_considered : int;
  datapath_off : float;
      (** estimated fraction of non-cache chip power removed by
          deactivating datapath units the synthesized ISA never maps
          (paper §3.2); feeds {!Pf_power.Chip}. *)
  dict_spilled : int;
      (** required dictionary values dropped to respect [dict_budget]
          (always 0 without a budget); spilled values fall back to the
          per-program reloadable dictionary tail at translation time *)
}

(** One weighted program of a multi-program synthesis.  [p_mult] is an
    integer multiplier applied to every dynamic count of this program
    ({!Pf_multi.Weighting} computes it from the suite weighting scheme);
    1 leaves raw dynamic-instruction counts. *)
type program = {
  p_image : Pf_arm.Image.t;
  p_dyn_counts : int array;
  p_mult : int;
}

val synthesize :
  ?static_weight:float ->
  ?ais_groups:int ->
  ?dict_head:int ->
  ?allow_two_op_ais:bool ->
  Pf_arm.Image.t ->
  dyn_counts:int array ->
  result
(** [dyn_counts] gives the execution count of each code word (as produced
    by {!dyn_counts_of_run} or {!Pf_cpu.Trace.exec_counts}, or all zeros
    for static-only synthesis).  [static_weight] scales how much code size
    matters relative to dynamic frequency (default 1.0 = one average
    dynamic instruction per static occurrence).

    Ablation knobs: [ais_groups] (0-5) limits the free opcode groups the
    AIS may claim; [dict_head] (0-16) limits the directly-indexable
    dictionary entries; [allow_two_op_ais] disables the two-operand
    sub-op candidates of the S3.3 heuristic. *)

val synthesize_suite :
  ?static_weight:float ->
  ?ais_groups:int ->
  ?dict_head:int ->
  ?allow_two_op_ais:bool ->
  ?dict_budget:int ->
  program list ->
  result
(** Multi-program synthesis: one shared specification covering every
    program of the suite.  Candidate sites from all images enter one
    merged pool (each with its own literal-pool context), the benefit
    function weights each site by [p_mult × dyn], and the dictionary head
    and register-list table are collected suite-wide.  With a single
    program and [p_mult = 1] this is exactly {!synthesize} (which is
    implemented on top of it).

    [dict_budget] caps the shared dictionary (head + suite extension):
    when the union of required values exceeds it, the hottest values are
    kept and the rest are reported in {!result.dict_spilled} instead of
    raising — spilled values land in the per-program reloadable tail when
    that program is translated.  Without [dict_budget], overflow beyond
    {!Spec.dict_capacity} raises [Mapping.Unmappable] as in the
    per-application flow. *)

val data_plane :
  Pf_arm.Image.t -> dyn_counts:int array -> int array * Pf_arm.Insn.reg list array
(** The per-application decoder *data* (dictionary head, register-list
    table) without any opcode synthesis — what a deployed FITS part would
    reload when its application is upgraded (§3.1).  Combine with
    {!Spec.with_data_plane} to study cross-application ISA reuse. *)

val dyn_counts_of_run :
  ?max_steps:int -> ?deadline:Pf_util.Deadline.t -> Pf_arm.Image.t ->
  int array * string
(** Execute once, returning per-word execution counts and the program
    output. *)

type flow = {
  syn : result;
  tr : Translate.t;  (** the image translated under [syn.spec] *)
  output : string;   (** the counting run's program output *)
}

val flow :
  ?max_steps:int -> ?deadline:Pf_util.Deadline.t -> Pf_arm.Image.t -> flow
(** The per-application flow at default options: one counting run
    ({!dyn_counts_of_run}, bounded by [max_steps] and [deadline]),
    {!synthesize} over its counts, and {!Translate.translate} of the
    image under the synthesized spec. *)
