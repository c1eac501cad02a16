module R = Pf_mibench.Registry
module P = Pf_fits.Profile
module X = Pf_dse.Explore

type prepared = {
  bench : R.benchmark;
  image : Pf_arm.Image.t;
  dyn_counts : int array;
  profile : P.t;
  reference_output : string;
}

let name p = p.bench.R.name

let of_recording (r : X.recording) =
  let image = r.X.arm.X.image and dyn_counts = X.dyn_counts r in
  {
    bench = r.X.bench;
    image;
    dyn_counts;
    profile = P.of_image_counts image ~counts:dyn_counts;
    reference_output = r.X.arm.X.arm_result.Pf_cpu.Arm_run.output;
  }

(* Keep the prepared view and the ARM16 result; the trace is dropped as
   soon as its counts are taken. *)
let prepare ?scale ?max_steps b =
  let r = X.record_arm ?scale ?max_steps b in
  (of_recording r, r.X.arm.X.arm_result)

let multiplier weighting p =
  Weighting.multiplier weighting ~name:(name p)
    ~dyn_insns:p.profile.P.dyn_insns

let programs ~weighting ps =
  List.map
    (fun p ->
      {
        Pf_fits.Synthesis.p_image = p.image;
        p_dyn_counts = p.dyn_counts;
        p_mult = multiplier weighting p;
      })
    ps

let merged_profile ?(weighting = Weighting.Dyn_count) ps =
  P.merge_all (List.map (fun p -> P.scale p.profile (multiplier weighting p)) ps)

(* ---- per-program coverage under a shared spec -------------------------- *)

type coverage = {
  cov_name : string;
  static_map_pct : float;
  dyn_map_pct : float;
  code_bytes_fits : int;
  code_saving_pct : float;
  dict_entries : int;
  spilled_imms : int;
}

(* Execution-count-weighted 1-to-1 rate, computed from the translation's
   group structure and the recorded per-word counts: every execution of a
   source instruction takes the same mapping, so this equals what a full
   simulation under the spec measures dynamically. *)
let dyn_map_pct_of (tr : Pf_fits.Translate.t) ~(image : Pf_arm.Image.t)
    ~dyn_counts =
  let base = image.Pf_arm.Image.code_base in
  let one = ref 0 and total = ref 0 in
  Array.iter
    (fun (fi : Pf_fits.Translate.finsn) ->
      if fi.Pf_fits.Translate.first then begin
        let idx = (fi.Pf_fits.Translate.src_pc - base) / 4 in
        let d =
          if idx >= 0 && idx < Array.length dyn_counts then dyn_counts.(idx)
          else 0
        in
        total := !total + d;
        if fi.Pf_fits.Translate.group_len = 1 then one := !one + d
      end)
    tr.Pf_fits.Translate.insns;
  if !total = 0 then 0.0
  else 100.0 *. float_of_int !one /. float_of_int !total

let coverage_of ~shared_dict_entries spec (p : prepared) =
  let tr = Pf_fits.Translate.translate spec p.image in
  let dict_entries =
    Array.length tr.Pf_fits.Translate.spec.Pf_fits.Spec.dict
  in
  {
    cov_name = name p;
    static_map_pct = Pf_fits.Translate.static_mapping_rate tr;
    dyn_map_pct = dyn_map_pct_of tr ~image:p.image ~dyn_counts:p.dyn_counts;
    code_bytes_fits =
      tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits;
    code_saving_pct = Pf_fits.Translate.code_size_saving tr;
    dict_entries;
    spilled_imms = max 0 (dict_entries - shared_dict_entries);
  }

(* ---- shared-ISA synthesis ---------------------------------------------- *)

type shared = {
  spec : Pf_fits.Spec.t;
  synthesis : Pf_fits.Synthesis.result;
  weighting : Weighting.t;
  coverage : coverage list;
}

(* Leave a 64-entry reloadable tail for the values an individual program
   (including one outside the synthesis set) still needs at translation
   time — the §3.1 data-plane reload headroom. *)
let default_dict_budget = Pf_fits.Spec.dict_capacity - 64

let synthesize_shared ?(weighting = Weighting.Dyn_count)
    ?(dict_budget = default_dict_budget) ps =
  Weighting.validate weighting ~names:(List.map name ps);
  let syn =
    Pf_fits.Synthesis.synthesize_suite ~dict_budget (programs ~weighting ps)
  in
  let spec = syn.Pf_fits.Synthesis.spec in
  let shared_dict_entries = Array.length spec.Pf_fits.Spec.dict in
  {
    spec;
    synthesis = syn;
    weighting;
    coverage = List.map (coverage_of ~shared_dict_entries spec) ps;
  }

let coverage_table sh =
  let rows =
    List.map
      (fun c ->
        [
          c.cov_name;
          Pf_util.Table.pct c.static_map_pct;
          Pf_util.Table.pct c.dyn_map_pct;
          string_of_int c.code_bytes_fits;
          Pf_util.Table.pct c.code_saving_pct;
          string_of_int c.dict_entries;
          string_of_int c.spilled_imms;
        ])
      sh.coverage
  in
  Printf.sprintf
    "shared ISA (%s weighting): %d AIS opcodes, %d dictionary entries, %d \
     spilled at synthesis\n%s"
    (Weighting.to_string sh.weighting)
    (List.length sh.synthesis.Pf_fits.Synthesis.ais)
    (Array.length sh.spec.Pf_fits.Spec.dict)
    sh.synthesis.Pf_fits.Synthesis.dict_spilled
    (Pf_util.Table.render
       ~header:
         [
           "program"; "static 1-1 %"; "dyn 1-1 %"; "code B"; "code sav %";
           "dict"; "spilled";
         ]
       rows)
