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

(* ---- shared-ISA synthesis ---------------------------------------------- *)

type shared = {
  spec : Pf_fits.Spec.t;
  synthesis : Pf_fits.Synthesis.result;
  weighting : Weighting.t;
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
  { spec = syn.Pf_fits.Synthesis.spec; synthesis = syn; weighting }
