module E = Pf_harness.Experiment
module F = Pf_harness.Figures

type isa = Per_app | Shared | Loo

let isa_label = function
  | Per_app -> "per-app"
  | Shared -> "shared"
  | Loo -> "LOO"

type cell = {
  cell_isa : isa;
  fits16 : E.per_config;
  fits8 : E.per_config;
  static_map_pct : float;
  dyn_map_pct : float;
  code_fits : int;
  dict_entries : int;
  spilled_imms : int;
  output_ok : bool;
}

(* One (program, spec) evaluation: translate under the spec, execute the
   FITS16 configuration recording a trace, replay it through the 8 KB
   cache, and cross-check both outputs against the profiling reference.
   [spilled_imms] counts the dictionary entries translation had to append
   beyond the spec's own dictionary — the per-program reloadable tail. *)
let eval_cell ~isa spec (p : Suite.prepared) =
  let tr = Pf_fits.Translate.translate spec p.Suite.image in
  let trace = Pf_cpu.Trace.create ~isize:2 () in
  let r16 = Pf_fits.Run.run ~cache_cfg:E.cache_16k ~trace tr in
  let r8 = Pf_fits.Run.replay ~cache_cfg:E.cache_8k ~like:r16 tr trace in
  let dict_entries =
    Array.length tr.Pf_fits.Translate.spec.Pf_fits.Spec.dict
  in
  {
    cell_isa = isa;
    fits16 = E.of_fits r16;
    fits8 = E.of_fits r8;
    static_map_pct = Pf_fits.Translate.static_mapping_rate tr;
    dyn_map_pct = r16.Pf_fits.Run.dyn_one_to_one_pct;
    code_fits =
      tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits;
    dict_entries;
    spilled_imms =
      max 0 (dict_entries - Array.length spec.Pf_fits.Spec.dict);
    output_ok =
      r16.Pf_fits.Run.output = p.Suite.reference_output
      && r8.Pf_fits.Run.output = p.Suite.reference_output;
  }

type row = {
  r_bench : string;
  r_category : string;
  r_code_arm : int;
  r_arm16 : E.per_config;
  r_per_app : cell;
  r_shared : cell;
  r_loo : cell option;
}

type row_outcome = {
  ro_bench : string;
  ro_outcome : (row, Pf_util.Sim_error.t) result;
}

type campaign = {
  c_shared : Suite.shared;
  c_rows : row_outcome list;
  c_completed : int;
  c_total : int;
  c_jobs : int;
  c_loo : bool;
}

let loo_spec ~weighting ~dict_budget ps held_out =
  let rest = List.filter (fun q -> Suite.name q <> held_out) ps in
  let syn =
    Pf_fits.Synthesis.synthesize_suite ~dict_budget
      (Suite.programs ~weighting rest)
  in
  syn.Pf_fits.Synthesis.spec

let run ?(weighting = Weighting.Dyn_count)
    ?(dict_budget = Suite.default_dict_budget) ?(loo = false) ?scale ?jobs
    benches =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Pf_util.Pool.default_jobs ()
  in
  let ps = Suite.prepare ?scale ~jobs benches in
  let shared = Suite.synthesize_shared ~weighting ~dict_budget ps in
  (* Leave-one-out specs are synthesized in parallel: each is a fresh
     suite synthesis over the other programs, with the same weighting and
     dictionary budget as the full-suite spec.  Weighting validation is
     deliberately skipped here — a Custom scheme still (correctly) names
     the held-out program. *)
  let loo_specs =
    if not loo then List.map (fun _ -> None) ps
    else
      Pf_util.Pool.map ~jobs
        (fun p ->
          Some (loo_spec ~weighting ~dict_budget ps (Suite.name p)))
        ps
  in
  let rows =
    Pf_util.Pool.map ~jobs
      (fun (p, lspec) ->
        let bench = Suite.name p in
        let outcome =
          Pf_util.Sim_error.protect ~where:("multi." ^ bench) (fun () ->
              let syn =
                Pf_fits.Synthesis.synthesize p.Suite.image
                  ~dyn_counts:p.Suite.dyn_counts
              in
              let arm16_r =
                Pf_cpu.Arm_run.run ~cache_cfg:E.cache_16k p.Suite.image
              in
              let per_app =
                eval_cell ~isa:Per_app syn.Pf_fits.Synthesis.spec p
              in
              let shared_c = eval_cell ~isa:Shared shared.Suite.spec p in
              let loo_c = Option.map (fun s -> eval_cell ~isa:Loo s p) lspec in
              {
                r_bench = bench;
                r_category = p.Suite.bench.Pf_mibench.Registry.category;
                r_code_arm = Pf_arm.Image.code_size_bytes p.Suite.image;
                r_arm16 = E.of_arm arm16_r;
                r_per_app = per_app;
                r_shared = shared_c;
                r_loo = loo_c;
              })
        in
        { ro_bench = bench; ro_outcome = outcome })
      (List.combine ps loo_specs)
  in
  let completed =
    List.fold_left
      (fun c r -> if Result.is_ok r.ro_outcome then c + 1 else c)
      0 rows
  in
  {
    c_shared = shared;
    c_rows = rows;
    c_completed = completed;
    c_total = List.length rows;
    c_jobs = jobs;
    c_loo = loo;
  }

let ok_rows c =
  List.filter_map
    (fun r -> match r.ro_outcome with Ok row -> Some row | Error _ -> None)
    c.c_rows

let failed c =
  List.filter_map
    (fun r ->
      match r.ro_outcome with
      | Ok _ -> None
      | Error e -> Some (r.ro_bench, Pf_util.Sim_error.to_string e))
    c.c_rows

let divergent c =
  List.filter_map
    (fun row ->
      let cells =
        row.r_per_app :: row.r_shared
        :: (match row.r_loo with Some l -> [ l ] | None -> [])
      in
      if List.for_all (fun cl -> cl.output_ok) cells then None
      else Some row.r_bench)
    (ok_rows c)

(* ---- reporting --------------------------------------------------------- *)

let avg_power (p : E.per_config) =
  p.E.power.Pf_power.Account.total /. float_of_int p.E.cycles

(* FITS8 total I-cache power saving vs the program's own ARM16 baseline —
   the figure-11 metric, which is where a shared ISA's degradation shows. *)
let power_saving_pct row cl =
  Pf_util.Stats.saving ~baseline:(avg_power row.r_arm16) (avg_power cl.fits8)

let table c =
  let cell_rows row =
    let one cl =
      [
        row.r_bench;
        isa_label cl.cell_isa;
        string_of_int cl.code_fits;
        Pf_util.Table.pct cl.static_map_pct;
        Pf_util.Table.pct cl.dyn_map_pct;
        Printf.sprintf "%.0f" cl.fits8.E.miss_rate_pm;
        Pf_util.Table.f2 cl.fits8.E.ipc;
        Pf_util.Table.pct (power_saving_pct row cl);
        (if cl.output_ok then "ok" else "DIVERGED");
      ]
    in
    one row.r_per_app :: one row.r_shared
    :: (match row.r_loo with Some l -> [ one l ] | None -> [])
  in
  Pf_util.Table.render
    ~header:
      [
        "benchmark"; "ISA"; "code B"; "static 1-1 %"; "dyn 1-1 %";
        "miss/M (8K)"; "IPC (8K)"; "pwr sav %"; "output";
      ]
    (List.concat_map cell_rows (ok_rows c))

let mean_saving rows select =
  Pf_util.Stats.mean
    (List.filter_map
       (fun row ->
         Option.map (fun cl -> power_saving_pct row cl) (select row))
       rows)

let summary c =
  let rows = ok_rows c in
  let b = Buffer.create 256 in
  if rows = [] then Buffer.add_string b "no completed rows"
  else begin
    let per_app = mean_saving rows (fun r -> Some r.r_per_app) in
    let shared = mean_saving rows (fun r -> Some r.r_shared) in
    Printf.bprintf b
      "mean FITS8 I-cache power saving vs ARM16: per-app %.1f %%, shared \
       %.1f %% (%.1f pp cost of generality)"
      per_app shared (per_app -. shared);
    if c.c_loo then begin
      let loo = mean_saving rows (fun r -> r.r_loo) in
      Printf.bprintf b
        ", leave-one-out %.1f %% (%.1f pp vs per-app)" loo (per_app -. loo)
    end
  end;
  Buffer.contents b

let banner c =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d of %d programs evaluated (jobs=%d, %s weighting%s)"
    c.c_completed c.c_total c.c_jobs
    (Weighting.to_string c.c_shared.Suite.weighting)
    (if c.c_loo then ", with leave-one-out" else "");
  List.iter
    (fun (name, err) -> Printf.bprintf b "\n  %s: FAILED %s" name err)
    (failed c);
  List.iter
    (fun name -> Printf.bprintf b "\n  %s: OUTPUT DIVERGED" name)
    (divergent c);
  Buffer.contents b

let figures c =
  let rows = ok_rows c in
  let series =
    "per-app" :: "shared"
    :: (if c.c_loo then [ "LOO" ] else [])
  in
  let per_row f row =
    let vals =
      f row row.r_per_app :: f row row.r_shared
      :: (match row.r_loo with Some l -> [ f row l ] | None -> [])
    in
    (row.r_bench, vals)
  in
  let fig ~id ~title ~unit_ f =
    F.make ~id ~title ~unit_ ~series (List.map (per_row f) rows)
  in
  [
    fig ~id:"multi-code" ~title:"Code size footprint (normalized to ARM)"
      ~unit_:"%" (fun row cl ->
        100.0 *. float_of_int cl.code_fits /. float_of_int row.r_code_arm);
    fig ~id:"multi-power" ~title:"Total I-cache power saving (FITS8 vs ARM16)"
      ~unit_:"%" power_saving_pct;
    fig ~id:"multi-miss" ~title:"I-cache miss rate (FITS8)"
      ~unit_:"misses/M accesses" (fun _ cl -> cl.fits8.E.miss_rate_pm);
    fig ~id:"multi-ipc" ~title:"Instructions per cycle (FITS8)" ~unit_:"IPC"
      (fun _ cl -> cl.fits8.E.ipc);
  ]
