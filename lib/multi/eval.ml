module E = Pf_harness.Experiment
module F = Pf_harness.Figures
module X = Pf_dse.Explore

type isa = Per_app | Shared | Loo

let isa_label = function
  | Per_app -> "per-app"
  | Shared -> "shared"
  | Loo -> "LOO"

type cell = {
  cell_isa : isa;
  fits8 : E.per_config;
  static_map_pct : float;
  dyn_map_pct : float;
  code_fits : int;
  dict_entries : int;
  spilled_imms : int;
  reload_bits : int;
  output_ok : bool;
}

(* One (program, spec) evaluation: translate under the spec, run the
   FITS8 configuration once, and cross-check its output against the
   profiling reference.  [spilled_imms] counts the dictionary entries
   translation had to append beyond the spec's own dictionary — the
   per-program reloadable tail, whose size in bits is [reload_bits]. *)
let eval_cell ?max_steps ~isa spec (p : Suite.prepared) =
  let tr = Pf_fits.Translate.translate spec p.Suite.image in
  let r8 = Pf_fits.Run.run ~cache_cfg:E.cache_8k ?max_steps tr in
  let dict_entries =
    Array.length tr.Pf_fits.Translate.spec.Pf_fits.Spec.dict
  in
  {
    cell_isa = isa;
    fits8 = X.metrics_of_fits E.cache_8k r8;
    static_map_pct = Pf_fits.Translate.static_mapping_rate tr;
    dyn_map_pct = r8.Pf_fits.Run.dyn_one_to_one_pct;
    code_fits =
      tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits;
    dict_entries;
    spilled_imms =
      max 0 (dict_entries - Array.length spec.Pf_fits.Spec.dict);
    reload_bits =
      tr.Pf_fits.Translate.reload.Pf_fits.Translate.reload_bits;
    output_ok = r8.Pf_fits.Run.output = p.Suite.reference_output;
  }

type row = {
  r_bench : string;
  r_prepared : Suite.prepared;
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

(* Weighting validation is deliberately skipped here: a Custom scheme
   still (correctly) names the held-out program. *)
let loo_spec ~weighting ~dict_budget ps held_out =
  let rest = List.filter (fun q -> Suite.name q <> held_out) ps in
  let syn =
    Pf_fits.Synthesis.synthesize_suite ~dict_budget
      (Suite.programs ~weighting rest)
  in
  syn.Pf_fits.Synthesis.spec

let run ?(weighting = Weighting.Dyn_count)
    ?(dict_budget = Suite.default_dict_budget) ?(loo = false) ?scale
    ?max_steps ?jobs benches =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Pf_util.Pool.default_jobs ()
  in
  let protect (b : Pf_mibench.Registry.benchmark) f =
    Pf_util.Sim_error.protect ~where:("multi." ^ b.Pf_mibench.Registry.name) f
  in
  (* A program whose preparation fails is a failed row; the shared and
     leave-one-out syntheses read only the programs that prepared. *)
  let prepared =
    Pf_util.Pool.map ~jobs
      (fun b -> protect b (fun () -> Suite.prepare ?scale ?max_steps b))
      benches
  in
  let ps =
    List.filter_map
      (function Ok (p, _) -> Some p | Error _ -> None)
      prepared
  in
  if ps = [] then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
      ~where:"multi.eval" "none of the %d programs prepared"
      (List.length benches);
  let shared = Suite.synthesize_shared ~weighting ~dict_budget ps in
  let rows =
    Pf_util.Pool.map ~jobs
      (fun (b, prep) ->
        let outcome =
          Result.bind prep (fun (p, arm16_r) ->
              protect b (fun () ->
                  let cell isa spec = eval_cell ?max_steps ~isa spec p in
                  let syn =
                    Pf_fits.Synthesis.synthesize p.Suite.image
                      ~dyn_counts:p.Suite.dyn_counts
                  in
                  {
                    r_bench = Suite.name p;
                    r_prepared = p;
                    r_arm16 = X.metrics_of_arm E.cache_16k arm16_r;
                    r_per_app = cell Per_app syn.Pf_fits.Synthesis.spec;
                    r_shared = cell Shared shared.Suite.spec;
                    r_loo =
                      (if loo then
                         Some
                           (cell Loo
                              (loo_spec ~weighting ~dict_budget ps
                                 (Suite.name p)))
                       else None);
                  }))
        in
        { ro_bench = b.Pf_mibench.Registry.name; ro_outcome = outcome })
      (List.combine benches prepared)
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

let avg_power (p : E.per_config) = Pf_power.Account.avg_power p.E.power

(* FITS8 total I-cache power saving vs the program's own ARM16 baseline —
   the figure-11 metric, which is where a shared ISA's degradation shows. *)
let power_saving_pct row cl =
  Pf_util.Stats.saving ~baseline:(avg_power row.r_arm16) (avg_power cl.fits8)

(* Each program's coverage of the shared spec is its shared cell: the
   translation measured there, and a dynamic 1-to-1 rate that the FITS8
   run counts over the executed stream. *)
let coverage_table c =
  let sh = c.c_shared in
  let rows =
    List.map
      (fun row ->
        let cl = row.r_shared in
        let code_arm =
          Pf_arm.Image.code_size_bytes row.r_prepared.Suite.image
        in
        [
          row.r_bench;
          Pf_util.Table.pct cl.static_map_pct;
          Pf_util.Table.pct cl.dyn_map_pct;
          string_of_int cl.code_fits;
          Pf_util.Table.pct
            (Pf_util.Stats.saving ~baseline:(float_of_int code_arm)
               (float_of_int cl.code_fits));
          string_of_int cl.dict_entries;
          string_of_int cl.spilled_imms;
        ])
      (ok_rows c)
  in
  Printf.sprintf
    "shared ISA (%s weighting): %d AIS opcodes, %d dictionary entries, %d \
     spilled at synthesis\n%s"
    (Weighting.to_string sh.Suite.weighting)
    (List.length sh.Suite.synthesis.Pf_fits.Synthesis.ais)
    (Array.length sh.Suite.spec.Pf_fits.Spec.dict)
    sh.Suite.synthesis.Pf_fits.Synthesis.dict_spilled
    (Pf_util.Table.render
       ~header:
         [
           "program"; "static 1-1 %"; "dyn 1-1 %"; "code B"; "code sav %";
           "dict"; "spilled";
         ]
       rows)

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
        100.0 *. float_of_int cl.code_fits
        /. float_of_int
             (Pf_arm.Image.code_size_bytes row.r_prepared.Suite.image));
    fig ~id:"multi-power" ~title:"Total I-cache power saving (FITS8 vs ARM16)"
      ~unit_:"%" power_saving_pct;
    fig ~id:"multi-miss" ~title:"I-cache miss rate (FITS8)"
      ~unit_:"misses/M accesses" (fun _ cl -> cl.fits8.E.miss_rate_pm);
    fig ~id:"multi-ipc" ~title:"Instructions per cycle (FITS8)" ~unit_:"IPC"
      (fun _ cl -> cl.fits8.E.ipc);
  ]
