(* Population campaign: generate -> one multi-program campaign over the
   generated programs (Pf_multi.Eval: prepare-once, shared synthesis,
   per-app and shared cells) -> degradation distribution, with optional
   phase-adaptive data-plane resynthesis on top.  Everything derived is a
   pure function of (count, seed, dict_budget, max_steps, adaptive); rows
   run on the Domain pool and come back in input order, so reports are
   byte-identical for any jobs value. *)

open Pf_util
module E = Pf_multi.Eval

type row = {
  r_index : int;
  r_name : string;
  r_steps : int;
  r_per_app_saving : float;
  r_shared_saving : float;
  r_degradation_pp : float;
  r_static_map_pct : float;
  r_spilled : int;
  r_reload_bits : int;
  r_shared_energy : float;
  r_mix : float array;
  r_output_ok : bool;
}

type distribution = {
  d_mean : float;
  d_p50 : float;
  d_p95 : float;
  d_max : float;
  d_histogram : (float * int) list;
}

type adaptive = {
  a_phases : (int * int) list;
  a_boundaries : int list;
  a_static_energy : float;
  a_adaptive_energy : float;
  a_saving_pct : float;
  a_static_reload_bits : int;
  a_adaptive_reload_bits : int;
}

type t = {
  count : int;
  seed : int;
  jobs : int;
  digest : string;
  calib_max_distance : float;
  calib_report : string;
  shared_dict_entries : int;
  shared_static_map_mean : float;
  rows : row list;
  failures : (int * string) list;
  dist : distribution;
  adaptive_r : adaptive option;
  gen_s : float;
  eval_s : float;
  total_steps : int;
}

let where = "workgen.population"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (float_of_int (n - 1) *. p /. 100.) in
    sorted.(max 0 (min (n - 1) idx))

let bucket_width = 0.5

let histogram values =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun v ->
      let b = int_of_float (Float.floor (v /. bucket_width)) in
      Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    values;
  Hashtbl.fold (fun b c acc -> (float_of_int b *. bucket_width, c) :: acc) tbl []
  |> List.sort compare

let distribution_of values =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  {
    d_mean = Stats.mean (Array.to_list values);
    d_p50 = percentile sorted 50.;
    d_p95 = percentile sorted 95.;
    d_max = (if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1));
    d_histogram = histogram values;
  }

let energy (cell : E.cell) =
  cell.E.fits8.Pf_dse.Explore.power.Pf_power.Account.total

let k_refill_per_bit =
  Pf_power.Account.Params.default.Pf_power.Account.Params.k_refill_per_bit

(* fleet schedule for the adaptive study: order rows by descending
   dynamic memory-op share (ties by index) so behaviourally similar
   workloads arrive clustered — the regime where phase detection pays *)
let schedule_of rows =
  let mem_share ((r : row), _) = r.r_mix.(2) +. r.r_mix.(3) in
  List.sort
    (fun a b ->
      match compare (mem_share b) (mem_share a) with
      | 0 -> compare (fst a).r_index (fst b).r_index
      | c -> c)
    rows

(* [rows] pairs each evaluated row with its prepared program *)
let run_adaptive ?jobs ?dict_budget ?max_steps ~shared_spec rows =
  let sched = Array.of_list (schedule_of rows) in
  let n = Array.length sched in
  let mixes = Array.map (fun ((r : row), _) -> r.r_mix) sched in
  let seg = Phase.segment mixes in
  let extents = Phase.phases seg ~n in
  (* per phase: synthesize that phase's data plane from its members, keep
     the shared opcode plane, re-evaluate members under the reload *)
  let phase_results =
    List.map
      (fun (start, stop) ->
        let members = Array.to_list (Array.sub sched start (stop - start)) in
        let phase_shared =
          Pf_multi.Suite.synthesize_shared ?dict_budget (List.map snd members)
        in
        let pspec = phase_shared.Pf_multi.Suite.spec in
        let phase_spec =
          Pf_fits.Spec.with_data_plane shared_spec
            ~dict:pspec.Pf_fits.Spec.dict
            ~reglists:pspec.Pf_fits.Spec.reglists
        in
        let evals =
          Pool.map ?jobs
            (fun ((r : row), p) ->
              ( r.r_index,
                Sim_error.protect ~where (fun () ->
                    E.eval_cell ?max_steps ~isa:E.Shared phase_spec p) ))
            members
        in
        (phase_spec, evals))
      extents
  in
  (* members that evaluated in the adaptive pass; energy sums compare the
     same row set on both sides *)
  let ok_adaptive = Hashtbl.create n in
  List.iter
    (fun (_, evals) ->
      List.iter
        (fun (idx, r) ->
          match r with
          | Ok cell -> Hashtbl.replace ok_adaptive idx cell
          | Error _ -> ())
        evals)
    phase_results;
  let static_rows =
    List.filter_map
      (fun ((r : row), _) ->
        if Hashtbl.mem ok_adaptive r.r_index then Some r else None)
      rows
  in
  let static_tail_bits =
    List.fold_left (fun acc r -> acc + r.r_reload_bits) 0 static_rows
  in
  let static_reload_bits =
    Pf_fits.Translate.data_plane_bits shared_spec + static_tail_bits
  in
  let static_energy =
    List.fold_left
      (fun acc r -> acc +. r.r_shared_energy)
      (k_refill_per_bit *. float_of_int static_reload_bits)
      static_rows
  in
  let adaptive_table_bits =
    List.fold_left
      (fun acc (phase_spec, _) ->
        acc + Pf_fits.Translate.data_plane_bits phase_spec)
      0 phase_results
  in
  let adaptive_tail_bits =
    Hashtbl.fold
      (fun _ (cell : E.cell) acc -> acc + cell.E.reload_bits)
      ok_adaptive 0
  in
  let adaptive_reload_bits = adaptive_table_bits + adaptive_tail_bits in
  let adaptive_energy =
    Hashtbl.fold
      (fun _ (cell : E.cell) acc -> acc +. energy cell)
      ok_adaptive
      (k_refill_per_bit *. float_of_int adaptive_reload_bits)
  in
  {
    a_phases = extents;
    a_boundaries = seg.Phase.boundaries;
    a_static_energy = static_energy;
    a_adaptive_energy = adaptive_energy;
    a_saving_pct = Stats.saving ~baseline:static_energy adaptive_energy;
    a_static_reload_bits = static_reload_bits;
    a_adaptive_reload_bits = adaptive_reload_bits;
  }

(* A population row is a projection of the campaign row at [index]: the
   savings, the shared cell's mapping, tail and energy, and the opcode
   mix of the prepared program's profile. *)
let row_of index (c : E.row) =
  let per_app = E.power_saving_pct c c.E.r_per_app
  and shared = E.power_saving_pct c c.E.r_shared in
  let sh = c.E.r_shared in
  let insns (m : Pf_dse.Explore.metrics) = m.Pf_dse.Explore.instructions in
  {
    r_index = index;
    r_name = c.E.r_bench;
    r_steps =
      insns c.E.r_arm16 + insns c.E.r_per_app.E.fits8 + insns sh.E.fits8;
    r_per_app_saving = per_app;
    r_shared_saving = shared;
    r_degradation_pp = per_app -. shared;
    r_static_map_pct = sh.E.static_map_pct;
    r_spilled = sh.E.spilled_imms;
    r_reload_bits = sh.E.reload_bits;
    r_shared_energy = energy sh;
    r_mix = Phase.mix_of_profile c.E.r_prepared.Pf_multi.Suite.profile;
    r_output_ok = c.E.r_per_app.E.output_ok && sh.E.output_ok;
  }

let run ?jobs ?dict_budget ?max_steps ?(adaptive = false) ~count ~seed () =
  if count < 1 then
    Sim_error.raisef Sim_error.Invalid_config ~where
      "population count must be positive (got %d)" count;
  let model = Calibrate.reference () in
  let t0 = Unix.gettimeofday () in
  let programs =
    Pool.map ?jobs
      (fun index -> Generate.program ~model ~seed ~index)
      (List.init count Fun.id)
  in
  let digest = Generate.digest programs in
  let feats =
    Calibrate.merge_all (List.map Calibrate.features_of_program programs)
  in
  let calib_max_distance = Calibrate.max_distance ~reference:model feats in
  let calib_report = Calibrate.report ~reference:model feats in
  let t1 = Unix.gettimeofday () in
  let campaign =
    E.run ?dict_budget ?max_steps ?jobs
      (List.mapi
         (fun index program ->
           Pf_mibench.Registry.of_program ~category:"generated"
             (Generate.name ~index) program)
         programs)
  in
  let evaluated, failures =
    List.mapi
      (fun index ro ->
        match ro.E.ro_outcome with
        | Ok c -> Either.Left (row_of index c, c.E.r_prepared)
        | Error e -> Either.Right (index, Sim_error.to_string e))
      campaign.E.c_rows
    |> List.partition_map Fun.id
  in
  let rows = List.map fst evaluated in
  let dist =
    distribution_of
      (Array.of_list (List.map (fun r -> r.r_degradation_pp) rows))
  in
  let shared_spec = campaign.E.c_shared.Pf_multi.Suite.spec in
  let adaptive_r =
    if adaptive && rows <> [] then
      Some (run_adaptive ?jobs ?dict_budget ?max_steps ~shared_spec evaluated)
    else None
  in
  let eval_s = Unix.gettimeofday () -. t1 in
  {
    count;
    seed;
    jobs = campaign.E.c_jobs;
    digest;
    calib_max_distance;
    calib_report;
    shared_dict_entries = Array.length shared_spec.Pf_fits.Spec.dict;
    shared_static_map_mean =
      Stats.mean (List.map (fun r -> r.r_static_map_pct) rows);
    rows;
    failures;
    dist;
    adaptive_r;
    gen_s = t1 -. t0;
    eval_s;
    total_steps = List.fold_left (fun acc r -> acc + r.r_steps) 0 rows;
  }

(* ---------- deterministic report ---------- *)

let report (t : t) =
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "population: %d programs requested, seed %d\n" t.count t.seed;
  pr "population digest: %s\n" t.digest;
  pr "%s" t.calib_report;
  pr "shared ISA: %d dictionary entries, mean static 1-to-1 map %.2f%%\n"
    t.shared_dict_entries t.shared_static_map_mean;
  pr "evaluated rows: %d ok, %d failed\n" (List.length t.rows)
    (List.length t.failures);
  pr "shared-ISA degradation (per-app minus shared FITS8 power saving, pp):\n";
  pr "  mean %.3f  p50 %.3f  p95 %.3f  max %.3f\n" t.dist.d_mean t.dist.d_p50
    t.dist.d_p95 t.dist.d_max;
  let peak =
    List.fold_left (fun acc (_, c) -> max acc c) 1 t.dist.d_histogram
  in
  List.iter
    (fun (lo, c) ->
      let bar = String.make (max 1 (c * 40 / peak)) '#' in
      pr "  [%6.2f, %6.2f)  %6d  %s\n" lo (lo +. bucket_width) c bar)
    t.dist.d_histogram;
  let worst =
    List.sort
      (fun a b ->
        match compare b.r_degradation_pp a.r_degradation_pp with
        | 0 -> compare a.r_index b.r_index
        | c -> c)
      t.rows
  in
  pr "worst rows by degradation:\n";
  pr "  %-12s %8s %8s %8s %7s %6s %9s\n" "name" "perapp%" "shared%" "degr.pp"
    "map%" "spill" "reload(b)";
  List.iteri
    (fun i r ->
      if i < 10 then
        pr "  %-12s %8.3f %8.3f %8.3f %7.2f %6d %9d\n" r.r_name
          r.r_per_app_saving r.r_shared_saving r.r_degradation_pp
          r.r_static_map_pct r.r_spilled r.r_reload_bits)
    worst;
  if t.failures <> [] then begin
    pr "failed rows:\n";
    List.iter (fun (i, e) -> pr "  %06d: %s\n" i e) t.failures
  end;
  (match t.adaptive_r with
  | None -> ()
  | Some a ->
      pr "adaptive resynthesis (phase-structured schedule):\n";
      pr "  phases: %d  boundaries at: %s\n" (List.length a.a_phases)
        (if a.a_boundaries = [] then "-"
         else String.concat ", " (List.map string_of_int a.a_boundaries));
      pr "  static:   energy %.1f (reload %d bits charged)\n" a.a_static_energy
        a.a_static_reload_bits;
      pr "  adaptive: energy %.1f (reload %d bits charged)\n"
        a.a_adaptive_energy a.a_adaptive_reload_bits;
      pr "  adaptive saving over static: %.3f%%\n" a.a_saving_pct);
  let diverged = List.filter (fun r -> not r.r_output_ok) t.rows in
  if diverged <> [] then
    pr "DIVERGENT OUTPUT on %d rows: %s\n" (List.length diverged)
      (String.concat ", " (List.map (fun r -> r.r_name) diverged));
  Buffer.contents buf
