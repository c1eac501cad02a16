(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation (§6, Figures 3-14) and the abstract headline, runs the
   DESIGN.md §5 ablations, checks that the reported rates are stable
   under input scaling, and measures cross-application ISA reuse.

   Figures print the same rows/series the paper reports: one row per
   benchmark, one column per configuration, plus the suite average quoted
   in the text.  Paper-vs-measured numbers are tracked in EXPERIMENTS.md.
   Simulator speed is measured by perfbench/ (BENCHMARK.json), not here.

     main.exe [--jobs N]     worker domains for the figures sweep *)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* `--jobs N` fails like the CLI's on a malformed or non-positive count
   (a structured Invalid_config, exit 2) instead of quietly running with
   the default; any other argument is a usage error. *)
let jobs =
  let parse s =
    try
      match int_of_string_opt s with
      | Some j -> Pf_util.Pool.validate_jobs ~where:"bench" j
      | None ->
          Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
            ~where:"bench" "--jobs expects an integer, got %S" s
    with Pf_util.Sim_error.Error e ->
      prerr_endline (Pf_util.Sim_error.to_string e);
      exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> Pf_util.Pool.default_jobs ()
  | [ ("--jobs" | "-j"); s ] -> parse s
  | [ s ] when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
      parse (String.sub s 7 (String.length s - 7))
  | _ ->
      prerr_endline "usage: main.exe [--jobs N]";
      exit 2

(* ------------------------------------------------------------------ *)
(* Figures 3-14                                                        *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  heading "PowerFITS evaluation figures (21-benchmark suite, scale 1)";
  let t0 = Unix.gettimeofday () in
  let sweep = Pf_harness.Experiment.run_all ~jobs () in
  Printf.printf
    "(simulated %d/%d benchmarks x 4 configurations in %.1f s, jobs=%d)\n"
    sweep.Pf_harness.Experiment.completed sweep.Pf_harness.Experiment.total
    (Unix.gettimeofday () -. t0)
    sweep.Pf_harness.Experiment.jobs;
  Printf.printf "%s\n\n" (Pf_harness.Experiment.banner sweep);
  let all = Pf_harness.Experiment.completed_results sweep in
  List.iter
    (fun (r : Pf_harness.Experiment.bench_result) ->
      if not r.Pf_harness.Experiment.outputs_consistent then
        Printf.printf "OUTPUT MISMATCH on %s\n" r.Pf_harness.Experiment.name)
    all;
  let power = Pf_harness.Experiment.power_rows all in
  List.iter
    (fun f -> print_endline (Pf_harness.Figures.render f))
    (Pf_harness.Figures.mapping_figures all
    @ Pf_harness.Figures.power_figures power);
  (* headline numbers the abstract quotes *)
  heading "abstract headline (FITS8 vs ARM16 averages)";
  let avg get = Pf_util.Stats.mean (List.map get power) in
  let p (c : Pf_harness.Experiment.per_config) =
    c.Pf_harness.Experiment.power
  in
  let saving get (r : Pf_harness.Experiment.bench_result) =
    Pf_util.Stats.saving
      ~baseline:(get r.Pf_harness.Experiment.arm16)
      (get r.Pf_harness.Experiment.fits8)
  in
  Printf.printf "switching saving: %.1f%% (paper: 49.4%%)\n"
    (avg (saving (fun c -> (p c).Pf_power.Account.switching)));
  Printf.printf "internal saving:  %.1f%% (paper: 43.9%%)\n"
    (avg (saving (fun c -> (p c).Pf_power.Account.internal)));
  Printf.printf "leakage saving:   %.1f%% (paper: 14.9%%)\n"
    (avg (saving (fun c -> (p c).Pf_power.Account.leakage)));
  Printf.printf "total cache power saving: %.1f%% (paper: 46.6%%)\n"
    (avg (fun r ->
         let pw (c : Pf_harness.Experiment.per_config) =
           (p c).Pf_power.Account.total
           /. float_of_int c.Pf_harness.Experiment.cycles
         in
         Pf_util.Stats.saving
           ~baseline:(pw r.Pf_harness.Experiment.arm16)
           (pw r.Pf_harness.Experiment.fits8)));
  let peak_max =
    List.fold_left
      (fun acc (r : Pf_harness.Experiment.bench_result) ->
        max acc
          (Pf_util.Stats.saving
             ~baseline:
               (p r.Pf_harness.Experiment.arm16).Pf_power.Account.peak_power
             (p r.Pf_harness.Experiment.fits8).Pf_power.Account.peak_power))
      0.0 power
  in
  Printf.printf
    "peak power saving, best benchmark: %.1f%% (paper: up to 60.3%%)\n"
    peak_max

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5)                                            *)
(* ------------------------------------------------------------------ *)

let ablation_subset = [ "crc32"; "sha"; "jpeg"; "adpcm.decode"; "fft" ]

let build name =
  let b = Pf_mibench.Registry.find name in
  let p = b.Pf_mibench.Registry.program ~scale:1 in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  (image, dyn_counts)

let mapping_with ?ais_groups ?dict_head ?allow_two_op_ais name =
  let image, dyn_counts = build name in
  let syn =
    Pf_fits.Synthesis.synthesize ?ais_groups ?dict_head ?allow_two_op_ais
      image ~dyn_counts
  in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let fits = Pf_fits.Run.run tr in
  ( Pf_fits.Translate.static_mapping_rate tr,
    fits.Pf_fits.Run.dyn_one_to_one_pct,
    Pf_fits.Translate.code_size_saving tr )

let three_col_table ~header ~labels f =
  let rows =
    List.map
      (fun (label, arg) ->
        let stats = List.map (fun n -> f arg n) ablation_subset in
        let avg g = Pf_util.Stats.mean (List.map g stats) in
        [
          label;
          Pf_util.Table.pct (avg (fun (s, _, _) -> s));
          Pf_util.Table.pct (avg (fun (_, d, _) -> d));
          Pf_util.Table.pct (avg (fun (_, _, c) -> c));
        ])
      labels
  in
  print_string (Pf_util.Table.render ~header rows)

let ablation_ais () =
  heading "ablation: AIS opcode-group budget (avg over 5 benchmarks)";
  three_col_table
    ~header:[ "AIS groups"; "static 1-1 %"; "dyn 1-1 %"; "code saving %" ]
    ~labels:(List.map (fun n -> (string_of_int n, n)) [ 0; 1; 2; 3; 4; 5 ])
    (fun groups name -> mapping_with ~ais_groups:groups name)

let ablation_dict () =
  heading "ablation: immediate-dictionary head size";
  three_col_table
    ~header:[ "dict head"; "static 1-1 %"; "dyn 1-1 %"; "code saving %" ]
    ~labels:(List.map (fun n -> (string_of_int n, n)) [ 0; 4; 8; 16 ])
    (fun head name -> mapping_with ~dict_head:head name)

let ablation_two_op () =
  heading "ablation: two-operand AIS sub-ops (the S3.3 heuristic)";
  three_col_table
    ~header:[ "AIS forms"; "static 1-1 %"; "dyn 1-1 %"; "code saving %" ]
    ~labels:[ ("2-op + 3-op", true); ("3-op only", false) ]
    (fun allow name -> mapping_with ~allow_two_op_ais:allow name)

let ablation_fetch_buffer () =
  heading "ablation: fetch-buffer reuse (switching power mechanism)";
  let rows =
    List.map
      (fun name ->
        let image, dyn_counts = build name in
        let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
        let tr =
          Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image
        in
        let arm = Pf_cpu.Arm_run.run image in
        let with_buffer = Pf_fits.Run.run tr in
        let without_buffer =
          Pf_fits.Run.run
            ~pipeline_cfg:
              { Pf_cpu.Pipeline.sa1100 with
                Pf_cpu.Pipeline.fetch_buffer = false }
            tr
        in
        let saving (r : Pf_fits.Run.result) =
          Pf_util.Stats.saving
            ~baseline:arm.Pf_cpu.Arm_run.power.Pf_power.Account.switching
            r.Pf_fits.Run.power.Pf_power.Account.switching
        in
        [
          name;
          Pf_util.Table.pct (saving with_buffer);
          Pf_util.Table.pct (saving without_buffer);
        ])
      ablation_subset
  in
  print_string
    (Pf_util.Table.render
       ~header:
         [ "benchmark"; "sw saving w/ buffer %"; "sw saving w/o buffer %" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Scale robustness                                                     *)
(* ------------------------------------------------------------------ *)

(* DESIGN.md substitutes the paper's ~1 B-instruction runs with small
   inputs, arguing that the reported *rates* are stable under input
   scaling.  Verify it: mapping rates and miss rates across scales. *)
let scale_robustness () =
  heading "scale robustness (rates must be stable as inputs grow)";
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun scale ->
            let b = Pf_mibench.Registry.find name in
            let r = Pf_harness.Experiment.run_benchmark ~scale b in
            [
              name;
              string_of_int scale;
              string_of_int
                r.Pf_harness.Experiment.arm16
                  .Pf_harness.Experiment.instructions;
              Pf_util.Table.pct r.Pf_harness.Experiment.static_map_pct;
              Pf_util.Table.pct r.Pf_harness.Experiment.dyn_map_pct;
              Printf.sprintf "%.1f"
                r.Pf_harness.Experiment.arm16.Pf_harness.Experiment
                  .miss_rate_pm;
              Printf.sprintf "%.1f"
                r.Pf_harness.Experiment.fits8.Pf_harness.Experiment
                  .miss_rate_pm;
            ])
          [ 1; 2; 4 ])
      [ "crc32"; "sha"; "gsm" ]
  in
  print_string
    (Pf_util.Table.render
       ~header:
         [ "benchmark"; "scale"; "ARM insns"; "static 1-1 %"; "dyn 1-1 %";
           "ARM16 miss/M"; "FITS8 miss/M" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Extension: cross-application ISA reuse                              *)
(* ------------------------------------------------------------------ *)

(* How application-specific are the synthesized instruction sets?  Take
   the opcode plane synthesized for application A (the paper's post-
   fabrication decoder configuration), reload only the data plane
   (dictionary + register lists) for application B — the S3.1 software-
   upgrade scenario — and measure B's mapping rate.  The diagonal is each
   application's own ISA. *)
let cross_application () =
  heading "extension: cross-application ISA reuse (static 1-to-1 %)";
  let names = [ "crc32"; "sha"; "jpeg"; "fft" ] in
  let prepared =
    List.map
      (fun name ->
        let image, dyn_counts = build name in
        let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
        (name, image, dyn_counts, syn.Pf_fits.Synthesis.spec))
      names
  in
  let rows =
    List.map
      (fun (spec_from, _, _, spec) ->
        spec_from
        :: List.map
             (fun (_, image, dyn_counts, _) ->
               let dict, reglists =
                 Pf_fits.Synthesis.data_plane image ~dyn_counts
               in
               let hybrid =
                 Pf_fits.Spec.with_data_plane spec ~dict ~reglists
               in
               let tr = Pf_fits.Translate.translate hybrid image in
               Pf_util.Table.pct (Pf_fits.Translate.static_mapping_rate tr))
             prepared)
      prepared
  in
  print_string
    (Pf_util.Table.render
       ~header:("ISA from \\ program" :: names)
       rows);
  print_string
    "(diagonal = own ISA; off-diagonal drop = how application-specific\n\
     \ the synthesized opcodes are)\n"

let () =
  run_figures ();
  ablation_ais ();
  ablation_dict ();
  ablation_two_op ();
  ablation_fetch_buffer ();
  scale_robustness ();
  cross_application ()
