(* powerfits — command-line front end for the PowerFITS reproduction.

   Subcommands walk the paper's flow (Figure 1): list the benchmark suite,
   profile a program, synthesize its FITS ISA, disassemble either binary,
   run one of the four simulated configurations, or regenerate the
   evaluation figures. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ] ~doc:"Print synthesis debug logging.")

let find_bench name =
  try Pf_mibench.Registry.find_exn name
  with Pf_util.Sim_error.Error e ->
    Printf.eprintf "powerfits: %s\n" (Pf_util.Sim_error.to_string e);
    exit 2

let build ?(scale = 1) (b : Pf_mibench.Registry.benchmark) =
  let p = b.Pf_mibench.Registry.program ~scale in
  Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

let benchmarks_arg =
  Arg.(value & opt (some string) None
       & info [ "benchmarks" ] ~docv:"A,B,C"
           ~doc:"Comma-separated benchmark subset (default: the whole \
                 suite).  Unknown names are rejected with the list of \
                 valid names.")

let parse_bench_list s =
  let names =
    List.filter (fun n -> n <> "") (String.split_on_char ',' s)
  in
  if names = [] then begin
    Printf.eprintf "powerfits: --benchmarks needs at least one name\n";
    exit 2
  end;
  List.map find_bench names

let resolve_benchmarks = function
  | None -> Pf_mibench.Registry.all
  | Some s -> parse_bench_list s

(* run/inject historically take one positional BENCHMARK; --benchmarks
   iterates the same command over a subset instead. *)
let bench_opt_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

let resolve_bench_selection ~cmd positional benchmarks =
  match (positional, benchmarks) with
  | Some _, Some _ ->
      Printf.eprintf
        "powerfits %s: give either a positional BENCHMARK or --benchmarks, \
         not both\n"
        cmd;
      exit 2
  | Some name, None -> [ find_bench name ]
  | None, Some s -> parse_bench_list s
  | None, None ->
      Printf.eprintf
        "powerfits %s: name a BENCHMARK (or use --benchmarks A,B,C); try \
         `powerfits list'\n"
        cmd;
      exit 2

(* Count flags below 1 are bad input: --scale 0 builds degenerate
   programs (crc32 at scale 0 declares a zero-length data array), a
   negative --max-steps surfaces as a watchdog timeout, --seeds 0 or
   --trials 0 "pass" with nothing run.  Every count flag goes through
   this one term, which rejects such a value as a structured
   Invalid_config like a malformed --jobs, before any subcommand runs. *)
let at_least_one flag_name n =
  if n < 1 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where:"cli"
      "--%s must be >= 1 (got %d)" flag_name n;
  n

let count_arg flag_name ~default ~doc =
  Term.(const (at_least_one flag_name)
        $ Arg.(value & opt int default & info [ flag_name ] ~docv:"N" ~doc))

let count_opt_arg flag_name ~doc =
  Term.(const (Option.map (at_least_one flag_name))
        $ Arg.(value & opt (some int) None & info [ flag_name ] ~docv:"N" ~doc))

let scale_arg =
  count_arg "scale" ~default:1 ~doc:"Input-size multiplier (default 1)."

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for sweeps and campaigns (default: the \
                 host's recommended domain count).  $(b,--jobs 1) runs \
                 sequentially; results are identical for every value.")

let resolve_jobs = function
  (* a malformed --jobs fails as a structured Invalid_config everywhere,
     same as any other bad configuration (the top-level handler turns it
     into the Sim_error exit code) *)
  | Some j -> Pf_util.Pool.validate_jobs ~where:"cli" j
  | None -> Pf_util.Pool.default_jobs ()

(* ---- list ---- *)

let list_cmd =
  let run () =
    Printf.printf "%-18s %-11s %s\n" "benchmark" "category" "power-study";
    List.iter
      (fun (b : Pf_mibench.Registry.benchmark) ->
        Printf.printf "%-18s %-11s %s\n" b.Pf_mibench.Registry.name
          b.Pf_mibench.Registry.category
          (if b.Pf_mibench.Registry.power_study then "yes" else "no"))
      Pf_mibench.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 21-benchmark suite.")
    Term.(const run $ const ())

(* ---- profile ---- *)

let profile_cmd =
  let run name scale =
    let image = build ~scale (find_bench name) in
    let counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
    let profile = Pf_fits.Profile.of_image_counts image ~counts in
    print_string (Pf_fits.Profile.summary profile);
    print_string (Pf_fits.Regfile.describe (Pf_fits.Regfile.analyze profile))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a benchmark: opcode mix, immediates, register pressure.")
    Term.(const run $ bench_arg $ scale_arg)

(* ---- synth ---- *)

let synth_cmd =
  let run name scale verbose =
    setup_logs verbose;
    let image = build ~scale (find_bench name) in
    let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
    let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
    let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
    print_string (Pf_fits.Spec.describe tr.Pf_fits.Translate.spec);
    let st = tr.Pf_fits.Translate.stats in
    Printf.printf
      "\nstatic mapping: %.1f%% 1-to-1 (%d of %d ARM instructions)\n"
      (Pf_fits.Translate.static_mapping_rate tr)
      st.Pf_fits.Translate.one_to_one st.Pf_fits.Translate.arm_insns;
    List.iter
      (fun (n, c) -> Printf.printf "  1-to-%d: %d instructions\n" n c)
      st.Pf_fits.Translate.expansion_hist;
    Printf.printf "code size: ARM %d B -> FITS %d B (%.1f%% saving)\n"
      st.Pf_fits.Translate.code_bytes_arm st.Pf_fits.Translate.code_bytes_fits
      (Pf_fits.Translate.code_size_saving tr)
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize a benchmark's FITS ISA and report mapping statistics.")
    Term.(const run $ bench_arg $ scale_arg $ verbose_arg)

(* ---- disasm ---- *)

let disasm_cmd =
  let fits_flag =
    Arg.(value & flag & info [ "fits" ] ~doc:"Disassemble the FITS binary.")
  in
  let run name scale fits =
    let image = build ~scale (find_bench name) in
    if fits then begin
      let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
      let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
      let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
      print_string (Pf_fits.Translate.disassemble tr)
    end
    else print_string (Pf_arm.Image.disassemble image)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a benchmark's ARM or FITS binary.")
    Term.(const run $ bench_arg $ scale_arg $ fits_flag)

(* ---- run ---- *)

let config_arg =
  let cfg_conv =
    Arg.enum
      [ ("arm16", `Arm16); ("arm8", `Arm8); ("fits16", `Fits16);
        ("fits8", `Fits8) ]
  in
  Arg.(value & opt cfg_conv `Arm16
       & info [ "config" ] ~docv:"CONFIG"
           ~doc:"Processor configuration: arm16, arm8, fits16 or fits8.")

let max_steps_arg =
  count_opt_arg "max-steps"
    ~doc:"Step-budget watchdog; exceeding it fails with a structured \
          timeout (exit code 4)."

(* Execution-engine selector shared by `run` and `figures`: it picks how
   an instruction stream is *executed*, not how `explore` evaluates cache
   geometries (always the single-pass sweep).  Both engines retire the
   identical architectural stream (pinned by the engine differential
   tests), so it affects simulator speed only. *)
let exec_engine_arg =
  let engine_conv =
    Arg.enum
      [ ("reference", Pf_cpu.Arm_run.Reference);
        ("compiled", Pf_cpu.Arm_run.Compiled) ]
  in
  Arg.(value & opt engine_conv Pf_cpu.Arm_run.Compiled
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: $(b,reference) (decode-as-you-go \
                 interpreter) or $(b,compiled) (basic-block compiler, the \
                 default).  \
                 Results are engine-invariant; only simulation speed \
                 changes.")

let run_cmd =
  let run_one ~scale ~config ~max_steps ~engine b =
    let image = build ~scale b in
    let cache_cfg =
      match config with
      | `Arm16 | `Fits16 -> Pf_dse.Space.cache_16k
      | `Arm8 | `Fits8 -> Pf_dse.Space.cache_8k
    in
    let print_common ~instrs ~cycles ~ipc ~accesses ~misses ~mr
        (p : Pf_power.Account.report) output =
      Printf.printf "instructions: %d\ncycles: %d\nIPC: %.2f\n" instrs cycles
        ipc;
      Printf.printf "I-cache accesses: %d  misses: %d (%.1f /M)\n" accesses
        misses mr;
      Printf.printf
        "I-cache energy: switching %.3g  internal %.3g  leakage %.3g  \
         (peak power %.3g)\n"
        p.Pf_power.Account.switching p.Pf_power.Account.internal
        p.Pf_power.Account.leakage p.Pf_power.Account.peak_power;
      Printf.printf "--- program output ---\n%s" output
    in
    match config with
    | `Arm16 | `Arm8 ->
        let r = Pf_cpu.Arm_run.run ~engine ~cache_cfg ?max_steps image in
        print_common ~instrs:r.Pf_cpu.Arm_run.instructions
          ~cycles:r.Pf_cpu.Arm_run.cycles ~ipc:r.Pf_cpu.Arm_run.ipc
          ~accesses:r.Pf_cpu.Arm_run.cache_accesses
          ~misses:r.Pf_cpu.Arm_run.cache_misses
          ~mr:r.Pf_cpu.Arm_run.miss_rate_per_million r.Pf_cpu.Arm_run.power
          r.Pf_cpu.Arm_run.output
    | `Fits16 | `Fits8 ->
        let dyn_counts, _ =
          Pf_fits.Synthesis.dyn_counts_of_run ?max_steps image
        in
        let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
        let tr =
          Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image
        in
        let r = Pf_fits.Run.run ~engine ~cache_cfg ?max_steps tr in
        Printf.printf "dynamic 1-to-1 mapping: %.1f%%\n"
          r.Pf_fits.Run.dyn_one_to_one_pct;
        print_common ~instrs:r.Pf_fits.Run.arm_instructions
          ~cycles:r.Pf_fits.Run.cycles ~ipc:r.Pf_fits.Run.ipc
          ~accesses:r.Pf_fits.Run.cache_accesses
          ~misses:r.Pf_fits.Run.cache_misses
          ~mr:r.Pf_fits.Run.miss_rate_per_million r.Pf_fits.Run.power
          r.Pf_fits.Run.output
  in
  let run name benchmarks scale config max_steps engine =
    let benches = resolve_bench_selection ~cmd:"run" name benchmarks in
    let many = List.length benches > 1 in
    List.iter
      (fun (b : Pf_mibench.Registry.benchmark) ->
        if many then
          Printf.printf "=== %s ===\n" b.Pf_mibench.Registry.name;
        run_one ~scale ~config ~max_steps ~engine b)
      benches
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate one benchmark (or a --benchmarks subset) on one of the \
          four configurations.")
    Term.(const run $ bench_opt_arg $ benchmarks_arg $ scale_arg
          $ config_arg $ max_steps_arg $ exec_engine_arg)

(* ---- figures ---- *)

let figures_cmd =
  let only =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"FIG"
             ~doc:"Print a single figure (fig3..fig14).")
  in
  let run scale only benchmarks engine jobs =
    let jobs = resolve_jobs jobs in
    let benchmarks = resolve_benchmarks benchmarks in
    let sweep =
      Pf_harness.Experiment.run_all ~scale ~benchmarks ~engine ~jobs ()
    in
    Printf.eprintf "%s\n%!" (Pf_harness.Experiment.banner sweep);
    let all = Pf_harness.Experiment.completed_results sweep in
    let divergent =
      List.exists
        (fun (r : Pf_harness.Experiment.bench_result) ->
          not r.Pf_harness.Experiment.outputs_consistent)
        all
      || List.exists
           (fun (row : Pf_harness.Experiment.sweep_row) ->
             match row.Pf_harness.Experiment.outcome with
             | Error e ->
                 e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Divergence
             | Ok _ -> false)
           sweep.Pf_harness.Experiment.rows
    in
    List.iter
      (fun (r : Pf_harness.Experiment.bench_result) ->
        if not r.Pf_harness.Experiment.outputs_consistent then
          Printf.eprintf "DIVERGENT: inconsistent outputs on %s\n"
            r.Pf_harness.Experiment.name)
      all;
    let power = Pf_harness.Experiment.power_rows all in
    let figs =
      Pf_harness.Figures.mapping_figures all
      @ Pf_harness.Figures.power_figures power
    in
    let figs =
      match only with
      | None -> figs
      | Some id ->
          List.filter
            (fun (f : Pf_harness.Figures.figure) ->
              String.length f.Pf_harness.Figures.id >= String.length id
              && String.sub f.Pf_harness.Figures.id 0 (String.length id) = id)
            figs
    in
    List.iter (fun f -> print_endline (Pf_harness.Figures.render f)) figs;
    (* partial figures still print above; the exit code says what broke:
       3 = a divergence, 4 = some other benchmark failure *)
    if divergent then exit 3
    else if sweep.Pf_harness.Experiment.completed
            < sweep.Pf_harness.Experiment.total
    then exit 4
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Run the experiment (optionally on a --benchmarks subset) and \
          print every evaluation figure.")
    Term.(const run $ scale_arg $ only $ benchmarks_arg $ exec_engine_arg
          $ jobs_arg)

(* ---- inject ---- *)

let inject_cmd =
  let target_arg =
    let tconv =
      Arg.enum
        [ ("decoder", Pf_fault.Injector.Decoder);
          ("dict", Pf_fault.Injector.Dict);
          ("icache", Pf_fault.Injector.Icache);
          ("regs", Pf_fault.Injector.Regs) ]
    in
    Arg.(value & opt tconv Pf_fault.Injector.Decoder
         & info [ "target" ] ~docv:"TARGET"
             ~doc:"Structure to corrupt: decoder, dict, icache or regs.")
  in
  let rate_arg =
    Arg.(value & opt float 1e-4
         & info [ "rate" ] ~docv:"R"
             ~doc:"Per-bit flip probability (0 disables injection).")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"Campaign RNG seed; same seed replays the same flips.")
  in
  let trials_arg =
    count_arg "trials" ~default:20 ~doc:"Injection runs (default 20)."
  in
  let parity_arg =
    Arg.(value & flag
         & info [ "parity" ]
             ~doc:"Model parity-protected arrays and report coverage.")
  in
  let cfg_arg =
    let cconv = Arg.enum [ ("fits16", `Fits16); ("fits8", `Fits8) ] in
    Arg.(value & opt cconv `Fits16
         & info [ "config" ] ~docv:"CONFIG"
             ~doc:"FITS configuration under injection: fits16 or fits8.")
  in
  let run name benchmarks scale target rate seed trials parity config jobs =
    let jobs = resolve_jobs jobs in
    if rate < 0. || rate > 1. then begin
      Printf.eprintf "inject: --rate must be in [0,1]\n";
      exit 2
    end;
    let benches = resolve_bench_selection ~cmd:"inject" name benchmarks in
    let many = List.length benches > 1 in
    List.iter
      (fun (b : Pf_mibench.Registry.benchmark) ->
        if many then
          Printf.printf "=== %s ===\n" b.Pf_mibench.Registry.name;
        let image = build ~scale b in
        let dyn_counts, reference =
          Pf_fits.Synthesis.dyn_counts_of_run image
        in
        let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
        let tr =
          Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image
        in
        let cache_cfg =
          match config with
          | `Fits16 -> Pf_dse.Space.cache_16k
          | `Fits8 -> Pf_dse.Space.cache_8k
        in
        let report =
          Pf_fault.Campaign.run ~trials ~parity ~cache_cfg ~jobs ~target
            ~rate ~seed ~reference tr
        in
        print_string (Pf_fault.Campaign.to_string report))
      benches
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run a seeded fault-injection campaign against a benchmark's (or \
          a --benchmarks subset's) FITS machine and classify the outcomes.")
    Term.(const run $ bench_opt_arg $ benchmarks_arg $ scale_arg
          $ target_arg $ rate_arg $ seed_arg $ trials_arg $ parity_arg
          $ cfg_arg $ jobs_arg)

(* ---- multi ---- *)

let multi_cmd =
  let programs_arg =
    Arg.(value & opt (some string) None
         & info [ "programs" ] ~docv:"A,B,C"
             ~doc:"Programs forming the suite (default: all 21).  The \
                   shared ISA is synthesized from exactly these.")
  in
  let weighting_arg =
    Arg.(value & opt string "dynamic"
         & info [ "weighting" ] ~docv:"SCHEME"
             ~doc:"Per-program weighting for the merged profile: \
                   $(b,dynamic) (raw dynamic-instruction counts), \
                   $(b,uniform) (every program normalized to a common \
                   budget), or $(b,name=W,name=W,...) custom integer \
                   weights.")
  in
  let loo_arg =
    Arg.(value & flag
         & info [ "loo" ]
             ~doc:"Also run the leave-one-out campaign: each program is \
                   evaluated under the ISA synthesized from every other \
                   program.")
  in
  let dict_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "dict-budget" ] ~docv:"N"
             ~doc:"Shared-dictionary entry budget (default: capacity \
                   minus a 64-entry reloadable per-program tail).")
  in
  let run programs weighting loo dict_budget scale jobs =
    let jobs = resolve_jobs jobs in
    let weighting =
      match Pf_multi.Weighting.of_string weighting with
      | Ok w -> w
      | Error msg ->
          Printf.eprintf "powerfits multi: %s\n" msg;
          exit 2
    in
    let benches = resolve_benchmarks programs in
    let campaign =
      Pf_multi.Eval.run ~weighting ?dict_budget ~loo ~scale ~jobs benches
    in
    Printf.eprintf "%s\n%!" (Pf_multi.Eval.banner campaign);
    print_string (Pf_multi.Eval.coverage_table campaign);
    print_newline ();
    print_string (Pf_multi.Eval.table campaign);
    print_newline ();
    List.iter
      (fun f -> print_endline (Pf_harness.Figures.render f))
      (Pf_multi.Eval.figures campaign);
    print_endline (Pf_multi.Eval.summary campaign);
    if Pf_multi.Eval.divergent campaign <> [] then exit 3
    else if campaign.Pf_multi.Eval.c_completed < campaign.Pf_multi.Eval.c_total
    then exit 4
  in
  Cmd.v
    (Cmd.info "multi"
       ~doc:
         "Multi-program ISA synthesis: build one shared FITS ISA for a \
          program suite and measure how every program fares under its \
          per-app, the shared, and (with $(b,--loo)) its leave-one-out \
          ISA.")
    Term.(const run $ programs_arg $ weighting_arg $ loo_arg
          $ dict_budget_arg $ scale_arg $ jobs_arg)

(* ---- population ---- *)

let population_cmd =
  let count_arg =
    Arg.(value & opt int 1000
         & info [ "count" ] ~docv:"N"
             ~doc:"Number of programs to generate and evaluate.")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Population seed.  Program $(i,i) is generated from a \
                   splitmix of (S, i), so the population is reproducible \
                   and independent of $(b,--jobs).")
  in
  let adaptive_arg =
    Arg.(value & flag
         & info [ "adaptive" ]
             ~doc:"Also run phase-adaptive resynthesis: segment the \
                   fleet schedule by opcode-mix drift, synthesize \
                   per-phase dictionary/register-list tables over the \
                   shared opcode plane, and report static-vs-adaptive \
                   energy including decoder data-plane reload charges.")
  in
  let dict_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "dict-budget" ] ~docv:"N"
             ~doc:"Shared-dictionary entry budget (default: capacity \
                   minus a 64-entry reloadable per-program tail).")
  in
  let show_program_arg =
    Arg.(value & opt (some int) None
         & info [ "show-program" ] ~docv:"K"
             ~doc:"Print the canonical rendering of generated program K \
                   to stdout and exit (no evaluation).")
  in
  let run count seed adaptive dict_budget show_program max_steps jobs =
    let jobs = resolve_jobs jobs in
    match show_program with
    | Some k ->
        if k < 0 || k >= count then begin
          Printf.eprintf
            "powerfits population: --show-program %d out of range [0, %d)\n"
            k count;
          exit 2
        end;
        let model = Pf_workgen.Calibrate.reference () in
        let p = Pf_workgen.Generate.program ~model ~seed ~index:k in
        print_string (Pf_workgen.Generate.render p)
    | None ->
        let r =
          Pf_workgen.Population.run ~jobs ?dict_budget ?max_steps ~adaptive
            ~count ~seed ()
        in
        Printf.eprintf
          "population: %d programs, jobs=%d, gen %.2fs, eval %.2fs \
           (%.0f src-insns/s)\n%!"
          r.Pf_workgen.Population.count r.Pf_workgen.Population.jobs
          r.Pf_workgen.Population.gen_s r.Pf_workgen.Population.eval_s
          (float_of_int r.Pf_workgen.Population.total_steps
          /. Float.max 1e-9 r.Pf_workgen.Population.eval_s);
        print_string (Pf_workgen.Population.report r);
        if
          List.exists
            (fun row -> not row.Pf_workgen.Population.r_output_ok)
            r.Pf_workgen.Population.rows
        then exit 3
        else if r.Pf_workgen.Population.failures <> [] then exit 4
  in
  Cmd.v
    (Cmd.info "population"
       ~doc:
         "Fleet-scale campaign over a generated workload population: \
          synthesize calibrated programs from a seed, build one shared \
          FITS ISA across all of them, and report the shared-ISA \
          power-saving degradation distribution (with $(b,--adaptive), \
          also phase-adaptive data-plane resynthesis).")
    Term.(const run $ count_arg $ seed_arg $ adaptive_arg $ dict_budget_arg
          $ show_program_arg $ max_steps_arg $ jobs_arg)

(* ---- explore ---- *)

let explore_cmd =
  let module D = Pf_dse in
  let grid_arg =
    Arg.(value & opt string "full"
         & info [ "grid" ] ~docv:"GRID"
             ~doc:"Design-space grid: $(b,smoke) (6 geometries), $(b,full) \
                   (36 geometries), $(b,dense) (1058 geometries, evaluated \
                   by the single-pass sweep engine), or a spec like \
                   $(b,sizes=1k,4k,16k;blocks=16,32;assocs=2,32;dicts=none,96) \
                   (sizes/blocks take a k suffix; dicts caps the FITS \
                   dictionary, $(b,none) = the uncapped per-app flow).")
  in
  let cross_check_arg =
    Arg.(value & flag
         & info [ "cross-check" ]
             ~doc:"After the sweep, re-evaluate the paper-point geometries \
                   with the replay-engine oracle and require every \
                   overlapping point to be bit-identical (floats compared \
                   by their IEEE bits).  Exits 5 on any mismatch.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write every evaluated point as CSV to FILE ($(b,-) for \
                   stdout).")
  in
  let paper_tag (p : D.Explore.point) =
    match p.D.Explore.variant with
    | D.Explore.Arm -> D.Space.paper_point ~arm:true p.D.Explore.geometry
    | D.Explore.Fits None -> D.Space.paper_point ~arm:false p.D.Explore.geometry
    | D.Explore.Fits (Some _) -> None
  in
  let point_row front (p : D.Explore.point) =
    let m = p.D.Explore.metrics in
    let pw = m.D.Explore.power in
    [
      D.Space.label p.D.Explore.geometry;
      D.Explore.variant_label p.D.Explore.variant;
      Pf_util.Table.si pw.Pf_power.Account.total;
      Pf_util.Table.si (Pf_power.Account.avg_power pw);
      Printf.sprintf "%.2f" m.D.Explore.ipc;
      Printf.sprintf "%.1f" m.D.Explore.miss_rate_pm;
      Pf_util.Table.si (float_of_int m.D.Explore.gate_count);
      (if List.exists (fun (q, _) -> q == p) front.D.Pareto.frontier then "*"
       else "");
      (match paper_tag p with Some tag -> "= " ^ tag | None -> "");
    ]
  in
  let header =
    [ "geometry"; "isa"; "E_total"; "avg power"; "IPC"; "miss/M"; "gates";
      "pareto"; "paper" ]
  in
  (* bit-exact point comparison for --cross-check: ints by =, floats by
     their IEEE-754 bits, so "equal" means reproducible, not just close *)
  let points_bit_identical (a : D.Explore.point) (b : D.Explore.point) =
    let fbits = Int64.bits_of_float in
    let ma = a.D.Explore.metrics and mb = b.D.Explore.metrics in
    let pa = ma.D.Explore.power and pb = mb.D.Explore.power in
    a.D.Explore.variant = b.D.Explore.variant
    && a.D.Explore.geometry = b.D.Explore.geometry
    && ma.D.Explore.instructions = mb.D.Explore.instructions
    && ma.D.Explore.cycles = mb.D.Explore.cycles
    && fbits ma.D.Explore.ipc = fbits mb.D.Explore.ipc
    && ma.D.Explore.fetch_accesses = mb.D.Explore.fetch_accesses
    && ma.D.Explore.cache_accesses = mb.D.Explore.cache_accesses
    && ma.D.Explore.cache_misses = mb.D.Explore.cache_misses
    && fbits ma.D.Explore.miss_rate_pm = fbits mb.D.Explore.miss_rate_pm
    && fbits ma.D.Explore.dcache_miss_rate_pm
       = fbits mb.D.Explore.dcache_miss_rate_pm
    && fbits pa.Pf_power.Account.switching
       = fbits pb.Pf_power.Account.switching
    && fbits pa.Pf_power.Account.internal = fbits pb.Pf_power.Account.internal
    && fbits pa.Pf_power.Account.leakage = fbits pb.Pf_power.Account.leakage
    && fbits pa.Pf_power.Account.total = fbits pb.Pf_power.Account.total
    && fbits pa.Pf_power.Account.peak_power
       = fbits pb.Pf_power.Account.peak_power
    && pa.Pf_power.Account.cycles = pb.Pf_power.Account.cycles
    && ma.D.Explore.gate_count = mb.D.Explore.gate_count
  in
  let cross_check ~scale ~max_steps ~jobs ~benches space (t : D.Explore.t) =
    let oracle_space =
      D.Space.make
        ~sizes:[ 8 * 1024; 16 * 1024 ]
        ~dict_budgets:space.D.Space.dict_budgets ()
    in
    let oracle_geoms =
      List.filter
        (fun g -> List.mem g t.D.Explore.geometries)
        (D.Space.geometries oracle_space)
    in
    if oracle_geoms = [] then begin
      Printf.eprintf
        "cross-check: grid contains no paper-point geometry, nothing to \
         compare\n%!";
      exit 2
    end;
    Printf.eprintf
      "cross-check: re-evaluating %d paper-point geometries with the \
       replay oracle\n%!"
      (List.length oracle_geoms);
    let oracle =
      D.Explore.run ~scale ?max_steps ~jobs ~engine:D.Space.Replay
        ~benchmarks:benches oracle_space
    in
    let compared = ref 0 and mismatched = ref 0 in
    List.iter
      (fun (ob : D.Explore.bench_run) ->
        match
          List.find_opt
            (fun (b : D.Explore.bench_run) ->
              b.D.Explore.name = ob.D.Explore.name)
            (D.Explore.completed_runs t)
        with
        | None -> ()
        | Some br ->
            List.iter
              (fun (op : D.Explore.point) ->
                if List.mem op.D.Explore.geometry oracle_geoms then begin
                  match
                    List.find_opt
                      (fun (p : D.Explore.point) ->
                        p.D.Explore.variant = op.D.Explore.variant
                        && p.D.Explore.geometry = op.D.Explore.geometry)
                      br.D.Explore.points
                  with
                  | None ->
                      incr mismatched;
                      Printf.eprintf
                        "cross-check: %s %s %s missing from the sweep \
                         output\n%!"
                        br.D.Explore.name
                        (D.Explore.variant_label op.D.Explore.variant)
                        (D.Space.label op.D.Explore.geometry)
                  | Some p ->
                      incr compared;
                      if not (points_bit_identical p op) then begin
                        incr mismatched;
                        Printf.eprintf
                          "cross-check: MISMATCH at %s %s %s (sweep vs \
                           replay oracle)\n%!"
                          br.D.Explore.name
                          (D.Explore.variant_label op.D.Explore.variant)
                          (D.Space.label op.D.Explore.geometry)
                      end
                end)
              ob.D.Explore.points)
      (D.Explore.completed_runs oracle);
    if !mismatched > 0 then begin
      Printf.eprintf "cross-check: %d of %d points differ from the oracle\n%!"
        !mismatched
        (!compared + !mismatched);
      exit 5
    end
    else
      Printf.eprintf
        "cross-check: %d points bit-identical to the replay oracle\n%!"
        !compared
  in
  let run grid benchmarks scale max_steps jobs do_cross csv =
    let jobs = resolve_jobs jobs in
    let space =
      match D.Space.of_string grid with
      | Ok s -> s
      | Error msg ->
          Printf.eprintf "powerfits explore: %s\n" msg;
          exit 2
    in
    let benches = resolve_benchmarks benchmarks in
    Printf.eprintf "explore: %s\n%!"
      (D.Space.describe ~benchmarks:(List.length benches) space);
    let t =
      D.Explore.run ~scale ?max_steps ~jobs ~benchmarks:benches space
    in
    Printf.eprintf "%s\n%!" (D.Explore.banner t);
    if do_cross then cross_check ~scale ~max_steps ~jobs ~benches space t;
    (match csv with
    | None -> ()
    | Some "-" -> print_string (D.Explore.to_csv t)
    | Some path ->
        (* atomic publication: a crash (or a concurrent reader) never
           sees a torn artifact *)
        Pf_util.Atomic_file.write ~path (D.Explore.to_csv t);
        Printf.eprintf "explore: wrote CSV to %s\n%!" path);
    (match D.Explore.aggregate t with
    | [] -> ()
    | agg ->
        let front = D.Explore.frontier_of agg in
        Printf.printf
          "== suite aggregate: Pareto frontier over (E_total v, IPC ^, \
           miss/M v, gates v) ==\n";
        let frontier_points = List.map fst front.D.Pareto.frontier in
        print_string
          (Pf_util.Table.render ~header
             (List.map (point_row front) frontier_points));
        Printf.printf "%d of %d points on the frontier, %d dominated\n\n"
          (List.length frontier_points)
          front.D.Pareto.total front.D.Pareto.dominated;
        (* where do the paper's four configurations sit? *)
        let paper_pts =
          List.filter (fun p -> paper_tag p <> None) agg
        in
        let off_frontier =
          List.filter
            (fun p ->
              not
                (List.exists (fun (q, _) -> q == p) front.D.Pareto.frontier))
            paper_pts
        in
        if off_frontier <> [] then begin
          Printf.printf "== paper points dominated by the explored space ==\n";
          print_string
            (Pf_util.Table.render ~header
               (List.map (point_row front) off_frontier));
          print_newline ()
        end);
    (match D.Explore.completed_runs t with
    | [] -> ()
    | runs ->
        Printf.printf "== per-benchmark frontiers ==\n";
        let rows =
          List.map
            (fun (br : D.Explore.bench_run) ->
              let front = D.Explore.frontier_of br.D.Explore.points in
              let paper_on_front =
                List.filter_map
                  (fun (p, _) -> paper_tag p)
                  front.D.Pareto.frontier
              in
              [
                br.D.Explore.name;
                string_of_int front.D.Pareto.total;
                string_of_int (List.length front.D.Pareto.frontier);
                string_of_int front.D.Pareto.dominated;
                (if paper_on_front = [] then "-"
                 else String.concat "," paper_on_front);
              ])
            runs
        in
        print_string
          (Pf_util.Table.render
             ~header:
               [ "benchmark"; "points"; "frontier"; "dominated";
                 "paper on frontier" ]
             rows));
    (* exit codes as in run/figures: 3 = divergence, 4 = incomplete sweep *)
    if D.Explore.diverged t then exit 3
    else if t.D.Explore.completed < t.D.Explore.total then exit 4
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Design-space exploration: sweep cache geometries (and FITS \
          dictionary budgets) over the suite — one execution per ISA per \
          benchmark, then one single-pass stack-distance sweep per trace \
          covering every geometry at once — and report deterministic \
          Pareto frontiers with the paper's four configurations \
          annotated.")
    Term.(const run $ grid_arg $ benchmarks_arg $ scale_arg $ max_steps_arg
          $ jobs_arg $ cross_check_arg $ csv_arg)

(* ---- serve ---- *)

let serve_cmd =
  (* --crash-at N:POINT arms a store-write crash: on the N-th time an
     atomic store write reaches POINT, the process exits 42 on the spot —
     file descriptors abandoned, temp files left torn, exactly what
     kill -9 mid-write leaves behind.  The exit lives here in the CLI
     (lib/serve is lint-banned from exiting); the library hook only
     answers the "should I die here?" question. *)
  let crash_of_spec spec =
    let fail () =
      Printf.eprintf
        "powerfits serve: bad --crash-at %S (want N:POINT with POINT one \
         of %s)\n"
        spec
        (String.concat "|"
           (List.map Pf_util.Atomic_file.crash_point_name
              Pf_util.Atomic_file.all_crash_points));
      exit 2
    in
    match String.index_opt spec ':' with
    | None -> fail ()
    | Some i -> (
        let n = String.sub spec 0 i in
        let pname = String.sub spec (i + 1) (String.length spec - i - 1) in
        match
          (int_of_string_opt n, Pf_util.Atomic_file.crash_point_of_string pname)
        with
        | Some n, Some point when n >= 1 ->
            let count = ref 0 in
            fun p ->
              if p = point then begin
                incr count;
                if !count = n then begin
                  Printf.eprintf "serve: injected crash at write %d (%s)\n%!"
                    n pname;
                  exit 42
                end
              end;
              false
        | _ -> fail ())
  in
  let run socket store jobs queue_cap budget_s max_steps max_requests no_fsync
      crash_at selftest =
    match selftest with
    | Some dir ->
        (* store-fault campaign: crash at every point, flip/truncate
           records, prove nothing committed is lost and nothing corrupt
           is served *)
        let r = Pf_fault.Storefault.run ~dir ~seed:7 () in
        print_endline (Pf_fault.Storefault.banner r);
        if r.Pf_fault.Storefault.survived < r.Pf_fault.Storefault.total then
          exit 4
    | None ->
        let jobs = resolve_jobs jobs in
        let cfg =
          {
            Pf_serve.Daemon.socket_path = socket;
            store_dir = store;
            jobs;
            queue_capacity = queue_cap;
            budget_s;
            default_max_steps = max_steps;
            fsync = not no_fsync;
            crash = Option.map crash_of_spec crash_at;
            max_requests;
          }
        in
        (* a client that hangs up before its reply would otherwise kill
           the daemon on the reply's write; ignored, the write fails with
           EPIPE, which the daemon swallows *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Pf_serve.Daemon.run cfg
  in
  let socket_arg =
    Arg.(value
         & opt string Pf_serve.Daemon.default_config.Pf_serve.Daemon.socket_path
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Content-addressed artifact store directory (created if \
                   missing; recovered and verified on startup).  Without \
                   it every request recomputes.")
  in
  let queue_cap_arg =
    count_arg "queue-cap" ~default:64
      ~doc:"Admission-queue bound; requests beyond it get a structured \
            `overloaded' reply (backpressure)."
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget-s" ] ~docv:"SECONDS"
             ~doc:"Default per-request wall-clock budget (60s if unset); \
                   over-budget requests degrade to half scale instead of \
                   failing.")
  in
  let max_requests_arg =
    count_opt_arg "max-requests"
      ~doc:"Stop after accepting N connections (self-stopping test \
            daemons)."
  in
  let no_fsync_arg =
    Arg.(value & flag
         & info [ "no-fsync" ]
             ~doc:"Skip fsync on store writes (tests only: a machine \
                   crash may then lose — but still never tear — recent \
                   entries).")
  in
  let crash_at_arg =
    Arg.(value & opt (some string) None
         & info [ "crash-at" ] ~docv:"N:POINT"
             ~doc:"Fault injection: exit(42) when the N-th store write \
                   reaches POINT (mid-write|after-write|before-rename|\
                   after-rename), simulating kill -9 at the worst \
                   instant.")
  in
  let selftest_arg =
    Arg.(value & opt (some string) None
         & info [ "selftest" ] ~docv:"DIR"
             ~doc:"Run the store-fault campaign (crash points x \
                   corruption) in DIR instead of serving; exit 4 if any \
                   trial fails.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running synthesis service on a Unix-domain socket: \
          length-prefixed JSON requests (synthesize / evaluate / \
          explore-point / status), bounded admission onto a domain \
          pool, and a crash-safe content-addressed artifact store with \
          startup recovery.")
    Term.(const run $ socket_arg $ store_arg $ jobs_arg $ queue_cap_arg
          $ budget_arg $ max_steps_arg $ max_requests_arg $ no_fsync_arg
          $ crash_at_arg $ selftest_arg)

(* ---- report ---- *)

let report_cmd =
  let run name scale =
    let b = find_bench name in
    let r = Pf_harness.Experiment.run_benchmark ~scale b in
    let e = r.Pf_harness.Experiment.arm16 in
    Printf.printf "# %s (%s)\n\n" r.Pf_harness.Experiment.name
      r.Pf_harness.Experiment.category;
    Printf.printf "consistent outputs across all configurations: %b\n\n"
      r.Pf_harness.Experiment.outputs_consistent;
    Printf.printf "## translation\n\n";
    Printf.printf "- static 1-to-1 mapping: %.1f%%\n"
      r.Pf_harness.Experiment.static_map_pct;
    Printf.printf "- dynamic 1-to-1 mapping: %.1f%%\n"
      r.Pf_harness.Experiment.dyn_map_pct;
    List.iter
      (fun (n, c) -> Printf.printf "- 1-to-%d expansions: %d\n" n c)
      r.Pf_harness.Experiment.expansion_hist;
    Printf.printf "- AIS opcodes: %d, dictionary entries: %d\n"
      r.Pf_harness.Experiment.ais_ops r.Pf_harness.Experiment.dict_entries;
    Printf.printf
      "- code bytes: ARM %d, THUMB(est) %d, FITS %d (%.1f%% saving)\n\n"
      r.Pf_harness.Experiment.code_arm r.Pf_harness.Experiment.code_thumb
      r.Pf_harness.Experiment.code_fits
      (Pf_util.Stats.saving
         ~baseline:(float_of_int r.Pf_harness.Experiment.code_arm)
         (float_of_int r.Pf_harness.Experiment.code_fits));
    Printf.printf "## four configurations\n\n";
    let rows =
      List.map
        (fun (label, (c : Pf_harness.Experiment.per_config)) ->
          let p = c.Pf_harness.Experiment.power in
          [
            label;
            string_of_int c.Pf_harness.Experiment.cycles;
            Printf.sprintf "%.2f" c.Pf_harness.Experiment.ipc;
            Printf.sprintf "%.1f" c.Pf_harness.Experiment.miss_rate_pm;
            Pf_util.Table.si p.Pf_power.Account.switching;
            Pf_util.Table.si p.Pf_power.Account.internal;
            Pf_util.Table.si p.Pf_power.Account.leakage;
            Printf.sprintf "%.1f"
              (Pf_util.Stats.saving
                 ~baseline:
                   (e.Pf_harness.Experiment.power.Pf_power.Account.total
                   /. float_of_int e.Pf_harness.Experiment.cycles)
                 (p.Pf_power.Account.total
                 /. float_of_int c.Pf_harness.Experiment.cycles));
          ])
        [
          ("ARM16", r.Pf_harness.Experiment.arm16);
          ("ARM8", r.Pf_harness.Experiment.arm8);
          ("FITS16", r.Pf_harness.Experiment.fits16);
          ("FITS8", r.Pf_harness.Experiment.fits8);
        ]
    in
    print_string
      (Pf_util.Table.render
         ~header:
           [ "config"; "cycles"; "IPC"; "miss/M"; "E_sw"; "E_int"; "E_leak";
             "power saving %" ]
         rows)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Full per-benchmark report: translation, four configurations.")
    Term.(const run $ bench_arg $ scale_arg)

(* ---- mc ---- *)

let mc_sched_arg =
  Arg.(value & opt string "random"
       & info [ "sched" ] ~docv:"POLICY"
           ~doc:"Core interleaving policy: $(b,rr) (round-robin) or \
                 $(b,random) (seeded-random, default).  Runs are \
                 bit-identical for a given policy and seed.")

let resolve_sched s =
  match Pf_mc.Sched.policy_of_string s with
  | Some p -> p
  | None ->
      Printf.eprintf "powerfits mc: unknown --sched %s (rr|random)\n" s;
      exit 2

let mc_litmus ~policy ~seeds ~jobs test =
  let tests =
    match test with
    | None -> Pf_mc.Litmus.tests
    | Some name -> (
        match Pf_mc.Litmus.find name with
        | Some t -> [ t ]
        | None ->
            Printf.eprintf "powerfits mc: unknown litmus test %s (have: %s)\n"
              name
              (String.concat ", "
                 (List.map (fun t -> t.Pf_mc.Model.name) Pf_mc.Litmus.tests));
            exit 2)
  in
  let results =
    List.map (fun t -> Pf_mc.Litmus.run ~policy ~seeds ~jobs t) tests
  in
  List.iter
    (fun (r : Pf_mc.Litmus.result) ->
      Printf.printf "%s: seeds=%d sched=%s allowed=%d observed=%d\n"
        r.Pf_mc.Litmus.name r.Pf_mc.Litmus.seeds
        (Pf_mc.Sched.policy_to_string r.Pf_mc.Litmus.policy)
        (List.length r.Pf_mc.Litmus.allowed)
        (List.length r.Pf_mc.Litmus.observed);
      List.iter
        (fun (o, c) ->
          Printf.printf "  %6d  %-32s %s\n" c o
            (if List.mem o r.Pf_mc.Litmus.allowed then "allowed"
             else "FORBIDDEN"))
        r.Pf_mc.Litmus.observed)
    results;
  let forbidden =
    List.fold_left
      (fun a (r : Pf_mc.Litmus.result) ->
        List.fold_left (fun a (_, c) -> a + c) a r.Pf_mc.Litmus.forbidden)
      0 results
  in
  Printf.printf "summary: tests=%d seeds=%d forbidden=%d\n"
    (List.length results) seeds forbidden;
  if forbidden > 0 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Divergence ~where:"mc.litmus"
      "%d observed outcome(s) outside the memory model's allowed set"
      forbidden

let mc_workload ~policy ~seed ~cores ~benchmarks ~isa ~scale ~max_steps =
  let pool =
    match benchmarks with
    | Some s -> parse_bench_list s
    | None ->
        let n = if cores > 0 then cores else 2 in
        let rec take k = function
          | b :: rest when k > 0 -> b :: take (k - 1) rest
          | _ -> []
        in
        take n Pf_mibench.Registry.all
  in
  let ncores = if cores > 0 then cores else List.length pool in
  if ncores < 1 || ncores > 8 then begin
    Printf.eprintf "powerfits mc: --cores must be in 1..8 (got %d)\n" ncores;
    exit 2
  end;
  let pool = Array.of_list pool in
  let mk i =
    let b = pool.(i mod Array.length pool) in
    let image = build ~scale b in
    let step =
      match isa with
      | "arm" -> Pf_mc.Machine.arm_core ?max_steps image
      | "fits" -> Pf_mc.Machine.fits_core ?max_steps image
      | _ ->
          Printf.eprintf "powerfits mc: unknown --isa %s (arm|fits)\n" isa;
          exit 2
    in
    (Printf.sprintf "%d:%s" i b.Pf_mibench.Registry.name, step)
  in
  let cores = Array.init ncores mk in
  let sched = Pf_mc.Sched.create ~policy ~ncores seed in
  (* independent kernels, private memories: no shared window, so no
     coherence layer — the mc workload mode measures multicore power
     accounting and scheduling, not data sharing *)
  let m = Pf_mc.Machine.create ~sched cores in
  Pf_mc.Machine.run m;
  let r = Pf_mc.Machine.report m in
  let rows =
    Array.to_list
      (Array.map
         (fun (label, (c : Pf_cpu.Step.result)) ->
           [
             label;
             string_of_int c.Pf_cpu.Step.instructions;
             string_of_int c.Pf_cpu.Step.src_instructions;
             string_of_int c.Pf_cpu.Step.cycles;
             Printf.sprintf "%.3f" c.Pf_cpu.Step.ipc;
             Printf.sprintf "%.1f" c.Pf_cpu.Step.miss_rate_per_million;
             Pf_util.Table.si c.Pf_cpu.Step.power.Pf_power.Account.total;
           ])
         r.Pf_mc.Machine.cores)
  in
  print_string
    (Pf_util.Table.render
       ~header:
         [ "core"; "insns"; "src-insns"; "cycles"; "IPC"; "miss/M"; "E_total" ]
       rows);
  Printf.printf "machine: cores=%d sched=%s seed=%d slices=%d cycles=%d\n"
    (Array.length r.Pf_mc.Machine.cores)
    (Pf_mc.Sched.policy_to_string policy)
    seed r.Pf_mc.Machine.slices r.Pf_mc.Machine.cycles;
  let p = r.Pf_mc.Machine.power in
  Printf.printf
    "energy: switching=%s internal=%s leakage=%s total=%s peak-bound=%s\n"
    (Pf_util.Table.si p.Pf_mc.Machine.switching)
    (Pf_util.Table.si p.Pf_mc.Machine.internal)
    (Pf_util.Table.si p.Pf_mc.Machine.leakage)
    (Pf_util.Table.si p.Pf_mc.Machine.total)
    (Pf_util.Table.si p.Pf_mc.Machine.peak_power)

let mc_cmd =
  let litmus_arg =
    Arg.(value & flag
         & info [ "litmus" ]
             ~doc:"Run the litmus suite: classic weak-memory tests across \
                   many seeded interleavings, every observed outcome \
                   checked against the operational memory model.  A \
                   forbidden outcome exits 3.")
  in
  let test_arg =
    Arg.(value & opt (some string) None
         & info [ "test" ] ~docv:"NAME"
             ~doc:"Run a single litmus test (default: the whole suite).")
  in
  let seeds_arg =
    count_arg "seeds" ~default:1000
      ~doc:"Seeded interleavings per litmus test (default 1000)."
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"Scheduler seed for workload mode (default 1).")
  in
  let cores_arg =
    Arg.(value & opt int 0
         & info [ "cores" ] ~docv:"N"
             ~doc:"Core count, 1-8 (default: one per --benchmarks entry, \
                   or 2).  Benchmarks are cycled when N exceeds the list.")
  in
  let isa_arg =
    Arg.(value & opt string "arm"
         & info [ "isa" ] ~docv:"ISA"
             ~doc:"Core ISA for workload mode: $(b,arm) or $(b,fits) \
                   (per-core application-specific synthesis).")
  in
  let max_steps_arg =
    count_opt_arg "max-steps" ~doc:"Per-core watchdog budget (default 500M)."
  in
  let run litmus test seeds sched_s seed cores benchmarks isa scale max_steps
      jobs verbose =
    setup_logs verbose;
    let jobs = resolve_jobs jobs in
    let policy = resolve_sched sched_s in
    if litmus then mc_litmus ~policy ~seeds ~jobs test
    else mc_workload ~policy ~seed ~cores ~benchmarks ~isa ~scale ~max_steps
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Shared-memory multicore simulation: private I-caches with \
          per-core PowerFITS accounting, write-through snooping \
          coherence, deterministic seeded interleaving, and a \
          litmus-test harness checked against an operational memory \
          model.")
    Term.(const run $ litmus_arg $ test_arg $ seeds_arg $ mc_sched_arg
          $ seed_arg $ cores_arg $ benchmarks_arg $ isa_arg $ scale_arg
          $ max_steps_arg $ jobs_arg $ verbose_arg)

let main =
  Cmd.group
    (Cmd.info "powerfits" ~version:"1.0"
       ~doc:
         "Reproduction of PowerFITS (ISPASS 2005): application-specific \
          instruction-set synthesis for I-cache power.")
    [ list_cmd; profile_cmd; synth_cmd; disasm_cmd; run_cmd; report_cmd;
      figures_cmd; inject_cmd; multi_cmd; population_cmd; explore_cmd;
      serve_cmd; mc_cmd ]

let () =
  (* Structured simulation faults carry their own exit code: 3 for a
     divergence, 4 for any other failure (decode/memory fault, watchdog). *)
  try exit (Cmd.eval ~catch:false main)
  with Pf_util.Sim_error.Error e ->
    Printf.eprintf "powerfits: %s\n" (Pf_util.Sim_error.to_string e);
    exit (Pf_util.Sim_error.exit_code e)
