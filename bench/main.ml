(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation (§6, Figures 3-14), runs the DESIGN.md ablations, and times
   the simulator's building blocks with Bechamel.

   Figures print the same rows/series the paper reports: one row per
   benchmark, one column per configuration, plus the suite average quoted
   in the text.  Paper-vs-measured numbers are tracked in EXPERIMENTS.md. *)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* BENCH_sweep.json                                                    *)
(* ------------------------------------------------------------------ *)

(* Machine-readable timing record for the sweep (schema documented in
   EXPERIMENTS.md).  Hand-rolled JSON: the image deliberately carries no
   JSON library. *)

(* `--jobs N` fails like the CLI's on a malformed or non-positive count
   (a structured Invalid_config, exit 2) instead of quietly running with
   the default. *)
let jobs =
  let rec scan i =
    if i >= Array.length Sys.argv then None
    else
      match Sys.argv.(i) with
      | "--jobs" | "-j" when i + 1 < Array.length Sys.argv ->
          Some Sys.argv.(i + 1)
      | s when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
          Some (String.sub s 7 (String.length s - 7))
      | _ -> scan (i + 1)
  in
  match scan 1 with
  | None -> Pf_util.Pool.default_jobs ()
  | Some s -> (
      try
        match int_of_string_opt s with
        | Some j -> Pf_util.Pool.validate_jobs ~where:"bench" j
        | None ->
            Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
              ~where:"bench" "--jobs expects an integer, got %S" s
      with Pf_util.Sim_error.Error e ->
        prerr_endline (Pf_util.Sim_error.to_string e);
        exit 2)

(* `--engine reference|compiled` pins the execution engine of the
   figures sweep, the headline aggregate and the `--check` gate (default:
   compiled, the fast engine — the one whose regressions matter).  Both
   engines retire the identical architectural stream, so this changes
   throughput figures only, never results. *)
let engine_name = function
  | Pf_cpu.Arm_run.Reference -> "reference"
  | Pf_cpu.Arm_run.Compiled -> "compiled"

let engine =
  let of_name = function
    | "reference" -> Pf_cpu.Arm_run.Reference
    | "compiled" -> Pf_cpu.Arm_run.Compiled
    | s ->
        Printf.eprintf "bench: unknown --engine %s (want reference|compiled)\n" s;
        exit 2
  in
  let rec scan i =
    if i >= Array.length Sys.argv then None
    else
      match Sys.argv.(i) with
      | "--engine" when i + 1 < Array.length Sys.argv ->
          Some (of_name Sys.argv.(i + 1))
      | s when String.length s > 9 && String.sub s 0 9 = "--engine=" ->
          Some (of_name (String.sub s 9 (String.length s - 9)))
      | _ -> scan (i + 1)
  in
  match scan 1 with Some e -> e | None -> Pf_cpu.Arm_run.Compiled

(* `--check BASELINE.json` runs only the sequential sweep and compares its
   aggregate steps/sec against the committed baseline, exiting 2 on a
   >15% regression — the CI guard for simulator throughput. *)
let check_baseline =
  let rec scan i =
    if i >= Array.length Sys.argv then None
    else
      match Sys.argv.(i) with
      | "--check" when i + 1 < Array.length Sys.argv -> Some Sys.argv.(i + 1)
      | s when String.length s > 8 && String.sub s 0 8 = "--check=" ->
          Some (String.sub s 8 (String.length s - 8))
      | _ -> scan (i + 1)
  in
  scan 1

let phase_times : (string * float) list ref = ref []

let timed_phase name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  phase_times := (name, Unix.gettimeofday () -. t0) :: !phase_times;
  r

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> "unknown")
  with _ -> "unknown"

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Aggregate simulation rate of a sweep: total source instructions retired
   over total per-row wall-clock, counting only rows that finished.  Under
   `--jobs 1` the row times sum to the sweep's wall-clock, so this is the
   sequential steps/sec figure the baseline records. *)
let row_insns (row : Pf_harness.Experiment.sweep_row) =
  match row.Pf_harness.Experiment.outcome with
  | Ok r ->
      (* source instructions retired across the two recorded executions
         plus the two replays *)
      r.Pf_harness.Experiment.arm16.Pf_harness.Experiment.instructions
      + r.Pf_harness.Experiment.arm8.Pf_harness.Experiment.instructions
      + r.Pf_harness.Experiment.fits16.Pf_harness.Experiment.instructions
      + r.Pf_harness.Experiment.fits8.Pf_harness.Experiment.instructions
  | Error _ -> 0

let aggregate_steps_per_sec (sweep : Pf_harness.Experiment.sweep) =
  let insns, sim_s =
    List.fold_left
      (fun (i, s) (row : Pf_harness.Experiment.sweep_row) ->
        if Result.is_ok row.Pf_harness.Experiment.outcome then
          (i + row_insns row, s +. row.Pf_harness.Experiment.elapsed_s)
        else (i, s))
      (0, 0.) sweep.Pf_harness.Experiment.rows
  in
  if sim_s > 0. then float_of_int insns /. sim_s else 0.

(* ------------------------------------------------------------------ *)
(* Explore (DSE) throughput                                            *)
(* ------------------------------------------------------------------ *)

(* Replay throughput of the design-space engine: a smoke-grid explore over
   a 3-benchmark subset, sequential, measured in trace events replayed per
   second of per-row wall clock.  This is the figure the full-grid sweep's
   runtime scales with, so it gets its own baseline in BENCH_sweep.json. *)
let explore_subset = [ "crc32"; "sha"; "fft" ]

let events_per_sec ?engine ~label space =
  let benchmarks = List.map Pf_mibench.Registry.find_exn explore_subset in
  let t = Pf_dse.Explore.run ~jobs:1 ?engine ~benchmarks space in
  let events = Pf_dse.Explore.replayed_events t in
  let sim_s =
    List.fold_left
      (fun s (r : Pf_dse.Explore.row) -> s +. r.Pf_dse.Explore.elapsed_s)
      0. t.Pf_dse.Explore.rows
  in
  if t.Pf_dse.Explore.completed < t.Pf_dse.Explore.total then begin
    Printf.printf "%s: only %d/%d benchmarks completed\n" label
      t.Pf_dse.Explore.completed t.Pf_dse.Explore.total;
    0.
  end
  else if sim_s > 0. then float_of_int events /. sim_s
  else 0.

let explore_events_per_sec () =
  events_per_sec ~label:"explore smoke" Pf_dse.Space.smoke

let run_explore_throughput () =
  heading
    (Printf.sprintf "explore throughput (smoke grid, %s, sequential)"
       (String.concat "/" explore_subset));
  let rate = explore_events_per_sec () in
  Printf.printf "replayed %s events/sec across the geometry grid\n"
    (Printf.sprintf "%.0f" rate);
  rate

(* Single-pass sweep throughput: the dense grid (~1058 geometries, 133
   stack profiles) over the same subset, sequential, with the engine
   pinned to [Sweep].  The unit matches the explore figure — trace
   events × geometries per second of per-row wall clock — so the ratio
   of the two rates is the sweep kernel's per-geometry speedup over
   replay. *)
let sweep_events_per_sec () =
  events_per_sec ~engine:Pf_dse.Space.Sweep ~label:"sweep dense"
    Pf_dse.Space.dense

let run_sweep_throughput ~explore_rate =
  heading
    (Printf.sprintf "sweep throughput (dense grid, %s, sequential)"
       (String.concat "/" explore_subset));
  let rate = sweep_events_per_sec () in
  Printf.printf "swept %.0f events/sec across the geometry grid\n" rate;
  if explore_rate > 0. && rate > 0. then
    Printf.printf "(%.1fx the replay engine's per-geometry rate)\n"
      (rate /. explore_rate);
  rate

(* ------------------------------------------------------------------ *)
(* Serve throughput                                                    *)
(* ------------------------------------------------------------------ *)

(* End-to-end service throughput: an in-process daemon (4 workers, fresh
   throwaway store, fsync off so the figure measures the service, not
   the disk) driven by the load generator with 1000 requests over 4
   client domains.  The small deterministic corpus repeats, so most
   requests are cache hits — this is the steady-state figure a warm
   daemon sustains, with p50/p99 request latency alongside. *)
let serve_requests = 1000
let serve_conns = 4

let run_serve_phase () =
  heading
    (Printf.sprintf "serve throughput (%d requests, %d client domains)"
       serve_requests serve_conns);
  let stamp = int_of_float (Unix.gettimeofday () *. 1000.) in
  let base = Filename.get_temp_dir_name () in
  let socket = Filename.concat base (Printf.sprintf "pf-bench-%d.sock" stamp) in
  let store_dir = Filename.concat base (Printf.sprintf "pf-bench-%d.store" stamp) in
  let cfg =
    {
      Pf_serve.Daemon.default_config with
      Pf_serve.Daemon.socket_path = socket;
      store_dir = Some store_dir;
      jobs = 4;
      fsync = false;
    }
  in
  let daemon = Domain.spawn (fun () -> Pf_serve.Daemon.run ~log:ignore cfg) in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Pf_serve.Client.shutdown ~socket ()) with _ -> ());
        Domain.join daemon)
      (fun () ->
        Pf_serve.Loadgen.run ~socket ~requests:serve_requests
          ~conns:serve_conns ~seed:1 ())
  in
  (* throwaway store: the figure must start cold every run *)
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  (try rm store_dir with Sys_error _ | Unix.Unix_error _ -> ());
  print_endline (Pf_serve.Loadgen.summary result);
  result

(* ------------------------------------------------------------------ *)
(* Population throughput                                               *)
(* ------------------------------------------------------------------ *)

(* Workload-generation + population-campaign throughput: a sequential
   seeded 96-program campaign (DESIGN.md §16).  Two figures come out:
   how fast the generator emits calibrated programs, and how fast the
   campaign simulates (trace-once ARM16 baseline + two FITS8 runs per
   program, shared synthesis included in the denominator). *)
let population_count = 96

let run_population_phase () =
  heading
    (Printf.sprintf "population throughput (%d programs, sequential)"
       population_count);
  let r =
    Pf_workgen.Population.run ~jobs:1 ~count:population_count ~seed:42 ()
  in
  let gen_rate =
    float_of_int r.Pf_workgen.Population.count
    /. Float.max 1e-9 r.Pf_workgen.Population.gen_s
  in
  let steps_rate =
    float_of_int r.Pf_workgen.Population.total_steps
    /. Float.max 1e-9 r.Pf_workgen.Population.eval_s
  in
  Printf.printf
    "generated %.0f programs/sec; campaign simulated %.0f src-insns/sec \
     (%d rows ok, %d failed, calib max chi2 %.4f)\n"
    gen_rate steps_rate
    (List.length r.Pf_workgen.Population.rows)
    (List.length r.Pf_workgen.Population.failures)
    r.Pf_workgen.Population.calib_max_distance;
  (gen_rate, steps_rate)

(* ------------------------------------------------------------------ *)
(* Multicore throughput                                                *)
(* ------------------------------------------------------------------ *)

(* Interleaving-machine throughput: a 4-core machine (one ARM benchmark
   image per core, private memories, seeded random scheduler) run to
   completion, measured in retired instructions per second of wall
   clock.  One machine slice retires at most one instruction, so this is
   also the slice rate — the figure the litmus seed sweeps (1000
   interleavings x 7 tests) scale with. *)
let mc_cores = [ "crc32"; "bitcount"; "sha"; "stringsearch" ]

let run_mc_phase () =
  heading
    (Printf.sprintf
       "multicore throughput (%d-core machine, seeded random scheduler)"
       (List.length mc_cores));
  let cores =
    Array.of_list
      (List.map
         (fun name ->
           let b = Pf_mibench.Registry.find name in
           let p = b.Pf_mibench.Registry.program ~scale:1 in
           let image =
             Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
           in
           (name, Pf_mc.Machine.arm_core image))
         mc_cores)
  in
  let sched =
    Pf_mc.Sched.create ~policy:Pf_mc.Sched.Seeded_random
      ~ncores:(Array.length cores) 1
  in
  let m = Pf_mc.Machine.create ~sched cores in
  let t0 = Unix.gettimeofday () in
  Pf_mc.Machine.run m;
  let el = Unix.gettimeofday () -. t0 in
  let r = Pf_mc.Machine.report m in
  let rate =
    if el > 0. then float_of_int r.Pf_mc.Machine.instructions /. el else 0.
  in
  Printf.printf "%d cores retired %d instructions over %d slices: %.0f \
                 insns/sec\n"
    (List.length mc_cores) r.Pf_mc.Machine.instructions
    r.Pf_mc.Machine.slices rate;
  rate

(* Baseline parser for `--check`.  Hand-rolled like the writer (no JSON
   library in the image): pull the `"instructions": N` / `"sim_s": X`
   pairs out of `"ok": true` benchmark rows — works on both schema 1 and
   schema 2 files, since the row shape never changed. *)
let baseline_aggregate file =
  let ic = open_in file in
  let insns = ref 0 and sim_s = ref 0. in
  let field line key =
    (* value substring following `"key": `, up to `,`/`}`/end *)
    let pat = Printf.sprintf "\"%s\": " key in
    let n = String.length pat and m = String.length line in
    let rec find i =
      if i + n > m then None
      else if String.sub line i n = pat then Some (i + n)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
        let stop = ref start in
        while
          !stop < m
          && (match line.[!stop] with ',' | '}' | ' ' -> false | _ -> true)
        do
          incr stop
        done;
        Some (String.sub line start (!stop - start))
  in
  (try
     while true do
       let line = input_line ic in
       match (field line "ok", field line "instructions", field line "sim_s")
       with
       | Some "true", Some i, Some s ->
           insns := !insns + int_of_string i;
           sim_s := !sim_s +. float_of_string s
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  if !sim_s > 0. then float_of_int !insns /. !sim_s
  else (
    Printf.eprintf "--check: no usable benchmark rows in %s\n" file;
    exit 2)

(* Top-level scalar of the baseline file, e.g. `"explore_events_per_sec":
   12345` — [None] when the key is absent (pre-schema-3 baselines). *)
let baseline_scalar file key =
  let ic = open_in file in
  let pat = Printf.sprintf "\"%s\": " key in
  let n = String.length pat in
  let value = ref None in
  (try
     while !value = None do
       let line = input_line ic in
       let m = String.length line in
       let rec find i =
         if i + n > m then ()
         else if String.sub line i n = pat then begin
           let stop = ref (i + n) in
           while
             !stop < m
             && (match line.[!stop] with
                | ',' | '}' | ' ' -> false
                | _ -> true)
           do
             incr stop
           done;
           value := float_of_string_opt (String.sub line (i + n) (!stop - i - n))
         end
         else find (i + 1)
       in
       find 0
     done
   with End_of_file -> ());
  close_in ic;
  !value

let run_check file =
  let baseline = baseline_aggregate file in
  heading
    (Printf.sprintf "throughput regression check vs %s (sequential sweep)"
       file);
  let sweep = timed_phase "check_sweep" (fun () ->
      Pf_harness.Experiment.run_all ~jobs:1 ~engine ())
  in
  Printf.printf "engine: %s\n" (engine_name engine);
  let current = aggregate_steps_per_sec sweep in
  let ratio = if baseline > 0. then current /. baseline else infinity in
  Printf.printf "baseline aggregate: %.0f steps/sec\n" baseline;
  Printf.printf "current aggregate:  %.0f steps/sec (%.2fx)\n" current ratio;
  if sweep.Pf_harness.Experiment.completed
     < sweep.Pf_harness.Experiment.total
  then begin
    Printf.printf "CHECK FAILED: %d/%d benchmarks completed\n"
      sweep.Pf_harness.Experiment.completed sweep.Pf_harness.Experiment.total;
    exit 2
  end;
  if ratio < 0.85 then begin
    Printf.printf
      "CHECK FAILED: aggregate steps/sec dropped %.1f%% (>15%% budget)\n"
      ((1. -. ratio) *. 100.);
    exit 2
  end;
  (match baseline_scalar file "explore_events_per_sec" with
  | None ->
      Printf.printf
        "(baseline predates explore throughput; skipping that gate)\n"
  | Some explore_base when explore_base > 0. ->
      let explore_now =
        timed_phase "check_explore" explore_events_per_sec
      in
      let er = explore_now /. explore_base in
      Printf.printf "baseline explore: %.0f events/sec\n" explore_base;
      Printf.printf "current explore:  %.0f events/sec (%.2fx)\n" explore_now
        er;
      if er < 0.85 then begin
        Printf.printf
          "CHECK FAILED: explore events/sec dropped %.1f%% (>15%% budget)\n"
          ((1. -. er) *. 100.);
        exit 2
      end
  | Some _ ->
      Printf.printf "--check: unusable explore_events_per_sec baseline\n";
      exit 2);
  (match baseline_scalar file "sweep_events_per_sec" with
  | None ->
      Printf.printf
        "(baseline predates sweep throughput; skipping that gate)\n"
  | Some sweep_base when sweep_base > 0. ->
      let sweep_now = timed_phase "check_sweep_engine" sweep_events_per_sec in
      let sr = sweep_now /. sweep_base in
      Printf.printf "baseline sweep: %.0f events/sec\n" sweep_base;
      Printf.printf "current sweep:  %.0f events/sec (%.2fx)\n" sweep_now sr;
      if sr < 0.85 then begin
        Printf.printf
          "CHECK FAILED: sweep events/sec dropped %.1f%% (>15%% budget)\n"
          ((1. -. sr) *. 100.);
        exit 2
      end
  | Some _ ->
      Printf.printf "--check: unusable sweep_events_per_sec baseline\n";
      exit 2);
  (match
     ( baseline_scalar file "population_gen_programs_per_sec",
       baseline_scalar file "population_steps_per_sec" )
   with
  | None, None ->
      Printf.printf
        "(baseline predates population throughput; skipping that gate)\n"
  | gen_base, steps_base ->
      let gen_now, steps_now =
        timed_phase "check_population" run_population_phase
      in
      let gate label base now =
        match base with
        | None ->
            Printf.printf "(baseline lacks population %s; skipping)\n" label
        | Some base when base > 0. ->
            let r = now /. base in
            Printf.printf "baseline population %s: %.0f/sec\n" label base;
            Printf.printf "current population %s:  %.0f/sec (%.2fx)\n" label
              now r;
            if r < 0.85 then begin
              Printf.printf
                "CHECK FAILED: population %s dropped %.1f%% (>15%% budget)\n"
                label
                ((1. -. r) *. 100.);
              exit 2
            end
        | Some _ ->
            Printf.printf "--check: unusable population %s baseline\n" label;
            exit 2
      in
      gate "gen_programs" gen_base gen_now;
      gate "steps" steps_base steps_now);
  (match baseline_scalar file "mc_steps_per_sec" with
  | None ->
      Printf.printf "(baseline predates mc throughput; skipping that gate)\n"
  | Some mc_base when mc_base > 0. ->
      let mc_now = timed_phase "check_mc" run_mc_phase in
      let mr = mc_now /. mc_base in
      Printf.printf "baseline mc: %.0f insns/sec\n" mc_base;
      Printf.printf "current mc:  %.0f insns/sec (%.2fx)\n" mc_now mr;
      if mr < 0.85 then begin
        Printf.printf
          "CHECK FAILED: mc insns/sec dropped %.1f%% (>15%% budget)\n"
          ((1. -. mr) *. 100.);
        exit 2
      end
  | Some _ ->
      Printf.printf "--check: unusable mc_steps_per_sec baseline\n";
      exit 2);
  Printf.printf "check OK: within the 15%% regression budget\n"

(* Per-engine throughput matrix: the same sequential 21-benchmark sweep
   under each execution engine.  Results are engine-invariant (the
   differential tests pin that), so the aggregates differ only in
   simulator speed — the compiled engine's speedup over the interpreters
   is the ratio of its row to theirs. *)
let engine_matrix () =
  heading "engine throughput matrix (sequential 21-benchmark sweep)";
  List.map
    (fun e ->
      let sweep = Pf_harness.Experiment.run_all ~jobs:1 ~engine:e () in
      let rate = aggregate_steps_per_sec sweep in
      Printf.printf "  %-10s %11.0f steps/sec (%d/%d benchmarks)\n"
        (engine_name e) rate sweep.Pf_harness.Experiment.completed
        sweep.Pf_harness.Experiment.total;
      (engine_name e, rate))
    [ Pf_cpu.Arm_run.Reference; Pf_cpu.Arm_run.Compiled ]

let write_sweep_json ~engine_rates ~explore_rate ~sweep_rate ~serve
    ~population:(pop_gen_rate, pop_steps_rate) ~mc_rate
    (sweep : Pf_harness.Experiment.sweep) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": 8,\n";
  Printf.bprintf b "  \"engine\": \"%s\",\n" (engine_name engine);
  Printf.bprintf b "  \"git_rev\": \"%s\",\n" (json_escape (git_rev ()));
  Printf.bprintf b "  \"jobs\": %d,\n" sweep.Pf_harness.Experiment.jobs;
  Printf.bprintf b "  \"completed\": %d,\n"
    sweep.Pf_harness.Experiment.completed;
  Printf.bprintf b "  \"total\": %d,\n" sweep.Pf_harness.Experiment.total;
  Printf.bprintf b "  \"aggregate_steps_per_sec\": %.0f,\n"
    (aggregate_steps_per_sec sweep);
  Buffer.add_string b "  \"aggregate_steps_per_sec_by_engine\": {\n";
  List.iteri
    (fun i (name, rate) ->
      Printf.bprintf b "    \"%s\": %.0f%s\n" name rate
        (if i = List.length engine_rates - 1 then "" else ","))
    engine_rates;
  Buffer.add_string b "  },\n";
  Printf.bprintf b "  \"explore_events_per_sec\": %.0f,\n" explore_rate;
  Printf.bprintf b "  \"sweep_events_per_sec\": %.0f,\n" sweep_rate;
  Printf.bprintf b "  \"serve_requests_per_sec\": %.0f,\n"
    serve.Pf_serve.Loadgen.throughput_rps;
  Printf.bprintf b "  \"serve\": %s,\n"
    (Pf_serve.Json.to_string (Pf_serve.Loadgen.to_json serve));
  Printf.bprintf b "  \"population_gen_programs_per_sec\": %.0f,\n"
    pop_gen_rate;
  Printf.bprintf b "  \"population_steps_per_sec\": %.0f,\n" pop_steps_rate;
  Printf.bprintf b "  \"mc_steps_per_sec\": %.0f,\n" mc_rate;
  Buffer.add_string b "  \"phases\": {\n";
  let phases = List.rev !phase_times in
  List.iteri
    (fun i (name, s) ->
      Printf.bprintf b "    \"%s\": %.3f%s\n" (json_escape name) s
        (if i = List.length phases - 1 then "" else ","))
    phases;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"benchmarks\": [\n";
  let rows = sweep.Pf_harness.Experiment.rows in
  List.iteri
    (fun i (row : Pf_harness.Experiment.sweep_row) ->
      let insns = row_insns row in
      let el = row.Pf_harness.Experiment.elapsed_s in
      Printf.bprintf b
        "    { \"name\": \"%s\", \"ok\": %b, \"sim_s\": %.3f, \
         \"instructions\": %d, \"steps_per_sec\": %.0f }%s\n"
        (json_escape row.Pf_harness.Experiment.bench)
        (Result.is_ok row.Pf_harness.Experiment.outcome)
        el insns
        (if el > 0. then float_of_int insns /. el else 0.)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Pf_util.Atomic_file.write ~path:"BENCH_sweep.json" (Buffer.contents b);
  Printf.printf "\n(wrote BENCH_sweep.json: jobs=%d, %d phases timed)\n"
    sweep.Pf_harness.Experiment.jobs (List.length phases)

(* ------------------------------------------------------------------ *)
(* Figures 3-14                                                        *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  heading "PowerFITS evaluation figures (21-benchmark suite, scale 1)";
  let t0 = Unix.gettimeofday () in
  let sweep = Pf_harness.Experiment.run_all ~jobs ~engine () in
  Printf.printf
    "(simulated %d/%d benchmarks x 4 configurations in %.1f s, jobs=%d, \
     engine=%s)\n"
    sweep.Pf_harness.Experiment.completed sweep.Pf_harness.Experiment.total
    (Unix.gettimeofday () -. t0)
    sweep.Pf_harness.Experiment.jobs (engine_name engine);
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
    peak_max;
  sweep

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

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  heading "microbenchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let crc_image, crc_dyn = build "crc32" in
  let syn = Pf_fits.Synthesis.synthesize crc_image ~dyn_counts:crc_dyn in
  let sample_insn =
    Pf_arm.Insn.Dp
      { cond = Pf_arm.Insn.AL; op = Pf_arm.Insn.ADD; s = false; rd = 1;
        rn = 2; op2 = Pf_arm.Insn.Reg_shift (3, Pf_arm.Insn.LSL, 2) }
  in
  let word = Pf_arm.Encode.encode sample_insn in
  let cache =
    Pf_cache.Icache.create (Pf_cache.Icache.config ~size_bytes:16384 ())
  in
  let addr = ref 0 in
  let tests =
    Test.make_grouped ~name:"powerfits"
      [
        Test.make ~name:"arm-encode"
          (Staged.stage (fun () -> Pf_arm.Encode.encode sample_insn));
        Test.make ~name:"arm-decode"
          (Staged.stage (fun () -> Pf_arm.Decode.decode word));
        Test.make ~name:"icache-access"
          (Staged.stage (fun () ->
               addr := (!addr + 4) land 0xFFFF;
               Pf_cache.Icache.access cache ~addr:!addr ~data:word));
        Test.make ~name:"exec-1k-insns"
          (Staged.stage (fun () ->
               let st = Pf_arm.Exec.create crc_image in
               let n = ref 0 in
               try
                 Pf_arm.Exec.run st ~on_step:(fun _ ~pc:_ _ _ ->
                     incr n;
                     if !n >= 1000 then raise Exit)
               with Exit -> ()));
        (let prog = Pf_arm.Pexec.compile crc_image in
         Test.make ~name:"pexec-1k-insns"
           (Staged.stage (fun () ->
                let st = Pf_arm.Exec.create crc_image in
                try Pf_arm.Pexec.run ~max_steps:1000 prog st
                with Pf_util.Sim_error.Error _ -> ())));
        Test.make ~name:"synthesize-crc32"
          (Staged.stage (fun () ->
               Pf_fits.Synthesis.synthesize crc_image ~dyn_counts:crc_dyn));
        Test.make ~name:"translate-crc32"
          (Staged.stage (fun () ->
               Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec
                 crc_image));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "  %-28s %14.1f ns/run\n" name est
         | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)

let () =
  match check_baseline with
  | Some file -> run_check file
  | None ->
  let sweep = timed_phase "figures_sweep" run_figures in
  timed_phase "ablations" (fun () ->
      ablation_ais ();
      ablation_dict ();
      ablation_two_op ();
      ablation_fetch_buffer ());
  timed_phase "scale_robustness" scale_robustness;
  timed_phase "cross_application" cross_application;
  let engine_rates = timed_phase "engine_matrix" engine_matrix in
  let explore_rate = timed_phase "explore_smoke" run_explore_throughput in
  let sweep_rate =
    timed_phase "sweep_dense" (fun () -> run_sweep_throughput ~explore_rate)
  in
  let serve = timed_phase "serve_loadgen" run_serve_phase in
  let population = timed_phase "population" run_population_phase in
  let mc_rate = timed_phase "mc_machine" run_mc_phase in
  timed_phase "microbenchmarks" (fun () ->
      try microbenchmarks ()
      with e ->
        Printf.printf "microbenchmarks skipped: %s\n" (Printexc.to_string e));
  write_sweep_json ~engine_rates ~explore_rate ~sweep_rate ~serve ~population
    ~mc_rate sweep;
  print_newline ()
