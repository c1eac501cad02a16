(* Design-space exploration subsystem: space validation and enumeration,
   Pareto extraction, analytic power-scaling calibration, and the headline
   acceptance property — explored grid points at the paper geometries
   reproduce the experiment harness numbers bit-for-bit, for any --jobs. *)

module Space = Pf_dse.Space
module Pareto = Pf_dse.Pareto
module Explore = Pf_dse.Explore
module C = Pf_cache.Icache
module E = Pf_harness.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_exact = Alcotest.(check (float 0.0))

(* ---- Space ------------------------------------------------------------- *)

let test_space_grids () =
  let smoke = Space.cardinality Space.smoke in
  check_int "smoke geometries" 6 smoke.Space.feasible;
  check_int "smoke variants" 2 smoke.Space.variants;
  check_int "smoke skipped" 0 smoke.Space.skipped;
  let full = Space.cardinality Space.full in
  check_int "full combos" 36 full.Space.combos;
  check_bool "full grid meets the >= 24 geometry bar" true
    (full.Space.feasible >= 24);
  check_int "full points per benchmark" (full.Space.feasible * 2)
    full.Space.points;
  List.iter
    (fun space ->
      let geoms = Space.geometries space in
      check_bool "contains the 16K paper point" true
        (List.mem Space.cache_16k geoms);
      check_bool "contains the 8K paper point" true
        (List.mem Space.cache_8k geoms))
    [ Space.smoke; Space.full ];
  (* the cost model is the 2 executions + 2N replays contract *)
  let cost = Space.cost ~benchmarks:21 Space.full in
  check_int "2 executions per benchmark" (21 * 2) cost.Space.executions;
  check_int "2N replays per benchmark"
    (21 * 2 * full.Space.feasible)
    cost.Space.replays

let test_space_feasibility_filter () =
  (* 1 KB with 64 B blocks has 16 lines: 32 ways is infeasible and must be
     skipped deterministically, not crash the sweep *)
  let s = Space.make ~sizes:[ 1024 ] ~blocks:[ 64 ] ~assocs:[ 1; 32 ] () in
  let c = Space.cardinality s in
  check_int "combos" 2 c.Space.combos;
  check_int "feasible" 1 c.Space.feasible;
  check_int "skipped" 1 c.Space.skipped;
  match Space.geometries s with
  | [ g ] -> check_int "survivor is the direct-mapped point" 1 g.C.assoc
  | gs -> Alcotest.failf "expected 1 geometry, got %d" (List.length gs)

let test_space_validation () =
  let invalid what mk =
    match mk () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Pf_util.Sim_error.Error e ->
        check_bool (what ^ ": Invalid_config") true
          (e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Invalid_config)
  in
  invalid "empty sizes axis" (fun () -> Space.make ~sizes:[] ());
  invalid "non-power-of-two size" (fun () -> Space.make ~sizes:[ 3000 ] ());
  invalid "non-power-of-two assoc" (fun () ->
      Space.make ~sizes:[ 1024 ] ~assocs:[ 3 ] ());
  invalid "non-positive dict budget" (fun () ->
      Space.make ~sizes:[ 1024 ] ~dict_budgets:[ Some 0 ] ());
  invalid "fully infeasible space" (fun () ->
      Space.make ~sizes:[ 64 ] ~blocks:[ 64 ] ~assocs:[ 2 ] ())

let test_space_parsing () =
  check_bool "smoke by name" true (Space.of_string "smoke" = Ok Space.smoke);
  check_bool "full by name" true (Space.of_string "full" = Ok Space.full);
  (match Space.of_string "sizes=1k,2k;assocs=2;dicts=none,96" with
  | Error e -> Alcotest.failf "custom spec rejected: %s" e
  | Ok s ->
      check_bool "sizes parsed with k suffix" true
        (s.Space.sizes = [ 1024; 2048 ]);
      check_bool "blocks default" true (s.Space.blocks = [ 32 ]);
      check_bool "assocs parsed" true (s.Space.assocs = [ 2 ]);
      check_bool "dicts parsed, none first" true
        (s.Space.dict_budgets = [ None; Some 96 ]));
  check_bool "unknown key rejected" true
    (Result.is_error (Space.of_string "sizes=1k;bogus=3"));
  check_bool "garbage rejected" true (Result.is_error (Space.of_string "no"));
  check_bool "degenerate spec rejected" true
    (Result.is_error (Space.of_string "sizes=3000"))

let test_space_labels () =
  check_bool "16K label" true (Space.label Space.cache_16k = "16K/32B/32w");
  check_bool "paper point arm16" true
    (Space.paper_point ~arm:true Space.cache_16k = Some "ARM16");
  check_bool "paper point fits8" true
    (Space.paper_point ~arm:false Space.cache_8k = Some "FITS8");
  check_bool "non-paper geometry unannotated" true
    (Space.paper_point ~arm:true
       (C.config ~size_bytes:4096 ~assoc:8 ())
    = None)

(* ---- Pareto ------------------------------------------------------------ *)

let obj ?(energy = 1.0) ?(ipc = 1.0) ?(miss = 1.0) ?(area = 1.0) () =
  { Pareto.energy; ipc; miss_rate_pm = miss; area }

let test_pareto_units () =
  let a = obj ~energy:1.0 () in
  let worse = obj ~energy:2.0 () in
  let trade = obj ~energy:0.5 ~ipc:0.5 () in
  check_bool "dominates on one strict axis" true (Pareto.dominates a worse);
  check_bool "no reverse domination" false (Pareto.dominates worse a);
  check_bool "trade-off points incomparable" false (Pareto.dominates a trade);
  check_bool "identical points never dominate" false (Pareto.dominates a a);
  let f =
    Pareto.frontier [ ("w", worse); ("a", a); ("t", trade); ("a2", a) ]
  in
  check_int "dominated count" 1 f.Pareto.dominated;
  check_int "total" 4 f.Pareto.total;
  check_bool "input order kept, exact ties both kept" true
    (List.map fst f.Pareto.frontier = [ "a"; "t"; "a2" ])

let test_pareto_higher_ipc_wins () =
  let slow = obj ~ipc:0.5 () in
  let fast = obj ~ipc:0.9 () in
  check_bool "IPC is maximized" true (Pareto.dominates fast slow);
  let f = Pareto.frontier [ ("slow", slow); ("fast", fast) ] in
  check_bool "only the fast point survives" true
    (List.map fst f.Pareto.frontier = [ "fast" ])

(* ---- analytic power scaling -------------------------------------------- *)

let test_params_calibration () =
  let params_at cfg =
    Pf_power.Account.Params.for_geometry (Pf_power.Geometry.of_config cfg)
  in
  check_bool "16K paper point sees the calibrated defaults" true
    (params_at Space.cache_16k = Pf_power.Account.Params.default);
  check_bool "8K paper point sees the calibrated defaults" true
    (params_at Space.cache_8k = Pf_power.Account.Params.default);
  (* halving the probed ways halves the per-access energy *)
  let p16w = params_at (C.config ~size_bytes:(16 * 1024) ~assoc:16 ()) in
  check_exact "16-way k_access" 17.0 p16w.Pf_power.Account.Params.k_access;
  (* halving the block halves the read width the same way *)
  let pb16 =
    params_at (C.config ~size_bytes:(16 * 1024) ~block_bytes:16 ())
  in
  check_exact "16B-block k_access" 17.0 pb16.Pf_power.Account.Params.k_access;
  (* other coefficients are per-bit / per-gate and must not move *)
  check_exact "k_output untouched" 0.30
    p16w.Pf_power.Account.Params.k_output;
  check_exact "k_internal untouched" 3.4e-4
    p16w.Pf_power.Account.Params.k_internal_per_gate;
  (* index width is exposed for the address path *)
  let g = Pf_power.Geometry.of_config Space.cache_16k in
  check_int "index bits of 16 sets" 4 g.Pf_power.Geometry.index_bits

(* ---- explore: paper points reproduce the harness exactly ---------------- *)

let bench name = Pf_mibench.Registry.find_exn name

let check_point what (pc : E.per_config) (p : Explore.point) =
  let m = p.Explore.metrics in
  check_int (what ^ " instructions") pc.E.instructions m.Explore.instructions;
  check_int (what ^ " cycles") pc.E.cycles m.Explore.cycles;
  check_exact (what ^ " ipc") pc.E.ipc m.Explore.ipc;
  check_int (what ^ " fetch accesses") pc.E.fetch_accesses
    m.Explore.fetch_accesses;
  check_int (what ^ " cache misses") pc.E.cache_misses m.Explore.cache_misses;
  check_exact (what ^ " miss rate") pc.E.miss_rate_pm m.Explore.miss_rate_pm;
  check_exact (what ^ " dcache rate") pc.E.dcache_miss_rate_pm
    m.Explore.dcache_miss_rate_pm;
  let pe = pc.E.power and pm = m.Explore.power in
  check_exact (what ^ " switching") pe.Pf_power.Account.switching
    pm.Pf_power.Account.switching;
  check_exact (what ^ " internal") pe.Pf_power.Account.internal
    pm.Pf_power.Account.internal;
  check_exact (what ^ " leakage") pe.Pf_power.Account.leakage
    pm.Pf_power.Account.leakage;
  check_exact (what ^ " total") pe.Pf_power.Account.total
    pm.Pf_power.Account.total;
  check_exact (what ^ " peak") pe.Pf_power.Account.peak_power
    pm.Pf_power.Account.peak_power;
  check_int (what ^ " power cycles") pe.Pf_power.Account.cycles
    pm.Pf_power.Account.cycles

let test_paper_points_exact () =
  let b = bench "crc32" in
  let expected = E.run_benchmark b in
  let t = Explore.run ~jobs:1 ~benchmarks:[ b ] Space.smoke in
  check_int "completed" 1 t.Explore.completed;
  match Explore.completed_runs t with
  | [ br ] ->
      check_bool "outputs consistent" true br.Explore.outputs_consistent;
      let find variant geometry =
        List.find
          (fun (p : Explore.point) ->
            p.Explore.variant = variant && p.Explore.geometry = geometry)
          br.Explore.points
      in
      check_point "arm16" expected.E.arm16 (find Explore.Arm Space.cache_16k);
      check_point "arm8" expected.E.arm8 (find Explore.Arm Space.cache_8k);
      check_point "fits16" expected.E.fits16
        (find (Explore.Fits None) Space.cache_16k);
      check_point "fits8" expected.E.fits8
        (find (Explore.Fits None) Space.cache_8k)
  | rs -> Alcotest.failf "expected 1 completed run, got %d" (List.length rs)

(* ---- explore: jobs independence ---------------------------------------- *)

let strip_elapsed (t : Explore.t) =
  List.map (fun r -> { r with Explore.elapsed_s = 0.0 }) t.Explore.rows

let test_jobs_independent () =
  let benchmarks = [ bench "crc32"; bench "sha" ] in
  let t1 = Explore.run ~jobs:1 ~benchmarks Space.smoke in
  let t4 = Explore.run ~jobs:4 ~benchmarks Space.smoke in
  check_bool "rows identical for jobs 1 vs 4" true
    (strip_elapsed t1 = strip_elapsed t4);
  Alcotest.(check string)
    "CSV emission (points + frontiers) identical" (Explore.to_csv t1)
    (Explore.to_csv t4);
  check_bool "aggregate frontier identical" true
    (Explore.frontier_of (Explore.aggregate t1)
    = Explore.frontier_of (Explore.aggregate t4))

(* ---- explore: dict-budget variants ------------------------------------- *)

let test_dict_budget_variant () =
  let space =
    Space.make
      ~sizes:[ 16 * 1024 ]
      ~dict_budgets:[ None; Some 24 ]
      ()
  in
  let t = Explore.run ~jobs:1 ~benchmarks:[ bench "crc32" ] space in
  match Explore.completed_runs t with
  | [ br ] ->
      check_int "three variants x one geometry" 3
        (List.length br.Explore.points);
      check_bool "outputs consistent under a capped dictionary" true
        br.Explore.outputs_consistent;
      let fits_free =
        List.find
          (fun p -> p.Explore.variant = Explore.Fits None)
          br.Explore.points
      and fits_cap =
        List.find
          (fun p -> p.Explore.variant = Explore.Fits (Some 24))
          br.Explore.points
      in
      check_int "same source instruction count"
        fits_free.Explore.metrics.Explore.instructions
        fits_cap.Explore.metrics.Explore.instructions;
      check_bool "capping the dictionary cannot reduce cycles" true
        (fits_cap.Explore.metrics.Explore.cycles
        >= fits_free.Explore.metrics.Explore.cycles)
  | rs -> Alcotest.failf "expected 1 completed run, got %d" (List.length rs)

(* ---- replay at G == direct execution at G (QCheck over geometries) ------ *)

let replay_setup =
  lazy
    (let b = bench "crc32" in
     let p = b.Pf_mibench.Registry.program ~scale:1 in
     let image =
       Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
     in
     let trace = Pf_cpu.Trace.create ~isize:4 () in
     let r =
       Pf_cpu.Arm_run.run ~cache_cfg:Space.recording_point ~trace image
     in
     (image, trace, r))

let geometry_gen =
  QCheck.Gen.(
    int_range 9 14 >>= fun size_log ->
    int_range 2 (min 6 size_log) >>= fun block_log ->
    int_range 0 (min 5 (size_log - block_log)) >>= fun assoc_log ->
    return
      (C.config
         ~size_bytes:(1 lsl size_log)
         ~block_bytes:(1 lsl block_log)
         ~assoc:(1 lsl assoc_log) ()))

let geometry_arb =
  QCheck.make ~print:(fun g -> Space.label g) geometry_gen

let prop_replay_equals_direct =
  QCheck.Test.make
    ~name:
      "replaying a recorded trace at geometry G is bit-identical to direct \
       execution at G (cycles, toggles, power)"
    ~count:12 geometry_arb
    (fun g ->
      let image, trace, recorded = Lazy.force replay_setup in
      let direct_cache = C.create g in
      let direct = Pf_cpu.Arm_run.run ~cache:direct_cache ~cache_cfg:g image in
      let replay_cache = C.create g in
      let replayed =
        Pf_cpu.Trace.replay ~cache:replay_cache ~cache_cfg:g
          ~fetch_data:(fun a -> Pf_arm.Image.word_at image a)
          trace
      in
      direct.Pf_cpu.Arm_run.instructions
      = replayed.Pf_cpu.Trace.instructions
      && direct.Pf_cpu.Arm_run.cycles = replayed.Pf_cpu.Trace.cycles
      && direct.Pf_cpu.Arm_run.fetch_accesses
         = replayed.Pf_cpu.Trace.fetch_accesses
      && direct.Pf_cpu.Arm_run.cache_accesses
         = replayed.Pf_cpu.Trace.cache_accesses
      && direct.Pf_cpu.Arm_run.cache_misses
         = replayed.Pf_cpu.Trace.cache_misses
      && direct.Pf_cpu.Arm_run.power = replayed.Pf_cpu.Trace.power
      && C.output_toggles direct_cache = C.output_toggles replay_cache
      && C.addr_toggles direct_cache = C.addr_toggles replay_cache
      && C.refill_words direct_cache = C.refill_words replay_cache
      && direct.Pf_cpu.Arm_run.output = recorded.Pf_cpu.Arm_run.output)

(* ---- single-pass sweep == per-geometry replay --------------------------- *)

let bits = Int64.bits_of_float

let sweep_matches_replay gs =
  let image, trace, _ = Lazy.force replay_setup in
  let fetch_data a = Pf_arm.Image.word_at image a in
  let sw = Pf_dse.Sweep.run ~geometries:gs ~fetch_data trace in
  List.for_all
    (fun (i, g) ->
      let cache = C.create g in
      let st = Pf_cpu.Trace.replay ~cache ~cache_cfg:g ~fetch_data trace in
      let sv = sw.(i) in
      let p =
        Pf_power.Account.Params.for_geometry (Pf_power.Geometry.of_config g)
      in
      (* the trace stats record, bit-for-bit (floats compared as bits) *)
      st.Pf_cpu.Trace.instructions = sv.Pf_cpu.Trace.instructions
      && st.Pf_cpu.Trace.cycles = sv.Pf_cpu.Trace.cycles
      && st.Pf_cpu.Trace.fetch_accesses = sv.Pf_cpu.Trace.fetch_accesses
      && st.Pf_cpu.Trace.cache_accesses = sv.Pf_cpu.Trace.cache_accesses
      && st.Pf_cpu.Trace.cache_misses = sv.Pf_cpu.Trace.cache_misses
      && bits st.Pf_cpu.Trace.miss_rate_per_million
         = bits sv.Pf_cpu.Trace.miss_rate_per_million
      && bits st.Pf_cpu.Trace.dcache_miss_rate_pm
         = bits sv.Pf_cpu.Trace.dcache_miss_rate_pm
      && bits st.Pf_cpu.Trace.power.Pf_power.Account.switching
         = bits sv.Pf_cpu.Trace.power.Pf_power.Account.switching
      && bits st.Pf_cpu.Trace.power.Pf_power.Account.internal
         = bits sv.Pf_cpu.Trace.power.Pf_power.Account.internal
      && bits st.Pf_cpu.Trace.power.Pf_power.Account.leakage
         = bits sv.Pf_cpu.Trace.power.Pf_power.Account.leakage
      && bits st.Pf_cpu.Trace.power.Pf_power.Account.total
         = bits sv.Pf_cpu.Trace.power.Pf_power.Account.total
      && bits st.Pf_cpu.Trace.power.Pf_power.Account.peak_power
         = bits sv.Pf_cpu.Trace.power.Pf_power.Account.peak_power
      (* toggle accounting: the sweep's switching energy must equal the
         closed form evaluated on the replay cache's own toggle/refill
         counters — this pins the sweep's per-profile index-toggle and
         shared output-toggle sums to the cache model's, bit-for-bit *)
      && bits sv.Pf_cpu.Trace.power.Pf_power.Account.switching
         = bits
             (Pf_power.Account.switching_energy p
                ~accesses:(C.stats_accesses cache)
                ~toggles:(C.output_toggles cache + C.addr_toggles cache)
                ~refill_words:(C.refill_words cache)))
    (List.mapi (fun i g -> (i, g)) gs)

let prop_sweep_equals_replay =
  QCheck.Test.make
    ~name:
      "single-pass all-geometry sweep is bit-identical to per-geometry \
       replay (counts, toggles, energy, peak)"
    ~count:8
    (QCheck.make
       ~print:(fun gs -> String.concat " " (List.map Space.label gs))
       QCheck.Gen.(list_size (int_range 3 8) geometry_gen))
    (fun gs ->
      (* paper points always ride along; duplicates are legal lanes *)
      sweep_matches_replay (Space.cache_16k :: Space.cache_8k :: gs))

let test_space_engines () =
  let dense = Space.cardinality Space.dense in
  check_bool "dense grid meets the >= 1000 geometry bar" true
    (dense.Space.feasible >= 1000);
  let geoms = Space.geometries Space.dense in
  check_bool "dense contains the 16K paper point" true
    (List.mem Space.cache_16k geoms);
  check_bool "dense contains the 8K paper point" true
    (List.mem Space.cache_8k geoms);
  check_bool "dense parses by name" true
    (Space.of_string "dense" = Ok Space.dense);
  let co = Space.cost ~benchmarks:21 Space.dense in
  check_int "one sweep pass per recorded trace" (21 * 2) co.Space.sweep_passes;
  check_bool "profiles well under geometries" true
    (2 * co.Space.profiles <= dense.Space.feasible)

let tests =
  [
    Alcotest.test_case "named grids and the cost contract" `Quick
      test_space_grids;
    Alcotest.test_case "engine choice and the dense grid" `Quick
      test_space_engines;
    Alcotest.test_case "infeasible corners are skipped, counted" `Quick
      test_space_feasibility_filter;
    Alcotest.test_case "space validation" `Quick test_space_validation;
    Alcotest.test_case "grid parsing" `Quick test_space_parsing;
    Alcotest.test_case "labels and paper-point annotation" `Quick
      test_space_labels;
    Alcotest.test_case "pareto dominance and frontier" `Quick
      test_pareto_units;
    Alcotest.test_case "pareto maximizes IPC" `Quick
      test_pareto_higher_ipc_wins;
    Alcotest.test_case "analytic params calibrated at the paper points"
      `Quick test_params_calibration;
    Alcotest.test_case "paper grid points reproduce the harness exactly"
      `Slow test_paper_points_exact;
    Alcotest.test_case "frontiers independent of --jobs" `Slow
      test_jobs_independent;
    Alcotest.test_case "dict-budget FITS variants" `Slow
      test_dict_budget_variant;
    QCheck_alcotest.to_alcotest prop_replay_equals_direct;
    QCheck_alcotest.to_alcotest prop_sweep_equals_replay;
  ]
