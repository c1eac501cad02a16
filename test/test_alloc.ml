(* Allocation-freedom guards: the step loops must not allocate per dynamic
   instruction.  A 100k-step run is measured with [Gc.minor_words] deltas;
   setup (image copy, cache arrays, predecode) allocates O(static) words
   and big arrays go straight to the major heap, so a generous fixed bound
   separates "constant" from "per-step" cleanly — even a single boxed
   float or tuple per step would cost >200k words.  If one of these tests
   starts failing, some hot-path edit reintroduced per-step boxing
   (tuples, closures, [Some]-boxed optional arguments, or stores to
   mutable float fields of mixed records). *)

module A = Pf_arm.Insn

let budget = 50_000

(* mov r0, #51200; loop: subs r0, r0, #1; bne loop; swi #0
   — 102,402 dynamic instructions, no prints. *)
let loop_image () =
  let imm v = Option.get (A.encode_imm_operand v) in
  let insns =
    [
      A.Dp { cond = A.AL; op = A.MOV; s = false; rd = 0; rn = 0;
             op2 = imm 51200 };
      A.Dp { cond = A.AL; op = A.SUB; s = true; rd = 0; rn = 0;
             op2 = imm 1 };
      (* branch at 0x8008 targeting 0x8004: offset relative to pc+8 *)
      A.B { cond = A.NE; link = false; offset = -12 };
      A.Swi { cond = A.AL; number = 0 };
    ]
  in
  let words = Array.of_list (List.map Pf_arm.Encode.encode insns) in
  Pf_arm.Image.make ~entry:0x8000 words

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let check_budget what delta =
  if delta >= budget then
    Alcotest.failf "%s allocated %d minor words over a ~100k-step run \
                    (budget %d): a per-step allocation crept back in"
      what delta budget

(* The per-instruction body on its own: a bare [Step.step] loop, the
   path every multicore core runs. *)
let test_arm_step_alloc () =
  let image = loop_image () in
  let run () =
    let s = Pf_cpu.Step.of_image image in
    while not (Pf_cpu.Step.halted s) do
      Pf_cpu.Step.step s
    done
  in
  run ();
  check_budget "Step.step loop (ARM core)" (minor_delta run)

let test_pexec_run_alloc () =
  let image = loop_image () in
  let p = Pf_arm.Pexec.compile image in
  ignore (Pf_arm.Exec.create image);
  let st = Pf_arm.Exec.create image in
  let delta = minor_delta (fun () -> Pf_arm.Pexec.run p st) in
  check_budget "Pexec.run (bare interpreter)" delta

(* The compiled engine (every runner's default) discovers and compiles
   blocks at run start — O(static) allocation, same bucket as predecode —
   after which the block-dispatch loop must be as allocation-free as the
   per-instruction loop above.  A closure or tuple born per block
   execution (~34k block runs here) would blow the budget. *)
let test_arm_compiled_alloc () =
  let image = loop_image () in
  let run () =
    ignore (Pf_cpu.Arm_run.run ~engine:Pf_cpu.Arm_run.Compiled image)
  in
  run ();
  check_budget "Arm_run.run (compiled engine)" (minor_delta run)

(* The register-injection hook drives FITS through [Step.step] one
   instruction at a time; with a no-op hook it must stay as
   allocation-free as the block loop. *)
let test_fits_step_alloc () =
  let image = loop_image () in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let run () = ignore (Pf_fits.Run.run ~on_step:(fun _ ~steps:_ -> ()) tr) in
  run ();
  check_budget "Fits.Run.run ~on_step (per-instruction loop)"
    (minor_delta run)

let test_fits_compiled_alloc () =
  let image = loop_image () in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let run () = ignore (Pf_fits.Run.run ~engine:Pf_fits.Run.Compiled tr) in
  run ();
  check_budget "Fits.Run.run (compiled engine)" (minor_delta run)

(* The trace-replay paths the generality harness leans on (one recorded
   execution, N cheap replays) must not allocate per trace event either —
   a boxed record per event would make a 21-benchmark LOO campaign pay
   GC costs proportional to total dynamic instructions. *)
let cache_8k = Pf_cache.Icache.config ~size_bytes:(8 * 1024) ()

let test_arm_replay_alloc () =
  let image = loop_image () in
  let trace = Pf_cpu.Trace.create ~isize:4 () in
  let r = Pf_cpu.Arm_run.run ~trace image in
  let replay () =
    ignore
      (Pf_cpu.Arm_run.replay ~cache_cfg:cache_8k
         ~output:r.Pf_cpu.Arm_run.output image trace)
  in
  replay ();
  check_budget "Arm_run.replay (trace replay)" (minor_delta replay)

let test_fits_replay_alloc () =
  let image = loop_image () in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let trace = Pf_cpu.Trace.create ~isize:2 () in
  let r = Pf_fits.Run.run ~trace tr in
  let replay () =
    ignore (Pf_fits.Run.replay ~cache_cfg:cache_8k ~like:r tr trace)
  in
  replay ();
  check_budget "Fits.Run.replay (trace replay)" (minor_delta replay)

(* The DSE inner loop replays one trace across a whole geometry grid; its
   per-event cost must stay allocation-free too (the per-geometry result
   records are O(grid), inside budget). *)
let test_dse_sweep_alloc () =
  let image = loop_image () in
  let trace = Pf_cpu.Trace.create ~isize:4 () in
  let r = Pf_cpu.Arm_run.run ~trace image in
  let geometries = Pf_dse.Space.geometries Pf_dse.Space.smoke in
  let sweep () =
    ignore
      (Pf_dse.Explore.arm_sweep ~image ~output:r.Pf_cpu.Arm_run.output
         ~geometries trace)
  in
  sweep ();
  check_budget "Explore.arm_sweep (6-geometry DSE replay loop)"
    (minor_delta sweep)

(* The single-pass all-geometry kernel walks the same trace once while
   updating every stack profile; its per-event cost must be
   allocation-free as well (profiles, stacks and per-lane accumulators
   are O(grid), allocated in setup).  Measured over the dense grid's
   geometry count so a per-event-per-profile box would blow the budget
   by orders of magnitude. *)
let test_single_pass_sweep_alloc () =
  let image = loop_image () in
  let trace = Pf_cpu.Trace.create ~isize:4 () in
  ignore (Pf_cpu.Arm_run.run ~trace image);
  let geometries = Pf_dse.Space.geometries Pf_dse.Space.full in
  let fetch_data addr = Pf_arm.Image.word_at image addr in
  let run () = ignore (Pf_dse.Sweep.run ~geometries ~fetch_data trace) in
  run ();
  check_budget "Sweep.run (36-geometry single-pass kernel)"
    (minor_delta run)

(* A litmus machine asks the seeded-random scheduler for a core every
   slice.  With [runnable] built once, as [Machine] does, a pick
   allocates nothing: no [Some], no closure, and an Rng draw that keeps
   its state unboxed.  100k picks at the old 12 words each would cost
   1.2M words. *)
let test_sched_alloc () =
  let halted = [| false; true; false; false |] in
  let runnable c = not halted.(c) in
  let s =
    Pf_mc.Sched.create ~policy:Pf_mc.Sched.Seeded_random ~ncores:4 42
  in
  let r = Pf_util.Rng.create 42 in
  let picks () =
    for _ = 1 to 100_000 do
      ignore (Sys.opaque_identity (Pf_mc.Sched.next s ~runnable));
      ignore (Sys.opaque_identity (Pf_util.Rng.int r 1000))
    done
  in
  picks ();
  check_budget "Sched.next and Rng.int (100k seeded-random picks)"
    (minor_delta picks)

(* The hot path calls small [@inline] helpers that live in other modules
   and libraries: [Bits.hamming] from [Icache], [Account] from [Pipeline]
   and the sweep.  They inline only in a build that lets ocamlopt look
   across modules; under [-opaque] (dune's dev profile) each is a call,
   and each float one returns is boxed.  [Account.window_power] is
   [@inline always] and lives in pf_power, so 100k calls from this
   executable allocate nothing when the build inlines it and 200k words
   (one boxed float a call) when it does not. *)
let test_cross_module_inline () =
  let p = Pf_power.Account.Params.default in
  let g = Pf_power.Geometry.of_config Pf_dse.Space.cache_16k in
  let calls () =
    let acc = ref 0. in
    for i = 1 to 100_000 do
      acc :=
        !acc
        +. Pf_power.Account.window_power p g ~accesses:i ~toggles:(i land 31)
             ~refill_words:(i land 7) ~cycles:i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  calls ();
  let delta = minor_delta calls in
  if delta >= 1_000 then
    Alcotest.failf
      "100k calls of Account.window_power from another library allocated \
       %d minor words: it was not inlined, so the build passes -opaque \
       (dune-workspace must select the release profile)"
      delta

let tests =
  [
    Alcotest.test_case "ARM step loop is allocation-free" `Quick
      test_arm_step_alloc;
    Alcotest.test_case "bare Pexec loop is allocation-free" `Quick
      test_pexec_run_alloc;
    Alcotest.test_case "FITS step loop is allocation-free" `Quick
      test_fits_step_alloc;
    Alcotest.test_case "ARM compiled block loop is allocation-free" `Quick
      test_arm_compiled_alloc;
    Alcotest.test_case "FITS compiled block loop is allocation-free" `Quick
      test_fits_compiled_alloc;
    Alcotest.test_case "ARM trace replay is allocation-free" `Quick
      test_arm_replay_alloc;
    Alcotest.test_case "FITS trace replay is allocation-free" `Quick
      test_fits_replay_alloc;
    Alcotest.test_case "DSE geometry sweep is allocation-free" `Quick
      test_dse_sweep_alloc;
    Alcotest.test_case "single-pass sweep kernel is allocation-free" `Quick
      test_single_pass_sweep_alloc;
    Alcotest.test_case "seeded-random scheduler pick is allocation-free"
      `Quick test_sched_alloc;
    Alcotest.test_case "cross-module inline helper is allocation-free" `Quick
      test_cross_module_inline;
  ]
