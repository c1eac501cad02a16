(* Multicore machine: memory-model allowed sets (SC vs TSO), scheduler
   determinism, snoop invalidation, coherence propagation, single-core
   bit-identity against the sequential engines, the full litmus sweep,
   and jobs-independence of seeded machine sweeps (QCheck). *)

module Mc = Pf_mc.Machine
module Model = Pf_mc.Model
module Litmus = Pf_mc.Litmus
module Sched = Pf_mc.Sched
module Step = Pf_cpu.Step
module C = Pf_cache.Icache

let build name =
  let b = Pf_mibench.Registry.find_exn name in
  Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
    (b.Pf_mibench.Registry.program ~scale:1)

(* ---- memory model ------------------------------------------------------ *)

let sc t = Model.allowed_strings ~sb_capacity:0 t
let tso t = Model.allowed_strings ~sb_capacity:8 t

let has set o = List.mem o set

let test_model_sb () =
  (* SC: (0,0) needs store-load reordering and is excluded; TSO adds it *)
  let both_zero = "0:0 1:0 | x=1 y=1" in
  Alcotest.(check int) "SB has 3 SC outcomes" 3 (List.length (sc Litmus.sb));
  Alcotest.(check bool) "SC forbids (0,0)" false
    (has (sc Litmus.sb) both_zero);
  Alcotest.(check bool) "TSO allows (0,0)" true
    (has (tso Litmus.sb) both_zero);
  Alcotest.(check int) "TSO adds exactly (0,0)" 4
    (List.length (tso Litmus.sb))

let test_model_mp () =
  (* seeing the flag but not the data is forbidden under SC and TSO *)
  let stale = "0: 1:1,0 | x=1 y=1" in
  Alcotest.(check bool) "SC forbids stale data" false
    (has (sc Litmus.mp) stale);
  Alcotest.(check bool) "TSO forbids stale data too" false
    (has (tso Litmus.mp) stale)

let test_model_lb () =
  (* a FIFO store buffer cannot produce load buffering *)
  let lb = "0:1 1:1 | x=1 y=1" in
  Alcotest.(check bool) "SC forbids LB" false (has (sc Litmus.lb) lb);
  Alcotest.(check bool) "TSO forbids LB" false (has (tso Litmus.lb) lb)

let test_model_fence () =
  (* fences drain the buffers: the TSO set collapses back to SC *)
  Alcotest.(check (list string)) "fenced SB: TSO = SC" (sc Litmus.sb_fence)
    (tso Litmus.sb_fence);
  Alcotest.(check bool) "fenced SB forbids (0,0) under TSO" false
    (has (tso Litmus.sb_fence) "0:0 1:0 | x=1 y=1")

let test_model_coww () =
  let finals =
    List.map (fun (_, o) -> List.assoc "x" o.Model.finals)
      (Model.allowed ~sb_capacity:0 Litmus.coww)
  in
  Alcotest.(check (list int)) "CoWW final x is 2 or 3" [ 2; 3 ]
    (List.sort compare finals)

let test_model_iriw () =
  (* 16 read combinations minus the one where the readers disagree on
     the write order *)
  Alcotest.(check int) "IRIW has 15 SC outcomes" 15
    (List.length (sc Litmus.iriw))

(* ---- scheduler --------------------------------------------------------- *)

let picks policy seed n =
  let s = Sched.create ~policy ~ncores:4 seed in
  List.init n (fun _ ->
      match Sched.next s ~runnable:(fun _ -> true) with
      | Some c -> c
      | None -> -1)

let test_sched_deterministic () =
  Alcotest.(check (list int)) "random policy replays bit-identically"
    (picks Sched.Seeded_random 42 64)
    (picks Sched.Seeded_random 42 64);
  Alcotest.(check bool) "different seeds differ" true
    (picks Sched.Seeded_random 1 64 <> picks Sched.Seeded_random 2 64)

let test_sched_rr () =
  Alcotest.(check (list int)) "round-robin cycles"
    [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (picks Sched.Round_robin 0 8);
  (* halted cores are skipped, the rest keep cycling *)
  let s = Sched.create ~policy:Sched.Round_robin ~ncores:3 0 in
  let run = List.init 6 (fun _ ->
      match Sched.next s ~runnable:(fun c -> c <> 1) with
      | Some c -> c
      | None -> -1)
  in
  Alcotest.(check (list int)) "rr skips non-runnable" [ 0; 2; 0; 2; 0; 2 ] run;
  Alcotest.(check bool) "quiesced machine yields None" true
    (Sched.next s ~runnable:(fun _ -> false) = None)

(* ---- snoop invalidation ------------------------------------------------ *)

let test_invalidate_addr () =
  let c = C.create (C.config ~size_bytes:1024 ()) in
  ignore (C.access_count c ~addr:0x100);
  Alcotest.(check bool) "line present: invalidated" true
    (C.invalidate_addr c ~addr:0x104);
  Alcotest.(check bool) "second invalidate misses" false
    (C.invalidate_addr c ~addr:0x100);
  Alcotest.(check bool) "re-access misses after invalidate" false
    (C.access_count c ~addr:0x100)

(* ---- coherence layer --------------------------------------------------- *)

let test_coherence_propagation () =
  let mems = [| Bytes.make 256 '\000'; Bytes.make 256 '\000' |] in
  let dcaches =
    [| C.create (C.config ~size_bytes:1024 ());
       C.create (C.config ~size_bytes:1024 ()) |]
  in
  let coh =
    Pf_mc.Coherence.create ~sync_addr:64 ~base:0 ~limit:128 ~mems ~dcaches ()
  in
  ignore (C.access_count dcaches.(1) ~addr:32);
  Bytes.set_int32_le mems.(0) 32 0xdeadbeefl;
  Pf_mc.Coherence.post_store coh ~core:0 ~addr:32 ~words:1;
  Alcotest.(check int32) "word propagated to the other core" 0xdeadbeefl
    (Bytes.get_int32_le mems.(1) 32);
  let s = Pf_mc.Coherence.stats coh in
  Alcotest.(check int) "one store through" 1 s.Pf_mc.Coherence.stores_through;
  Alcotest.(check int) "one line snooped" 1 s.Pf_mc.Coherence.invalidations;
  Alcotest.(check bool) "snooped line misses on re-access" false
    (C.access_count dcaches.(1) ~addr:32);
  (* outside the window: nothing happens *)
  Bytes.set_int32_le mems.(0) 200 1l;
  Pf_mc.Coherence.post_store coh ~core:0 ~addr:200 ~words:1;
  Alcotest.(check int32) "private store not propagated" 0l
    (Bytes.get_int32_le mems.(1) 200);
  (* fence marker counted *)
  Pf_mc.Coherence.post_store coh ~core:0 ~addr:64 ~words:1;
  Alcotest.(check int) "fence counted" 1
    (Pf_mc.Coherence.stats coh).Pf_mc.Coherence.fences

(* ---- single-core bit-identity ------------------------------------------ *)

let fbits = Int64.bits_of_float

let check_power name (a : Pf_power.Account.report)
    (b : Pf_power.Account.report) =
  Alcotest.(check int64) (name ^ ": switching") (fbits a.switching)
    (fbits b.switching);
  Alcotest.(check int64) (name ^ ": internal") (fbits a.internal)
    (fbits b.internal);
  Alcotest.(check int64) (name ^ ": leakage") (fbits a.leakage)
    (fbits b.leakage);
  Alcotest.(check int64) (name ^ ": total") (fbits a.total) (fbits b.total);
  Alcotest.(check int64) (name ^ ": peak") (fbits a.peak_power)
    (fbits b.peak_power);
  Alcotest.(check int) (name ^ ": power cycles") a.cycles b.cycles

let run_single_core core =
  let sched = Sched.create ~policy:Sched.Round_robin ~ncores:1 0 in
  let m = Mc.create ~sched [| ("c0", core) |] in
  Mc.run m;
  Step.result (Mc.core m 0)

let test_arm_bit_identity () =
  let image = build "crc32" in
  let seq = Pf_cpu.Arm_run.run image in
  let mc = run_single_core (Mc.arm_core image) in
  Alcotest.(check int) "instructions" seq.Pf_cpu.Arm_run.instructions
    mc.Step.instructions;
  Alcotest.(check int) "cycles" seq.Pf_cpu.Arm_run.cycles mc.Step.cycles;
  Alcotest.(check int64) "ipc" (fbits seq.Pf_cpu.Arm_run.ipc)
    (fbits mc.Step.ipc);
  Alcotest.(check int) "fetch accesses" seq.Pf_cpu.Arm_run.fetch_accesses
    mc.Step.fetch_accesses;
  Alcotest.(check string) "output" seq.Pf_cpu.Arm_run.output mc.Step.output;
  Alcotest.(check int) "cache accesses" seq.Pf_cpu.Arm_run.cache_accesses
    mc.Step.cache_accesses;
  Alcotest.(check int) "cache misses" seq.Pf_cpu.Arm_run.cache_misses
    mc.Step.cache_misses;
  Alcotest.(check int64) "miss rate"
    (fbits seq.Pf_cpu.Arm_run.miss_rate_per_million)
    (fbits mc.Step.miss_rate_per_million);
  Alcotest.(check int64) "dcache miss rate"
    (fbits seq.Pf_cpu.Arm_run.dcache_miss_rate_pm)
    (fbits mc.Step.dcache_miss_rate_pm);
  check_power "arm" seq.Pf_cpu.Arm_run.power mc.Step.power

let test_fits_bit_identity () =
  let image = build "crc32" in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let seq = Pf_fits.Run.run tr in
  (* fits_core re-runs the same deterministic synthesis pipeline *)
  let mc = run_single_core (Mc.fits_core image) in
  Alcotest.(check int) "fits instructions" seq.Pf_fits.Run.fits_instructions
    mc.Step.instructions;
  Alcotest.(check int) "arm instructions" seq.Pf_fits.Run.arm_instructions
    mc.Step.src_instructions;
  Alcotest.(check int) "cycles" seq.Pf_fits.Run.cycles mc.Step.cycles;
  Alcotest.(check int64) "ipc" (fbits seq.Pf_fits.Run.ipc)
    (fbits mc.Step.ipc);
  Alcotest.(check int) "fetch accesses" seq.Pf_fits.Run.fetch_accesses
    mc.Step.fetch_accesses;
  Alcotest.(check string) "output" seq.Pf_fits.Run.output mc.Step.output;
  Alcotest.(check int) "cache accesses" seq.Pf_fits.Run.cache_accesses
    mc.Step.cache_accesses;
  Alcotest.(check int) "cache misses" seq.Pf_fits.Run.cache_misses
    mc.Step.cache_misses;
  Alcotest.(check int64) "miss rate"
    (fbits seq.Pf_fits.Run.miss_rate_per_million)
    (fbits mc.Step.miss_rate_per_million);
  check_power "fits" seq.Pf_fits.Run.power mc.Step.power

(* ---- litmus sweep (the acceptance criterion) --------------------------- *)

let test_litmus_sweep () =
  List.iter
    (fun t ->
      let r = Litmus.run ~policy:Sched.Seeded_random ~seeds:1000 ~jobs:4 t in
      Alcotest.(check (list (pair string int)))
        (r.Litmus.name ^ ": no forbidden outcomes") [] r.Litmus.forbidden;
      List.iter
        (fun (o, _) ->
          Alcotest.(check bool)
            (r.Litmus.name ^ ": " ^ o ^ " in the SC set")
            true
            (List.mem o r.Litmus.allowed))
        r.Litmus.observed)
    Litmus.tests;
  (* the sweep must actually exercise interleaving: MP shows more than
     one outcome across 1000 seeds *)
  let mp = Litmus.run ~policy:Sched.Seeded_random ~seeds:1000 ~jobs:4
      Litmus.mp
  in
  Alcotest.(check bool) "MP observes multiple interleavings" true
    (List.length mp.Litmus.observed >= 2)

let test_litmus_rr_policy () =
  (* round-robin is one fixed interleaving: a single outcome per test,
     still inside the allowed set *)
  let r = Litmus.run ~policy:Sched.Round_robin ~seeds:8 ~jobs:1 Litmus.sb in
  Alcotest.(check int) "rr yields one outcome" 1
    (List.length r.Litmus.observed);
  Alcotest.(check (list (pair string int))) "rr outcome allowed" []
    r.Litmus.forbidden

(* ---- jobs-independence (QCheck) ---------------------------------------- *)

let trace_digest t =
  let h = ref 0x3bf29ce484222325 in
  let mix v = h := (!h lxor v) * 0x100000001b3 land max_int in
  Pf_cpu.Trace.iter t (fun addr meta -> mix addr; mix meta);
  !h

let machine_digest seed =
  let images = [| build "crc32"; build "stringsearch" |] in
  let traces =
    Array.map (fun _ -> Pf_cpu.Trace.create ~isize:4 ()) images
  in
  let cores =
    Array.mapi
      (fun i img ->
        (Printf.sprintf "c%d" i, Mc.arm_core ~trace:traces.(i) img))
      images
  in
  let sched =
    Sched.create ~policy:Sched.Seeded_random ~ncores:(Array.length cores)
      seed
  in
  let m = Mc.create ~sched cores in
  Mc.run m;
  let r = Mc.report m in
  let b = Buffer.create 128 in
  Array.iter (fun t -> Buffer.add_string b (string_of_int (trace_digest t)))
    traces;
  Array.iter
    (fun (label, (c : Step.result)) ->
      Buffer.add_string b
        (Printf.sprintf "%s/%d/%d/%Lx/%d/%Lx" label c.Step.instructions
           c.Step.cycles (fbits c.Step.ipc) c.Step.cache_misses
           (fbits c.Step.power.Pf_power.Account.total)))
    r.Mc.cores;
  Buffer.add_string b
    (Printf.sprintf "|%d/%d/%d/%Lx" r.Mc.instructions r.Mc.cycles r.Mc.slices
       (fbits r.Mc.power.Mc.total));
  Buffer.contents b

let prop_jobs_independent =
  QCheck.Test.make
    ~name:"machine sweep is byte-identical at --jobs 1 and --jobs 4"
    ~count:3 (QCheck.int_bound 10_000)
    (fun base ->
      let seeds = [ base; base + 1; base + 2; base + 3 ] in
      Pf_util.Pool.map ~jobs:1 machine_digest seeds
      = Pf_util.Pool.map ~jobs:4 machine_digest seeds)

(* ---- jobs validation --------------------------------------------------- *)

let test_validate_jobs () =
  Alcotest.(check int) "valid count passes through" 3
    (Pf_util.Pool.validate_jobs 3);
  let bad k =
    match Pf_util.Pool.validate_jobs k with
    | _ -> false
    | exception Pf_util.Sim_error.Error e ->
        e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Invalid_config
  in
  Alcotest.(check bool) "0 rejected" true (bad 0);
  Alcotest.(check bool) "negative rejected" true (bad (-2));
  Alcotest.(check bool) "Pool.map validates too" true
    (match Pf_util.Pool.map ~jobs:0 (fun x -> x) [ 1 ] with
    | _ -> false
    | exception Pf_util.Sim_error.Error e ->
        e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Invalid_config)

(* Building a FITS core profiles the image with a counting run; that
   run must honour the core's step budget, not the counting loop's
   default, so a runaway kernel fails fast and names the budget. *)
let test_fits_core_step_budget () =
  let open Pf_kir.Build in
  let image =
    Pf_armgen.Compile.program
      (program [] [ func "main" [] [ while_ (i 1) [] ] ])
  in
  let t0 = Unix.gettimeofday () in
  (match Mc.fits_core ~max_steps:1000 image with
  | _ -> Alcotest.fail "an endless loop built a FITS core"
  | exception Pf_util.Sim_error.Error e ->
      Alcotest.(check bool) "watchdog timeout" true
        (e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Watchdog_timeout);
      Alcotest.(check string) "names the core's budget"
        "step budget exhausted (1000)" e.Pf_util.Sim_error.detail);
  Alcotest.(check bool) "fails within a second" true
    (Unix.gettimeofday () -. t0 < 1.0)

let tests =
  [
    Alcotest.test_case "model: SB separates SC from TSO" `Quick test_model_sb;
    Alcotest.test_case "model: MP forbidden under SC and TSO" `Quick
      test_model_mp;
    Alcotest.test_case "model: LB forbidden under SC and TSO" `Quick
      test_model_lb;
    Alcotest.test_case "model: fences collapse TSO to SC" `Quick
      test_model_fence;
    Alcotest.test_case "model: CoWW write serialization" `Quick
      test_model_coww;
    Alcotest.test_case "model: IRIW outcome count" `Quick test_model_iriw;
    Alcotest.test_case "sched: deterministic in the seed" `Quick
      test_sched_deterministic;
    Alcotest.test_case "sched: round-robin skips halted cores" `Quick
      test_sched_rr;
    Alcotest.test_case "icache: snoop invalidation" `Quick
      test_invalidate_addr;
    Alcotest.test_case "coherence: write-through propagation" `Quick
      test_coherence_propagation;
    Alcotest.test_case "single ARM core is bit-identical to Arm_run" `Slow
      test_arm_bit_identity;
    Alcotest.test_case "single FITS core is bit-identical to Fits.Run" `Slow
      test_fits_bit_identity;
    Alcotest.test_case "litmus: 1000-seed sweep stays in the SC set" `Slow
      test_litmus_sweep;
    Alcotest.test_case "litmus: round-robin is a single allowed outcome"
      `Quick test_litmus_rr_policy;
    QCheck_alcotest.to_alcotest prop_jobs_independent;
    Alcotest.test_case "jobs validation is structured and uniform" `Quick
      test_validate_jobs;
    Alcotest.test_case "FITS core profiling honours max_steps" `Quick
      test_fits_core_step_budget;
  ]
