(* Trace-once/replay-many and parallel-sweep tests: replayed statistics
   must be bit-identical to direct simulation, sweeps must report the
   same thing for every jobs count, and the monotonic deadline watchdog
   must fire inside a spawned worker domain (where the old SIGALRM one
   could not). *)

module E = Pf_harness.Experiment
module Pool = Pf_util.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Pool unit tests ---- *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let seq = Pool.map ~jobs:1 (fun x -> (x * x) + 1) xs in
  let par = Pool.map ~jobs:4 (fun x -> (x * x) + 1) xs in
  check_bool "parallel map preserves input order" true (seq = par);
  check_bool "empty input" true (Pool.map ~jobs:4 Fun.id [] = []);
  check_bool "more jobs than elements" true
    (Pool.map ~jobs:8 succ [ 1; 2 ] = [ 2; 3 ])

exception Boom of int

let test_pool_single_error () =
  (* exactly one element fails: its own exception is re-raised intact *)
  let got =
    try
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 7 then raise (Boom x) else x)
           (List.init 20 (fun i -> i + 1)));
      None
    with Boom x -> Some x
  in
  check_bool "single failure re-raised as-is" true (got = Some 7)

let test_pool_error_aggregation () =
  (* several elements fail in parallel; every failure must appear in one
     aggregated Sim_error, deterministically, for any jobs count *)
  let run jobs =
    try
      ignore
        (Pool.map ~jobs
           (fun x ->
             if x mod 3 = 0 then raise (Boom x)
             else if x = 10 then
               Pf_util.Sim_error.raisef Pf_util.Sim_error.Memory_fault
                 ~where:"test" "bad access at %d" x
             else x)
           (List.init 20 (fun i -> i + 1)));
      None
    with Pf_util.Sim_error.Error e -> Some e
  in
  match (run 1, run 4) with
  | Some e1, Some e4 ->
      check_bool "aggregate error from util.pool" true
        (e1.Pf_util.Sim_error.where = "util.pool");
      (* kind follows the lowest-indexed failure: Boom 3 is not a
         Sim_error, so the aggregate is Internal *)
      check_bool "kind from lowest-indexed failure" true
        (e1.Pf_util.Sim_error.kind = Pf_util.Sim_error.Internal);
      List.iter
        (fun frag ->
          check_bool ("detail mentions " ^ frag) true
            (let detail = e1.Pf_util.Sim_error.detail in
             let rec find i =
               i + String.length frag <= String.length detail
               && (String.sub detail i (String.length frag) = frag
                   || find (i + 1))
             in
             find 0))
        [ "7 of 20"; "Boom(3)"; "Boom(18)"; "memory-fault"; "bad access at 10" ];
      check_bool "aggregation deterministic across jobs" true
        (e1.Pf_util.Sim_error.detail = e4.Pf_util.Sim_error.detail)
  | _ -> Alcotest.fail "expected aggregated Sim_error at jobs=1 and jobs=4"

let test_pool_service () =
  (* bounded admission: a stalled worker keeps the queue full, submits
     beyond capacity are refused, drain completes the accepted work *)
  let gate = Mutex.create () in
  let processed = Atomic.make 0 in
  Mutex.lock gate;
  let svc =
    Pool.Service.create ~jobs:1 ~capacity:2 (fun () ->
        Mutex.lock gate;
        Mutex.unlock gate;
        Atomic.incr processed)
  in
  check_bool "first submit accepted" true (Pool.Service.submit svc ());
  (* first task is now either queued or blocking on the gate; fill the
     queue behind it *)
  let rec fill n =
    if Pool.Service.submit svc () then fill (n + 1) else n
  in
  let extra = fill 0 in
  check_bool "bounded queue eventually refuses" true (extra <= 3);
  check_int "capacity" 2 (Pool.Service.capacity svc);
  check_int "workers" 1 (Pool.Service.workers svc);
  Mutex.unlock gate;
  Pool.Service.drain svc;
  check_int "all accepted tasks ran" (Pool.Service.accepted svc)
    (Atomic.get processed);
  check_bool "submit after drain refused" true
    (not (Pool.Service.submit svc ()));
  check_int "drained service is idle" 0 (Pool.Service.depth svc)

let test_pool_service_error_isolation () =
  (* a raising task must not kill its worker domain *)
  let errors = Atomic.make 0 in
  let ok = Atomic.make 0 in
  let svc =
    Pool.Service.create ~jobs:2 ~capacity:16
      ~on_error:(fun _ -> Atomic.incr errors)
      (fun i -> if i mod 2 = 0 then raise (Boom i) else Atomic.incr ok)
  in
  List.iter (fun i -> check_bool "accepted" true (Pool.Service.submit svc i))
    (List.init 10 Fun.id);
  Pool.Service.drain svc;
  check_int "failures routed to on_error" 5 (Atomic.get errors);
  check_int "successes still processed" 5 (Atomic.get ok)

(* ---- replay equivalence ---- *)

(* Direct simulation at 8 KB vs replaying the 16 KB recording through an
   8 KB cache (and vice versa): cache geometry cannot change
   architectural behaviour, so every statistic must match exactly. *)
let replay_benchmarks = [ "crc32"; "bitcount"; "stringsearch" ]

let check_config name (direct : E.per_config) (replayed : E.per_config) =
  check_int (name ^ " instructions") direct.E.instructions
    replayed.E.instructions;
  check_int (name ^ " cycles") direct.E.cycles replayed.E.cycles;
  check_bool (name ^ " ipc") true (direct.E.ipc = replayed.E.ipc);
  check_int (name ^ " fetch accesses") direct.E.fetch_accesses
    replayed.E.fetch_accesses;
  check_int (name ^ " cache misses") direct.E.cache_misses
    replayed.E.cache_misses;
  check_bool (name ^ " miss rate") true
    (direct.E.miss_rate_pm = replayed.E.miss_rate_pm);
  check_bool (name ^ " dcache miss rate") true
    (direct.E.dcache_miss_rate_pm = replayed.E.dcache_miss_rate_pm);
  check_bool (name ^ " power report") true (direct.E.power = replayed.E.power)

let test_replay_equivalence () =
  List.iter
    (fun bench ->
      let b = Pf_mibench.Registry.find bench in
      let p = b.Pf_mibench.Registry.program ~scale:1 in
      let image =
        Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
      in
      (* ARM: record at 16 KB, replay at 8 KB, compare against direct *)
      let trace = Pf_cpu.Trace.create ~isize:4 () in
      let rec16 =
        Pf_cpu.Arm_run.run ~cache_cfg:E.cache_16k ~trace image
      in
      let direct8 = Pf_cpu.Arm_run.run ~cache_cfg:E.cache_8k image in
      let replay8 =
        Pf_cpu.Arm_run.replay ~cache_cfg:E.cache_8k
          ~output:rec16.Pf_cpu.Arm_run.output image trace
      in
      check_bool
        (bench ^ " arm outputs") true
        (direct8.Pf_cpu.Arm_run.output = replay8.Pf_cpu.Arm_run.output);
      check_bool (bench ^ " arm stats") true (direct8 = replay8);
      (* and replaying the recording at its own geometry reproduces it *)
      let replay16 =
        Pf_cpu.Arm_run.replay ~cache_cfg:E.cache_16k
          ~output:rec16.Pf_cpu.Arm_run.output image trace
      in
      check_bool (bench ^ " arm self-replay") true (rec16 = replay16);
      (* FITS: same property through the translated machine *)
      let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
      let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
      let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
      let ftrace = Pf_cpu.Trace.create ~isize:2 () in
      let frec16 =
        Pf_fits.Run.run ~cache_cfg:E.cache_16k ~trace:ftrace tr
      in
      let fdirect8 = Pf_fits.Run.run ~cache_cfg:E.cache_8k tr in
      let freplay8 =
        Pf_fits.Run.replay ~cache_cfg:E.cache_8k ~like:frec16 tr ftrace
      in
      check_bool (bench ^ " fits stats") true (fdirect8 = freplay8))
    replay_benchmarks

let test_run_benchmark_matches_direct () =
  (* run_benchmark's replayed 8 KB rows equal a from-scratch run_benchmark
     of the old shape: build the direct rows by hand *)
  let b = Pf_mibench.Registry.find "crc32" in
  let r = E.run_benchmark b in
  let p = b.Pf_mibench.Registry.program ~scale:1 in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  let direct_arm8 = Pf_cpu.Arm_run.run ~cache_cfg:E.cache_8k image in
  check_config "crc32 arm8"
    {
      E.instructions = direct_arm8.Pf_cpu.Arm_run.instructions;
      cycles = direct_arm8.Pf_cpu.Arm_run.cycles;
      ipc = direct_arm8.Pf_cpu.Arm_run.ipc;
      fetch_accesses = direct_arm8.Pf_cpu.Arm_run.fetch_accesses;
      cache_misses = direct_arm8.Pf_cpu.Arm_run.cache_misses;
      miss_rate_pm = direct_arm8.Pf_cpu.Arm_run.miss_rate_per_million;
      dcache_miss_rate_pm = direct_arm8.Pf_cpu.Arm_run.dcache_miss_rate_pm;
      power = direct_arm8.Pf_cpu.Arm_run.power;
    }
    r.E.arm8;
  check_bool "outputs consistent" true r.E.outputs_consistent

(* ---- parallel determinism ---- *)

let boom : Pf_mibench.Registry.benchmark =
  {
    Pf_mibench.Registry.name = "boom";
    result_name = "boom";
    category = "test";
    program = (fun ~scale:_ -> failwith "synthetic benchmark failure");
    power_study = false;
    unroll = 1;
  }

let strip_elapsed (s : E.sweep) =
  (* wall-clock per row and captured backtraces legitimately vary run to
     run (a worker domain's stack differs from the main domain's);
     everything else must not *)
  List.map
    (fun (r : E.sweep_row) ->
      let outcome =
        Result.map_error
          (fun e -> { e with Pf_util.Sim_error.backtrace = None })
          r.E.outcome
      in
      (r.E.bench, outcome, r.E.retried))
    s.E.rows

let test_jobs_determinism () =
  let benchmarks =
    [
      Pf_mibench.Registry.find "crc32";
      boom;
      Pf_mibench.Registry.find "bitcount";
      Pf_mibench.Registry.find "stringsearch";
    ]
  in
  let s1 = E.run_all ~benchmarks ~jobs:1 () in
  let s4 = E.run_all ~benchmarks ~jobs:4 () in
  check_int "completed" s1.E.completed s4.E.completed;
  check_int "total" s1.E.total s4.E.total;
  check_int "completed is 3 of 4" 3 s1.E.completed;
  check_bool "row-for-row identical" true
    (strip_elapsed s1 = strip_elapsed s4);
  check_int "jobs recorded" 4 s4.E.jobs;
  (* the boom row failed the same structured way on both *)
  let boom_row s =
    List.find (fun (r : E.sweep_row) -> r.E.bench = "boom") s.E.rows
  in
  check_bool "boom isolated under parallelism" true
    (Result.is_error (boom_row s4).E.outcome)

let test_campaign_jobs_determinism () =
  let b = Pf_mibench.Registry.find "crc32" in
  let p = b.Pf_mibench.Registry.program ~scale:1 in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  let dyn_counts, reference = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let campaign jobs =
    Pf_fault.Campaign.run ~trials:8 ~jobs ~target:Pf_fault.Injector.Decoder
      ~rate:0.003 ~seed:11 ~reference tr
  in
  let r1 = campaign 1 in
  let r4 = campaign 4 in
  check_bool "campaign report independent of jobs" true (r1 = r4);
  check_int "all trials accounted for" 8
    (r1.Pf_fault.Campaign.clean + r1.Pf_fault.Campaign.detected
   + r1.Pf_fault.Campaign.silent + r1.Pf_fault.Campaign.divergent
   + r1.Pf_fault.Campaign.crashed)

(* ---- deadline watchdog in a worker domain ---- *)

let test_deadline_in_worker_domain () =
  (* an already-expired deadline must trip the very first 64k-step poll
     of a run executing inside a spawned domain — exactly the situation
     the SIGALRM watchdog could not handle *)
  let row =
    Domain.join
      (Domain.spawn (fun () ->
           E.run_isolated ~wall_clock_s:1e-9
             (Pf_mibench.Registry.find "crc32")))
  in
  match row.E.outcome with
  | Error e ->
      check_bool "watchdog kind" true
        (e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Watchdog_timeout)
  | Ok _ ->
      Alcotest.fail "expired deadline did not fire inside a worker domain"

let test_deadline_disabled () =
  (* wall_clock_s <= 0 disables the watchdog rather than tripping it *)
  let d = Pf_util.Deadline.after ~seconds:0. in
  check_bool "never expires" true (not (Pf_util.Deadline.expired d));
  Pf_util.Deadline.check (Some d);
  check_bool "remaining is infinite" true
    (Pf_util.Deadline.remaining_s d = infinity)

let tests =
  [
    Alcotest.test_case "pool: order preserved" `Quick test_pool_order;
    Alcotest.test_case "pool: single error re-raised" `Quick
      test_pool_single_error;
    Alcotest.test_case "pool: all errors aggregated" `Quick
      test_pool_error_aggregation;
    Alcotest.test_case "pool: bounded service" `Quick test_pool_service;
    Alcotest.test_case "pool: service error isolation" `Quick
      test_pool_service_error_isolation;
    Alcotest.test_case "replay: bit-identical stats" `Slow
      test_replay_equivalence;
    Alcotest.test_case "replay: run_benchmark rows" `Quick
      test_run_benchmark_matches_direct;
    Alcotest.test_case "sweep: jobs-independent" `Slow test_jobs_determinism;
    Alcotest.test_case "campaign: jobs-independent" `Slow
      test_campaign_jobs_determinism;
    Alcotest.test_case "deadline: fires in worker domain" `Quick
      test_deadline_in_worker_domain;
    Alcotest.test_case "deadline: zero budget disables" `Quick
      test_deadline_disabled;
  ]
