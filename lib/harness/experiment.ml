type per_config = {
  instructions : int;
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  cache_misses : int;
  miss_rate_pm : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

type bench_result = {
  name : string;
  category : string;
  arm16 : per_config;
  arm8 : per_config;
  fits16 : per_config;
  fits8 : per_config;
  static_map_pct : float;
  dyn_map_pct : float;
  expansion_hist : (int * int) list;
  code_arm : int;
  code_thumb : int;
  code_fits : int;
  datapath_off : float;
  ais_ops : int;
  dict_entries : int;
  outputs_consistent : bool;
}

(* The paper's two cache organizations are just named points of the
   exploration grid — a single definition site keeps the harness, the
   multi-program study and the DSE sweeps on literally the same configs. *)
let cache_16k = Pf_dse.Space.cache_16k
let cache_8k = Pf_dse.Space.cache_8k

let of_arm (r : Pf_cpu.Arm_run.result) =
  {
    instructions = r.Pf_cpu.Arm_run.instructions;
    cycles = r.Pf_cpu.Arm_run.cycles;
    ipc = r.Pf_cpu.Arm_run.ipc;
    fetch_accesses = r.Pf_cpu.Arm_run.fetch_accesses;
    cache_misses = r.Pf_cpu.Arm_run.cache_misses;
    miss_rate_pm = r.Pf_cpu.Arm_run.miss_rate_per_million;
    dcache_miss_rate_pm = r.Pf_cpu.Arm_run.dcache_miss_rate_pm;
    power = r.Pf_cpu.Arm_run.power;
  }

let of_fits (r : Pf_fits.Run.result) =
  {
    instructions = r.Pf_fits.Run.arm_instructions;
    cycles = r.Pf_fits.Run.cycles;
    ipc = r.Pf_fits.Run.ipc;
    fetch_accesses = r.Pf_fits.Run.fetch_accesses;
    cache_misses = r.Pf_fits.Run.cache_misses;
    miss_rate_pm = r.Pf_fits.Run.miss_rate_per_million;
    dcache_miss_rate_pm = r.Pf_fits.Run.dcache_miss_rate_pm;
    power = r.Pf_fits.Run.power;
  }

(* Each ISA executes exactly once: the 16 KB run records the instruction
   stream, and the 8 KB data point replays it through the smaller cache.
   Cache geometry cannot change architectural behaviour, so the replayed
   statistics are bit-identical to a direct simulation (asserted by the
   replay-equivalence tests) at roughly half the cost — 2 executions plus
   2 cheap replays instead of 4 executions.

   The ARM recording doubles as the profiling run: synthesis needs
   per-word dynamic counts, and the recorded trace IS the executed
   sequence, so [Trace.exec_counts] recovers counts bit-identical to a
   dedicated [dyn_counts_of_run] execution (pinned by the synthesis
   tests) without executing the program an extra time.  The ARM side
   therefore runs first and the reference output is the ARM run's output;
   cross-ISA consistency is still asserted against the FITS runs, and
   cross-ENGINE architectural identity is pinned by the engine
   differential tests. *)
let run_benchmark ?(scale = 1) ?(engine = Pf_cpu.Arm_run.Compiled) ?max_steps
    ?deadline (b : Pf_mibench.Registry.benchmark) =
  let check () = Pf_util.Deadline.check ~where:"harness.experiment" deadline in
  let p = b.Pf_mibench.Registry.program ~scale in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  check ();
  let arm_trace = Pf_cpu.Trace.create ~isize:4 () in
  let arm16_r =
    Pf_cpu.Arm_run.run ~engine ~cache_cfg:cache_16k ?max_steps ?deadline
      ~trace:arm_trace image
  in
  let arm8_r =
    Pf_cpu.Arm_run.replay ~cache_cfg:cache_8k
      ~output:arm16_r.Pf_cpu.Arm_run.output image arm_trace
  in
  check ();
  let dyn_counts =
    Pf_cpu.Trace.exec_counts arm_trace ~base:image.Pf_arm.Image.code_base
      ~n:(Array.length image.Pf_arm.Image.words)
  in
  let reference_output = arm16_r.Pf_cpu.Arm_run.output in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  check ();
  let thumb = Pf_thumb.Translate.estimate image in
  let fits_trace = Pf_cpu.Trace.create ~isize:2 () in
  let fits16_r =
    Pf_fits.Run.run ~engine ~cache_cfg:cache_16k ?max_steps ?deadline
      ~trace:fits_trace tr
  in
  let fits8_r =
    Pf_fits.Run.replay ~cache_cfg:cache_8k ~like:fits16_r tr fits_trace
  in
  let outputs_consistent =
    arm8_r.Pf_cpu.Arm_run.output = reference_output
    && fits16_r.Pf_fits.Run.output = reference_output
    && fits8_r.Pf_fits.Run.output = reference_output
  in
  {
    name = b.Pf_mibench.Registry.name;
    category = b.Pf_mibench.Registry.category;
    arm16 = of_arm arm16_r;
    arm8 = of_arm arm8_r;
    fits16 = of_fits fits16_r;
    fits8 = of_fits fits8_r;
    static_map_pct = Pf_fits.Translate.static_mapping_rate tr;
    dyn_map_pct = fits16_r.Pf_fits.Run.dyn_one_to_one_pct;
    expansion_hist = tr.Pf_fits.Translate.stats.Pf_fits.Translate.expansion_hist;
    code_arm = Pf_arm.Image.code_size_bytes image;
    code_thumb = thumb.Pf_thumb.Translate.thumb_bytes;
    code_fits = tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits;
    datapath_off = syn.Pf_fits.Synthesis.datapath_off;
    ais_ops = List.length syn.Pf_fits.Synthesis.ais;
    dict_entries = Array.length tr.Pf_fits.Translate.spec.Pf_fits.Spec.dict;
    outputs_consistent;
  }

(* ---- crash-proof sweep ------------------------------------------------- *)

type sweep_row = {
  bench : string;
  outcome : (bench_result, Pf_util.Sim_error.t) result;
  retried : bool;
  elapsed_s : float;
}

type sweep = {
  rows : sweep_row list;
  completed : int;
  total : int;
  jobs : int;
}

let default_wall_clock_s = 600.

(* The wall-clock watchdog is a monotonic deadline polled by the execute
   loops (and at every phase boundary of [run_benchmark]).  The PR-1
   SIGALRM interval-timer watchdog could not survive parallelism: POSIX
   delivers signals to the main domain only, so a wedged benchmark inside
   a worker domain would have hung the whole sweep. *)
let run_isolated ?(scale = 1) ?max_steps
    ?(wall_clock_s = default_wall_clock_s) ?engine
    (b : Pf_mibench.Registry.benchmark) =
  let t0 = Unix.gettimeofday () in
  let attempt scale =
    let deadline = Pf_util.Deadline.after ~seconds:wall_clock_s in
    Pf_util.Sim_error.protect
      ~where:("harness." ^ b.Pf_mibench.Registry.name)
      (fun () -> run_benchmark ~scale ?max_steps ?engine ~deadline b)
  in
  let finish outcome retried =
    {
      bench = b.Pf_mibench.Registry.name;
      outcome;
      retried;
      elapsed_s = Unix.gettimeofday () -. t0;
    }
  in
  match attempt scale with
  | Ok r -> finish (Ok r) false
  | Error { Pf_util.Sim_error.kind = Pf_util.Sim_error.Watchdog_timeout; _ }
    when scale > 1 ->
      (* transient trip: retry once at reduced scale *)
      finish (attempt (max 1 (scale / 2))) true
  | Error e -> finish (Error e) false

let run_all ?scale ?max_steps ?wall_clock_s ?engine
    ?(benchmarks = Pf_mibench.Registry.all) ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pf_util.Pool.default_jobs ()
  in
  let rows =
    Pf_util.Pool.map ~jobs
      (fun b -> run_isolated ?scale ?max_steps ?wall_clock_s ?engine b)
      benchmarks
  in
  let completed, total =
    List.fold_left
      (fun (c, t) r ->
        ((if Result.is_ok r.outcome then c + 1 else c), t + 1))
      (0, 0) rows
  in
  { rows; completed; total; jobs }

let completed_results sweep =
  List.filter_map
    (fun r -> match r.outcome with Ok b -> Some b | Error _ -> None)
    sweep.rows

let banner sweep =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d of %d benchmarks completed (jobs=%d)" sweep.completed
    sweep.total sweep.jobs;
  List.iter
    (fun r ->
      match r.outcome with
      | Ok _ -> if r.retried then Printf.bprintf b "
  %s: completed after watchdog retry at reduced scale" r.bench
      | Error e ->
          Printf.bprintf b "
  %s: FAILED %s%s" r.bench
            (Pf_util.Sim_error.to_string e)
            (if r.retried then " (after retry)" else ""))
    sweep.rows;
  Buffer.contents b

let power_rows results =
  List.filter_map
    (fun (b : Pf_mibench.Registry.benchmark) ->
      if not b.Pf_mibench.Registry.power_study then None
      else
        match
          List.find_opt
            (fun r -> r.name = b.Pf_mibench.Registry.name)
            results
        with
        | Some r -> Some { r with name = b.Pf_mibench.Registry.result_name }
        | None -> None)
    Pf_mibench.Registry.all
