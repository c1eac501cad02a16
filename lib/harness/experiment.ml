type per_config = Pf_dse.Explore.metrics = {
  instructions : int;
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_pm : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
  gate_count : int;
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

module X = Pf_dse.Explore

(* Each ISA executes once, in the recording; the 8 KB points replay its
   streams, bit-identical to direct runs at about half the cost.  A
   replay carries its recording run's output over, so the one output
   check is the FITS run against the ARM run. *)
let run_benchmark ?(scale = 1) ?engine ?max_steps ?deadline
    (b : Pf_mibench.Registry.benchmark) =
  let r = X.record ~scale ?engine ?max_steps ?deadline ~dict_budgets:[ None ] b in
  let a = r.X.arm and f = List.hd r.X.fits in
  let image = a.X.image and tr = f.X.translation and syn = f.X.synthesis in
  let arm16_r = a.X.arm_result and fits16_r = f.X.fits_result in
  let output = arm16_r.Pf_cpu.Arm_run.output in
  let arm8_r =
    Pf_cpu.Arm_run.replay ~cache_cfg:cache_8k ~output image a.X.arm_trace
  in
  let fits8_r =
    Pf_fits.Run.replay ~cache_cfg:cache_8k ~like:fits16_r tr f.X.fits_trace
  in
  let thumb = Pf_thumb.Translate.estimate image in
  {
    name = b.Pf_mibench.Registry.name;
    category = b.Pf_mibench.Registry.category;
    arm16 = X.metrics_of_arm cache_16k arm16_r;
    arm8 = X.metrics_of_arm cache_8k arm8_r;
    fits16 = X.metrics_of_fits cache_16k fits16_r;
    fits8 = X.metrics_of_fits cache_8k fits8_r;
    static_map_pct = Pf_fits.Translate.static_mapping_rate tr;
    dyn_map_pct = fits16_r.Pf_fits.Run.dyn_one_to_one_pct;
    expansion_hist = tr.Pf_fits.Translate.stats.Pf_fits.Translate.expansion_hist;
    code_arm = Pf_arm.Image.code_size_bytes image;
    code_thumb = thumb.Pf_thumb.Translate.thumb_bytes;
    code_fits = tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits;
    datapath_off = syn.Pf_fits.Synthesis.datapath_off;
    ais_ops = List.length syn.Pf_fits.Synthesis.ais;
    dict_entries = Array.length tr.Pf_fits.Translate.spec.Pf_fits.Spec.dict;
    outputs_consistent = fits16_r.Pf_fits.Run.output = output;
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
