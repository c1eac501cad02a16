open Pf_util

type variant = Arm | Fits of int option

let variant_label = function
  | Arm -> "arm"
  | Fits None -> "fits"
  | Fits (Some b) -> Printf.sprintf "fits@%d" b

type metrics = {
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

type point = {
  variant : variant;
  geometry : Pf_cache.Icache.config;
  metrics : metrics;
}

type bench_run = {
  name : string;
  category : string;
  points : point list;
  replayed_events : int;
  outputs_consistent : bool;
}

type row = {
  bench : string;
  outcome : (bench_run, Sim_error.t) result;
  elapsed_s : float;
}

type t = {
  space : Space.t;
  geometries : Pf_cache.Icache.config list;
  variants : variant list;
  rows : row list;
  completed : int;
  total : int;
  jobs : int;
  engine : Space.engine;
}

let gates_for cfg = (Pf_power.Geometry.of_config cfg).Pf_power.Geometry.gate_count

let metrics_of_arm cfg (r : Pf_cpu.Arm_run.result) =
  {
    instructions = r.Pf_cpu.Arm_run.instructions;
    cycles = r.Pf_cpu.Arm_run.cycles;
    ipc = r.Pf_cpu.Arm_run.ipc;
    fetch_accesses = r.Pf_cpu.Arm_run.fetch_accesses;
    cache_accesses = r.Pf_cpu.Arm_run.cache_accesses;
    cache_misses = r.Pf_cpu.Arm_run.cache_misses;
    miss_rate_pm = r.Pf_cpu.Arm_run.miss_rate_per_million;
    dcache_miss_rate_pm = r.Pf_cpu.Arm_run.dcache_miss_rate_pm;
    power = r.Pf_cpu.Arm_run.power;
    gate_count = gates_for cfg;
  }

let metrics_of_fits cfg (r : Pf_fits.Run.result) =
  {
    (* source (ARM) instructions, as everywhere in the reporting stack:
       IPC and per-instruction ratios compare like with like *)
    instructions = r.Pf_fits.Run.arm_instructions;
    cycles = r.Pf_fits.Run.cycles;
    ipc = r.Pf_fits.Run.ipc;
    fetch_accesses = r.Pf_fits.Run.fetch_accesses;
    cache_accesses = r.Pf_fits.Run.cache_accesses;
    cache_misses = r.Pf_fits.Run.cache_misses;
    miss_rate_pm = r.Pf_fits.Run.miss_rate_per_million;
    dcache_miss_rate_pm = r.Pf_fits.Run.dcache_miss_rate_pm;
    power = r.Pf_fits.Run.power;
    gate_count = gates_for cfg;
  }

let arm_sweep ~image ~output ~geometries trace =
  List.map
    (fun g ->
      let r = Pf_cpu.Arm_run.replay ~cache_cfg:g ~output image trace in
      { variant = Arm; geometry = g; metrics = metrics_of_arm g r })
    geometries

let fits_sweep ~dict_budget ~like ~geometries tr trace =
  List.map
    (fun g ->
      let r = Pf_fits.Run.replay ~cache_cfg:g ~like tr trace in
      { variant = Fits dict_budget; geometry = g; metrics = metrics_of_fits g r })
    geometries

(* Single-pass engine: one Sweep.run per recorded trace evaluates every
   geometry at once.  The metrics are assembled with exactly the
   expressions the replay runners use ([Arm_run.replay] /
   [Fits.Run.replay]), so a point is bit-identical whichever engine
   produced it — the sweep-vs-replay equivalence is asserted by
   test/test_dse.ml and by `powerfits explore --cross-check`. *)

let metrics_of_stats cfg ~instructions (s : Pf_cpu.Trace.stats) =
  {
    instructions;
    cycles = s.Pf_cpu.Trace.cycles;
    ipc =
      (if s.Pf_cpu.Trace.cycles = 0 then 0.0
       else float_of_int instructions /. float_of_int s.Pf_cpu.Trace.cycles);
    fetch_accesses = s.Pf_cpu.Trace.fetch_accesses;
    cache_accesses = s.Pf_cpu.Trace.cache_accesses;
    cache_misses = s.Pf_cpu.Trace.cache_misses;
    miss_rate_pm = s.Pf_cpu.Trace.miss_rate_per_million;
    dcache_miss_rate_pm = s.Pf_cpu.Trace.dcache_miss_rate_pm;
    power = s.Pf_cpu.Trace.power;
    gate_count = gates_for cfg;
  }

let arm_sweep_1pass ~image ~geometries trace =
  let stats =
    Sweep.run ~geometries
      ~fetch_data:(fun addr -> Pf_arm.Image.word_at image addr)
      trace
  in
  List.mapi
    (fun i g ->
      let s = stats.(i) in
      {
        variant = Arm;
        geometry = g;
        metrics =
          metrics_of_stats g ~instructions:s.Pf_cpu.Trace.instructions s;
      })
    geometries

let fits_sweep_1pass ~dict_budget ~(like : Pf_fits.Run.result) ~geometries
    (tr : Pf_fits.Translate.t) trace =
  let code_base = tr.Pf_fits.Translate.code_base in
  let words = tr.Pf_fits.Translate.words in
  let stats =
    Sweep.run ~geometries
      ~fetch_data:(fun addr -> words.((addr - code_base) lsr 2))
      trace
  in
  List.mapi
    (fun i g ->
      {
        variant = Fits dict_budget;
        geometry = g;
        metrics =
          metrics_of_stats g
            ~instructions:like.Pf_fits.Run.arm_instructions
            stats.(i);
      })
    geometries

(* A benchmark's recorded executions, separated from the geometry sweeps
   so the expensive half can be shared.  The ARM half is a function of
   (program, max_steps) alone and a FITS half adds only its synthesis —
   geometry never enters — so one recording serves any number of
   geometry evaluations (the serve daemon shares halves across evaluate
   and explore-point requests).  Everything in a recording is immutable
   once recorded; sweeping or replaying it only reads it, so concurrent
   readers of a shared recording are safe. *)
type arm_half = {
  image : Pf_arm.Image.t;
  arm_trace : Pf_cpu.Trace.t;
  arm_result : Pf_cpu.Arm_run.result;
}

type fits_half = {
  dict_budget : int option;
  synthesis : Pf_fits.Synthesis.result;
  translation : Pf_fits.Translate.t;
  fits_trace : Pf_cpu.Trace.t;
  fits_result : Pf_fits.Run.result;
}

type recording = {
  bench : Pf_mibench.Registry.benchmark;
  arm : arm_half;
  fits : fits_half list;
}

let check deadline = Deadline.check ~where:"dse.explore" deadline

(* Recording runs default to the block-compiled engine (the runners'
   default): results are engine-invariant, and it is the fastest way to
   produce them. *)
let record_arm ?(scale = 1) ?max_steps ?deadline ?engine
    (b : Pf_mibench.Registry.benchmark) =
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
      (b.Pf_mibench.Registry.program ~scale)
  in
  check deadline;
  let arm_trace = Pf_cpu.Trace.create ~isize:4 () in
  let arm_result =
    Pf_cpu.Arm_run.run ?engine ~cache_cfg:Space.recording_point ?max_steps
      ?deadline ~trace:arm_trace image
  in
  check deadline;
  { bench = b; arm = { image; arm_trace; arm_result }; fits = [] }

(* The ARM recording doubles as the profiling run: the trace is the
   executed sequence, so its counts are bit-identical to a dedicated
   counting execution.  Taken on demand, because an ARM-only reader never
   needs them. *)
let dyn_counts r =
  Pf_cpu.Trace.exec_counts r.arm.arm_trace
    ~base:r.arm.image.Pf_arm.Image.code_base
    ~n:(Array.length r.arm.image.Pf_arm.Image.words)

let record_fits ?max_steps ?deadline ?engine ~dict_budget
    (synthesis : Pf_fits.Synthesis.result) r =
  let translation =
    Pf_fits.Translate.translate synthesis.Pf_fits.Synthesis.spec r.arm.image
  in
  check deadline;
  let fits_trace = Pf_cpu.Trace.create ~isize:2 () in
  let fits_result =
    Pf_fits.Run.run ?engine ~cache_cfg:Space.recording_point ?max_steps
      ?deadline ~trace:fits_trace translation
  in
  check deadline;
  let half = { dict_budget; synthesis; translation; fits_trace; fits_result } in
  { r with fits = r.fits @ [ half ] }

let record ?scale ?max_steps ?deadline ?engine ~dict_budgets b =
  let r = record_arm ?scale ?max_steps ?deadline ?engine b in
  let program =
    {
      Pf_fits.Synthesis.p_image = r.arm.image;
      p_dyn_counts = dyn_counts r;
      p_mult = 1;
    }
  in
  List.fold_left
    (fun r dict_budget ->
      let synthesis =
        Pf_fits.Synthesis.synthesize_suite ?dict_budget [ program ]
      in
      record_fits ?max_steps ?deadline ?engine ~dict_budget synthesis r)
    r dict_budgets

(* The geometry half: replay (or single-pass sweep) a recording through
   every grid point.  Read-only on the recording. *)
let sweep_recording ?(engine = Space.Replay) ~geometries r =
  let n_geoms = List.length geometries in
  let a = r.arm in
  let output = a.arm_result.Pf_cpu.Arm_run.output in
  let arm_points =
    match engine with
    | Space.Replay ->
        arm_sweep ~image:a.image ~output ~geometries a.arm_trace
    | Space.Sweep -> arm_sweep_1pass ~image:a.image ~geometries a.arm_trace
  in
  let replayed = ref (n_geoms * Pf_cpu.Trace.length a.arm_trace) in
  let fits_points =
    List.concat_map
      (fun f ->
        replayed := !replayed + (n_geoms * Pf_cpu.Trace.length f.fits_trace);
        match engine with
        | Space.Replay ->
            fits_sweep ~dict_budget:f.dict_budget ~like:f.fits_result
              ~geometries f.translation f.fits_trace
        | Space.Sweep ->
            fits_sweep_1pass ~dict_budget:f.dict_budget ~like:f.fits_result
              ~geometries f.translation f.fits_trace)
      r.fits
  in
  {
    name = r.bench.Pf_mibench.Registry.name;
    category = r.bench.Pf_mibench.Registry.category;
    points = arm_points @ fits_points;
    replayed_events = !replayed;
    outputs_consistent =
      List.for_all
        (fun f -> f.fits_result.Pf_fits.Run.output = output)
        r.fits;
  }

let default_wall_clock_s = 600.

let run ?(scale = 1) ?max_steps ?(wall_clock_s = default_wall_clock_s) ?jobs
    ?(engine = Space.Sweep) ?(benchmarks = Pf_mibench.Registry.all) space =
  Space.validate space;
  let geometries = Space.geometries space in
  let dict_budgets = space.Space.dict_budgets in
  let variants = Arm :: List.map (fun b -> Fits b) dict_budgets in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let rows =
    Pool.map ~jobs
      (fun (b : Pf_mibench.Registry.benchmark) ->
        let t0 = Unix.gettimeofday () in
        let deadline = Deadline.after ~seconds:wall_clock_s in
        let outcome =
          Sim_error.protect ~where:("dse." ^ b.Pf_mibench.Registry.name)
            (fun () ->
              record ~scale ?max_steps ~deadline ~dict_budgets b
              |> sweep_recording ~engine ~geometries)
        in
        {
          bench = b.Pf_mibench.Registry.name;
          outcome;
          elapsed_s = Unix.gettimeofday () -. t0;
        })
      benchmarks
  in
  let completed =
    List.fold_left
      (fun c r -> if Result.is_ok r.outcome then c + 1 else c)
      0 rows
  in
  {
    space;
    geometries;
    variants;
    rows;
    completed;
    total = List.length rows;
    jobs;
    engine;
  }

let completed_runs t =
  List.filter_map
    (fun r -> match r.outcome with Ok b -> Some b | Error _ -> None)
    t.rows

let diverged t =
  List.exists (fun b -> not b.outputs_consistent) (completed_runs t)

let banner t =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d of %d benchmarks completed (jobs=%d, engine=%s)"
    t.completed t.total t.jobs
    (Space.engine_label t.engine);
  List.iter
    (fun r ->
      match r.outcome with
      | Ok br ->
          if not br.outputs_consistent then
            Printf.bprintf b "\n  %s: DIVERGED (outputs differ from reference)"
              r.bench
      | Error e ->
          Printf.bprintf b "\n  %s: FAILED %s" r.bench (Sim_error.to_string e))
    t.rows;
  Buffer.contents b

(* ---- aggregation and frontiers ----------------------------------------- *)

let add_report (a : Pf_power.Account.report) (b : Pf_power.Account.report) =
  {
    Pf_power.Account.switching = a.Pf_power.Account.switching +. b.Pf_power.Account.switching;
    internal = a.Pf_power.Account.internal +. b.Pf_power.Account.internal;
    leakage = a.Pf_power.Account.leakage +. b.Pf_power.Account.leakage;
    total = a.Pf_power.Account.total +. b.Pf_power.Account.total;
    peak_power = Float.max a.Pf_power.Account.peak_power b.Pf_power.Account.peak_power;
    cycles = a.Pf_power.Account.cycles + b.Pf_power.Account.cycles;
  }

(* Suite aggregate per (variant, geometry): counts and energies sum;
   rates are recomputed from the summed counts (never averaged); the
   D-cache rate — constant per benchmark across geometries — is an
   instruction-weighted mean, and the weighted sum is finalized below.
   Rows are folded in suite order, so the float sums are performed in a
   fixed order regardless of --jobs. *)
let aggregate t =
  match completed_runs t with
  | [] -> []
  | first :: rest ->
      let acc =
        Array.of_list
          (List.map
             (fun p ->
               ( p.variant,
                 p.geometry,
                 {
                   p.metrics with
                   dcache_miss_rate_pm =
                     p.metrics.dcache_miss_rate_pm
                     *. float_of_int p.metrics.instructions;
                 } ))
             first.points)
      in
      List.iter
        (fun br ->
          List.iteri
            (fun i p ->
              let v, g, m = acc.(i) in
              (* completed rows all share the variant × geometry shape;
                 a mismatch means the explorer itself is broken *)
              if v <> p.variant || g <> p.geometry then
                Sim_error.raisef Sim_error.Internal ~where:"dse.explore"
                  "aggregate: point shape mismatch at index %d" i;
              acc.(i) <-
                ( v,
                  g,
                  {
                    instructions = m.instructions + p.metrics.instructions;
                    cycles = m.cycles + p.metrics.cycles;
                    ipc = 0.0;
                    fetch_accesses =
                      m.fetch_accesses + p.metrics.fetch_accesses;
                    cache_accesses =
                      m.cache_accesses + p.metrics.cache_accesses;
                    cache_misses = m.cache_misses + p.metrics.cache_misses;
                    miss_rate_pm = 0.0;
                    dcache_miss_rate_pm =
                      m.dcache_miss_rate_pm
                      +. p.metrics.dcache_miss_rate_pm
                         *. float_of_int p.metrics.instructions;
                    power = add_report m.power p.metrics.power;
                    gate_count = m.gate_count;
                  } ))
            br.points)
        rest;
      Array.to_list acc
      |> List.map (fun (variant, geometry, m) ->
             let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
             {
               variant;
               geometry;
               metrics =
                 {
                   m with
                   ipc = fdiv m.instructions m.cycles;
                   miss_rate_pm =
                     1_000_000.0 *. fdiv m.cache_misses m.cache_accesses;
                   dcache_miss_rate_pm =
                     (if m.instructions = 0 then 0.0
                      else
                        m.dcache_miss_rate_pm /. float_of_int m.instructions);
                 };
             })

let objectives p =
  {
    Pareto.energy = p.metrics.power.Pf_power.Account.total;
    ipc = p.metrics.ipc;
    miss_rate_pm = p.metrics.miss_rate_pm;
    area = float_of_int p.metrics.gate_count;
  }

let frontier_of points =
  Pareto.frontier (List.map (fun p -> (p, objectives p)) points)

(* ---- emitters ---------------------------------------------------------- *)

let f17 x = Printf.sprintf "%.17g" x

let on_frontier front p =
  List.exists (fun (q, _) -> q == p) front.Pareto.frontier

let csv_point buf ~group front (p : point) =
  let m = p.metrics in
  let pw = m.power in
  Printf.bprintf buf "%s,%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%d,%d\n"
    group
    (variant_label p.variant)
    p.geometry.Pf_cache.Icache.size_bytes
    p.geometry.Pf_cache.Icache.block_bytes
    p.geometry.Pf_cache.Icache.assoc m.instructions m.cycles (f17 m.ipc)
    m.fetch_accesses m.cache_accesses m.cache_misses (f17 m.miss_rate_pm)
    (f17 m.dcache_miss_rate_pm)
    (f17 pw.Pf_power.Account.switching)
    (f17 pw.Pf_power.Account.internal)
    (f17 pw.Pf_power.Account.leakage)
    (f17 pw.Pf_power.Account.total)
    (f17 (Pf_power.Account.avg_power pw))
    (f17 pw.Pf_power.Account.peak_power)
    m.gate_count
    (if on_frontier front p then 1 else 0)

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "bench,variant,size_bytes,block_bytes,assoc,instructions,cycles,ipc,\
     fetch_accesses,cache_accesses,cache_misses,miss_rate_pm,\
     dcache_miss_rate_pm,e_switching,e_internal,e_leakage,e_total,\
     avg_power,peak_power,gates,pareto\n";
  List.iter
    (fun br ->
      let front = frontier_of br.points in
      List.iter (csv_point buf ~group:br.name front) br.points)
    (completed_runs t);
  (match aggregate t with
  | [] -> ()
  | pts ->
      let front = frontier_of pts in
      List.iter (csv_point buf ~group:"suite" front) pts);
  Buffer.contents buf
