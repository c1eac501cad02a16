open Pf_util

type variant = Arm | Fits of int option

let variant_label = function
  | Arm -> "arm"
  | Fits None -> "fits"
  | Fits (Some b) -> Printf.sprintf "fits@%d" b

let variant_is_arm = function Arm -> true | Fits _ -> false

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

(* Per-point power: the coefficients scale analytically with the read
   width (Account.Params.for_geometry) and the gate count enters through
   the geometry itself.  At both paper points the scaled params equal the
   defaults exactly, so those grid entries coincide bit-for-bit with the
   harness numbers. *)
let params_for cfg =
  Pf_power.Account.Params.for_geometry (Pf_power.Geometry.of_config cfg)

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
      let r =
        Pf_cpu.Arm_run.replay ~power_params:(params_for g) ~cache_cfg:g
          ~output image trace
      in
      { variant = Arm; geometry = g; metrics = metrics_of_arm g r })
    geometries

let fits_sweep ~dict_budget ~like ~geometries tr trace =
  List.map
    (fun g ->
      let r =
        Pf_fits.Run.replay ~power_params:(params_for g) ~cache_cfg:g ~like tr
          trace
      in
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
    Sweep.run ~params_of:params_for ~geometries
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
    Sweep.run ~params_of:params_for ~geometries
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
   so the expensive half can be shared: the traces and translations are a
   function of (program, max_steps, dict budgets) alone — geometry never
   enters — so one recording serves any number of geometry evaluations
   (the serve daemon shares them across explore-point requests).  Traces
   and images are immutable once recorded; sweeping a recording only
   reads it, so concurrent sweeps of a shared recording are safe. *)
type recording = {
  rec_name : string;
  rec_category : string;
  rec_image : Pf_arm.Image.t;
  rec_arm_trace : Pf_cpu.Trace.t;
  rec_arm_output : string;
  rec_fits :
    (int option * Pf_fits.Translate.t * Pf_cpu.Trace.t * Pf_fits.Run.result)
    list;
  rec_consistent : bool;
}

(* 1 + |dict_budgets| recording executions under the block-compiled
   engine (results are engine-invariant; the compiled engine is just the
   fastest way to produce them).  The ARM recording doubles as the
   profiling run — [Trace.exec_counts] of its trace is bit-identical to
   a dedicated counting execution — so synthesis costs no extra run. *)
let record ?(scale = 1) ?max_steps ?deadline ~dict_budgets
    (b : Pf_mibench.Registry.benchmark) =
  let check () = Deadline.check ~where:"dse.explore" deadline in
  let p = b.Pf_mibench.Registry.program ~scale in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  check ();
  let arm_trace = Pf_cpu.Trace.create ~isize:4 () in
  let arm_r =
    Pf_cpu.Arm_run.run ~engine:Pf_cpu.Arm_run.Compiled
      ~cache_cfg:Space.recording_point ?max_steps ?deadline ~trace:arm_trace
      image
  in
  check ();
  let dyn_counts =
    Pf_cpu.Trace.exec_counts arm_trace ~base:image.Pf_arm.Image.code_base
      ~n:(Array.length image.Pf_arm.Image.words)
  in
  let reference_output = arm_r.Pf_cpu.Arm_run.output in
  let consistent = ref true in
  let fits =
    List.map
      (fun budget ->
        let syn =
          match budget with
          | None -> Pf_fits.Synthesis.synthesize image ~dyn_counts
          | Some dict_budget ->
              Pf_fits.Synthesis.synthesize_suite ~dict_budget
                [
                  {
                    Pf_fits.Synthesis.p_image = image;
                    p_dyn_counts = dyn_counts;
                    p_mult = 1;
                  };
                ]
        in
        let tr =
          Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image
        in
        check ();
        let ftrace = Pf_cpu.Trace.create ~isize:2 () in
        let f_r =
          Pf_fits.Run.run ~engine:Pf_fits.Run.Compiled
            ~cache_cfg:Space.recording_point ?max_steps ?deadline
            ~trace:ftrace tr
        in
        check ();
        if f_r.Pf_fits.Run.output <> reference_output then
          consistent := false;
        (budget, tr, ftrace, f_r))
      dict_budgets
  in
  {
    rec_name = b.Pf_mibench.Registry.name;
    rec_category = b.Pf_mibench.Registry.category;
    rec_image = image;
    rec_arm_trace = arm_trace;
    rec_arm_output = reference_output;
    rec_fits = fits;
    rec_consistent = !consistent;
  }

(* The geometry half: replay (or single-pass sweep) a recording through
   every grid point.  Read-only on the recording. *)
let sweep_recording ?(engine = Space.Replay) ~geometries (r : recording) =
  let n_geoms = List.length geometries in
  let arm_points =
    match engine with
    | Space.Replay ->
        arm_sweep ~image:r.rec_image ~output:r.rec_arm_output ~geometries
          r.rec_arm_trace
    | Space.Sweep ->
        arm_sweep_1pass ~image:r.rec_image ~geometries r.rec_arm_trace
  in
  let replayed = ref (n_geoms * Pf_cpu.Trace.length r.rec_arm_trace) in
  let fits_points =
    List.concat_map
      (fun (budget, tr, ftrace, f_r) ->
        replayed := !replayed + (n_geoms * Pf_cpu.Trace.length ftrace);
        match engine with
        | Space.Replay ->
            fits_sweep ~dict_budget:budget ~like:f_r ~geometries tr ftrace
        | Space.Sweep ->
            fits_sweep_1pass ~dict_budget:budget ~like:f_r ~geometries tr
              ftrace)
      r.rec_fits
  in
  {
    name = r.rec_name;
    category = r.rec_category;
    points = arm_points @ fits_points;
    replayed_events = !replayed;
    outputs_consistent = r.rec_consistent;
  }

let run_benchmark ?scale ?max_steps ?deadline ?engine ?recording ~geometries
    ~dict_budgets (b : Pf_mibench.Registry.benchmark) =
  let r =
    match recording with
    | Some r -> r
    | None -> record ?scale ?max_steps ?deadline ~dict_budgets b
  in
  sweep_recording ?engine ~geometries r

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
              run_benchmark ~scale ?max_steps ~deadline ~engine ~geometries
                ~dict_budgets b)
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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_point buf front (p : point) =
  let m = p.metrics in
  let pw = m.power in
  Printf.bprintf buf
    "{\"variant\": \"%s\", \"size_bytes\": %d, \"block_bytes\": %d, \
     \"assoc\": %d, \"instructions\": %d, \"cycles\": %d, \"ipc\": %s, \
     \"fetch_accesses\": %d, \"cache_accesses\": %d, \"cache_misses\": %d, \
     \"miss_rate_pm\": %s, \"dcache_miss_rate_pm\": %s, \"e_switching\": %s, \
     \"e_internal\": %s, \"e_leakage\": %s, \"e_total\": %s, \
     \"avg_power\": %s, \"peak_power\": %s, \"gates\": %d, \"pareto\": %s}"
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
    (if on_frontier front p then "true" else "false")

let json_points buf pts =
  let front = frontier_of pts in
  Buffer.add_string buf "[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      json_point buf front p)
    pts;
  Buffer.add_string buf "]"

let to_json t =
  let buf = Buffer.create 8192 in
  Printf.bprintf buf "{\n  \"schema\": 1,\n  \"jobs\": %d,\n  \"engine\": \"%s\",\n"
    t.jobs
    (Space.engine_label t.engine);
  Printf.bprintf buf "  \"geometries\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun g -> Printf.sprintf "\"%s\"" (Space.label g))
          t.geometries));
  Printf.bprintf buf "  \"variants\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun v -> Printf.sprintf "\"%s\"" (variant_label v))
          t.variants));
  Buffer.add_string buf "  \"benchmarks\": [\n";
  let first = ref true in
  List.iter
    (fun br ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Printf.bprintf buf
        "    {\"name\": \"%s\", \"category\": \"%s\", \
         \"outputs_consistent\": %b, \"replayed_events\": %d, \"points\": "
        (json_escape br.name) (json_escape br.category) br.outputs_consistent
        br.replayed_events;
      json_points buf br.points;
      Buffer.add_string buf "}")
    (completed_runs t);
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"failed\": [";
  let firstf = ref true in
  List.iter
    (fun r ->
      match r.outcome with
      | Ok _ -> ()
      | Error e ->
          if not !firstf then Buffer.add_string buf ", ";
          firstf := false;
          Printf.bprintf buf "{\"bench\": \"%s\", \"error\": \"%s\"}"
            (json_escape r.bench)
            (json_escape (Sim_error.to_string e)))
    t.rows;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf "  \"suite\": ";
  (match aggregate t with
  | [] -> Buffer.add_string buf "[]"
  | pts -> json_points buf pts);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
