(* Isolating probes of the traced run.  Each times one layer's public
   entry point on the workload's own probe programs, so that a per-layer
   number names the layer that moved.  Times are medians of [samples]
   samples; counts are exact simulated statistics. *)

open Common
module E = Pf_harness.Experiment
module Arm_run = Pf_cpu.Arm_run
module Trace = Pf_cpu.Trace
module Proto = Pf_serve.Proto
module J = Pf_serve.Json

type input = { name : string; program : Pf_kir.Ast.program; unroll : int }

let of_benchmark (b : Pf_mibench.Registry.benchmark) =
  {
    name = b.Pf_mibench.Registry.name;
    program = b.Pf_mibench.Registry.program ~scale:1;
    unroll = b.Pf_mibench.Registry.unroll;
  }

let samples = 5
let min_sample_s = 0.03

(* Seconds per call of [f] over one sample: enough back-to-back calls to
   last [min_sample_s]; [fresh] makes each call's argument before the
   clock starts. *)
let sample ~fresh f =
  let once, _ = time (fun () -> f (fresh ())) in
  let k = max 1 (int_of_float (Float.ceil (min_sample_s /. Float.max once 1e-7))) in
  fun () ->
    let args = Array.init k (fun _ -> fresh ()) in
    fst (time (fun () -> Array.iter (fun a -> ignore (f a)) args))
    /. float_of_int k

let per_call_fresh ~fresh f =
  let one = sample ~fresh f in
  median (List.init samples (fun _ -> one ()))

let per_call f = per_call_fresh ~fresh:ignore f

(* Median extra seconds per call of [f] over [g], each sample of the two
   taken back to back so that a change in host speed between them does
   not enter the difference. *)
let per_call_extra f g =
  let f = sample ~fresh:ignore f and g = sample ~fresh:ignore g in
  median (List.init samples (fun _ -> f () -. g ()))

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ns_per t n = t *. 1e9 /. float_of_int n
let each ps f () = List.iter (fun p -> ignore (f p)) ps

(* Everything one probe program leaves behind for the probes after it. *)
type prepared = {
  input : input;
  image : Pf_arm.Image.t;
  arm : Arm_run.result;
  trace : Trace.t;
  dyn_counts : int array;
  tr : Pf_fits.Translate.t;
  fits : Pf_fits.Run.result;
  ftrace : Trace.t;
}

let compile input =
  Pf_armgen.Compile.program ~unroll:input.unroll input.program

let arm_run ?trace image =
  Arm_run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k ?trace image

let exec_counts trace image =
  Trace.exec_counts trace ~base:image.Pf_arm.Image.code_base
    ~n:(Array.length image.Pf_arm.Image.words)

let prepare input =
  let image = compile input in
  let trace = Trace.create ~isize:4 () in
  let arm = arm_run ~trace image in
  let dyn_counts = exec_counts trace image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let ftrace = Trace.create ~isize:2 () in
  let fits =
    Pf_fits.Run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k
      ~trace:ftrace tr
  in
  { input; image; arm; trace; dyn_counts; tr; fits; ftrace }

(* The ARM fetch stream of a recording: addresses and bus words. *)
let fetch_stream p =
  let addrs = ref [] in
  Trace.iter p.trace (fun addr _ -> addrs := addr :: !addrs);
  let a = Array.of_list (List.rev !addrs) in
  (a, Array.map (Pf_arm.Image.word_at p.image) a)

let cpu ps =
  let arm_steps = sum (fun p -> p.arm.Arm_run.instructions) ps in
  let fits_steps = sum (fun p -> p.fits.Pf_fits.Run.fits_instructions) ps in
  let n = List.length ps in
  let images = List.map (fun p -> p.image) ps in
  let progs = List.map Pf_arm.Pexec.compile images in
  let dispatch =
    per_call_fresh
      ~fresh:(fun () -> List.map Pf_arm.Exec.create images)
      (List.iter2 Pf_arm.Pexec.run progs)
  in
  let plain_run = each images (fun image -> arm_run image) in
  let plain = per_call plain_run in
  let record =
    per_call_extra
      (each images (fun image -> arm_run ~trace:(Trace.create ~isize:4 ()) image))
      plain_run
  in
  let streams = List.map fetch_stream ps in
  let fetches = sum (fun (a, _) -> Array.length a) streams in
  let probe_cache () =
    List.map
      (fun (addrs, data) ->
        let c = Pf_cache.Icache.create E.cache_16k in
        Array.mapi
          (fun i addr -> Pf_cache.Icache.access_fast c ~addr ~data:data.(i))
          addrs)
      streams
  in
  let outcomes = probe_cache () in
  let account () =
    List.iter
      (fun packed ->
        let a =
          Pf_power.Account.create (Pf_power.Geometry.of_config E.cache_16k)
        in
        Array.iter
          (fun x ->
            Pf_power.Account.on_access a ~toggles:(x lsr 16)
              ~refilled_words:((x lsr 1) land 0x7fff);
            Pf_power.Account.on_cycles a 1;
            Pf_power.Account.on_retire a)
          packed)
      outcomes
  in
  let fits8 p =
    Pf_fits.Run.replay ~cache_cfg:E.cache_8k ~like:p.fits p.tr p.ftrace
  in
  [
    ("arm.dispatch_ns_per_step", ns_per dispatch arm_steps);
    ("cpu.run_ns_per_step", ns_per plain arm_steps);
    ("cpu.trace_record_ns_per_step", ns_per record arm_steps);
    ( "cpu.replay_ns_per_step",
      ns_per
        (per_call
           (each ps (fun p ->
                Arm_run.replay ~cache_cfg:E.cache_8k
                  ~output:p.arm.Arm_run.output p.image p.trace)))
        arm_steps );
    ("cache.probe_ns_per_fetch", ns_per (per_call probe_cache) fetches);
    ("power.account_ns_per_event", ns_per (per_call account) fetches);
    ( "fits.run_ns_per_step",
      ns_per
        (per_call
           (each ps (fun p ->
                Pf_fits.Run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k
                  p.tr)))
        fits_steps );
    ("fits.replay_ns_per_step", ns_per (per_call (each ps fits8)) fits_steps);
    ( "armgen.compile_ms",
      1e3 *. per_call (each ps (fun p -> compile p.input)) /. float_of_int n );
    ( "cpu.exec_counts_ms",
      1e3 *. per_call (each ps (fun p -> exec_counts p.trace p.image))
      /. float_of_int n );
    ( "fits.synthesize_ms",
      1e3
      *. per_call
           (each ps (fun p ->
                Pf_fits.Synthesis.synthesize p.image ~dyn_counts:p.dyn_counts))
      /. float_of_int n );
    ( "fits.translate_ms",
      1e3
      *. per_call
           (each ps (fun p ->
                Pf_fits.Translate.translate p.tr.Pf_fits.Translate.spec p.image))
      /. float_of_int n );
    ("cpu.arm_steps", float_of_int arm_steps);
    ("cpu.fits_steps", float_of_int fits_steps);
    ( "cache.arm16_misses",
      float_of_int (sum (fun p -> p.arm.Arm_run.cache_misses) ps) );
    ( "cache.fits8_misses",
      float_of_int (sum (fun p -> (fits8 p).Pf_fits.Run.cache_misses) ps) );
  ]

let workgen ~seed ps =
  let model = Pf_workgen.Calibrate.reference () in
  let n = 16 in
  let generate () =
    List.init n (fun index -> Pf_workgen.Generate.program ~model ~seed ~index)
  in
  let programs = generate () in
  let prepared =
    List.map
      (fun p ->
        {
          Pf_multi.Suite.bench =
            generated_benchmark ~name:p.input.name p.input.program;
          image = p.image;
          dyn_counts = p.dyn_counts;
          profile =
            Pf_fits.Profile.of_image_counts p.image ~counts:p.dyn_counts;
          reference_output = p.arm.Arm_run.output;
        })
      ps
  in
  let ms_per_program t = 1e3 *. t /. float_of_int n in
  [
    ("workgen.generate_ms", ms_per_program (per_call generate));
    ( "workgen.calibrate_ms",
      ms_per_program
        (per_call (fun () ->
             List.map Pf_workgen.Calibrate.features_of_program programs
             |> Pf_workgen.Calibrate.merge_all
             |> Pf_workgen.Calibrate.max_distance ~reference:model)) );
    ( "multi.synthesize_shared_ms",
      1e3 *. per_call (fun () -> Pf_multi.Suite.synthesize_shared prepared) );
  ]

let dse ps =
  let geometries = Pf_dse.Space.geometries Pf_dse.Space.dense in
  let benches =
    List.map
      (fun p ->
        {
          (generated_benchmark ~name:p.input.name p.input.program) with
          Pf_mibench.Registry.unroll = p.input.unroll;
        })
      ps
  in
  let record () = List.map (Pf_dse.Explore.record ~dict_budgets:[ None ]) benches in
  let recordings = record () in
  (* one sweep is long enough to time once *)
  let sweep_s, events =
    time (fun () ->
        sum
          (fun r ->
            (Pf_dse.Explore.sweep_recording ~engine:Pf_dse.Space.Sweep
               ~geometries r)
              .Pf_dse.Explore.replayed_events)
          recordings)
  in
  [
    ("dse.record_ms", 1e3 *. per_call record /. float_of_int (List.length ps));
    ("dse.sweep_ns_per_geometry_event", ns_per sweep_s events);
    ("dse.geometry_events", float_of_int events);
  ]

(* The daemon's per-request stages, called in process: frame transport
   over a socketpair, request decode, cache key, store, compute and
   response encode. *)
let serve ps =
  let module S = Pf_serve.Service in
  let base = Proto.default_request in
  let named =
    List.map
      (fun b -> { base with Proto.program = Proto.Named b })
      Pf_serve.Loadgen.default_benchmarks
  in
  let inline =
    List.map
      (fun p -> { base with Proto.program = Proto.Inline p.input.program })
      ps
  in
  let us_per reqs f =
    1e6 *. per_call (fun () -> List.iter f reqs) /. float_of_int (List.length reqs)
  in
  let encoded = List.map (fun r -> J.to_string (Proto.request_to_json r)) named in
  let frame =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close a;
        Unix.close b)
      (fun () ->
        us_per encoded (fun bytes ->
            Proto.write_frame a bytes;
            ignore (Proto.read_frame b)))
  in
  let decode =
    us_per encoded (fun bytes ->
        match J.of_string bytes with
        | Ok j -> ignore (Proto.request_of_json j)
        | Error e -> failwith e)
  in
  let compute action =
    let reqs = List.map (fun r -> { r with Proto.action }) inline in
    let run r =
      match S.compute r with
      | Ok (j, _) -> (S.cache_key r, j)
      | Error e -> failwith (Pf_util.Sim_error.to_string e)
    in
    let ms = 1e3 *. per_call (fun () -> List.map run reqs) in
    (ms /. float_of_int (List.length reqs), List.map run reqs)
  in
  let evaluate_ms, results = compute Proto.Evaluate in
  let explore_ms, _ = compute Proto.Explore_point in
  let synthesize_ms, _ = compute Proto.Synthesize in
  let dir = scratch_path "probe-store" in
  let store, _ = Pf_serve.Store.open_ ~fsync:false ~log:ignore dir in
  let payloads =
    List.map (fun (k, j) -> (k, S.envelope ~degraded:false j)) results
  in
  let put = us_per payloads (fun (key, p) -> Pf_serve.Store.put store ~key p) in
  let get =
    us_per payloads (fun (key, _) -> ignore (Pf_serve.Store.get store ~key))
  in
  Pf_serve.Store.close store;
  rm_rf dir;
  let encode =
    us_per results (fun (_, result) ->
        ignore
          (J.to_string
             (Proto.response_to_json
                (Proto.Ok_reply { result; cached = true; degraded = false }))))
  in
  [
    ("serve.frame_us", frame);
    ("serve.decode_us", decode);
    ("serve.key_named_us", us_per named (fun r -> ignore (S.cache_key r)));
    ("serve.key_inline_us", us_per inline (fun r -> ignore (S.cache_key r)));
    ("serve.store_get_us", get);
    ("serve.store_put_us", put);
    ("serve.encode_us", encode);
    ("serve.compute_evaluate_ms", evaluate_ms);
    ("serve.compute_explore_point_ms", explore_ms);
    ("serve.compute_synthesize_ms", synthesize_ms);
  ]

let mc ~seed ps =
  let cores = Array.of_list (List.map (fun p -> (p.input.name, p.image)) ps) in
  let build () = benchmark_machine ~fits:false ~seed cores in
  let sb_seeds = 10 in
  [
    ("mc.build_ms", 1e3 *. per_call build);
    ( "mc.slice_ns",
      median
        (List.init samples (fun _ ->
             let m = build () in
             let t, () = time (fun () -> Pf_mc.Machine.run m) in
             ns_per t (Pf_mc.Machine.slices m))) );
    ( "mc.litmus_machine_ms",
      1e3
      *. per_call (fun () ->
             Pf_mc.Litmus.run ~seeds:sb_seeds ~jobs:1 Pf_mc.Litmus.sb)
      /. float_of_int sb_seeds );
    ( "mc.model_ms",
      1e3
      *. per_call (fun () ->
             List.iter
               (fun t -> ignore (Pf_mc.Model.allowed_strings ~sb_capacity:0 t))
               Pf_mc.Litmus.tests) );
  ]

let run ~seed inputs =
  let ps = List.map prepare inputs in
  cpu ps @ workgen ~seed ps @ dse ps @ serve ps @ mc ~seed ps
