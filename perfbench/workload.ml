(* The five workloads.  Each set-up builds its inputs from the seed and
   returns a session whose [round k] runs the k-th unit of timed work
   through the layers' public entry points and reports each operation it
   timed.  [walk k] runs the same inputs through the same chain of calls
   with a span around each call (the traced run), and [check] compares
   what the rounds produced against the repo's slow oracles, outside any
   timed section.  The oracles' own expected values are computed in
   [check], so neither set-up nor the timed rounds pay for them. *)

open Common
module E = Pf_harness.Experiment
module Arm_run = Pf_cpu.Arm_run
module Trace = Pf_cpu.Trace
module Rng = Pf_util.Rng
module Proto = Pf_serve.Proto
module J = Pf_serve.Json

let span = Span.span

(* One timed operation of a round.  Operations with the same name do the
   same work in every round, so the runner can take each one's median
   time over the rounds. *)
type op = { op : string; work : float; seconds : float }

type session = {
  round : int -> op list;
  walk : int -> float;  (** work units of the traced walk of round k *)
  check : unit -> int * int;
      (** operations attempted and failed: the rounds' own outcomes plus
          every oracle comparison *)
  probe_inputs : Probe.input list;
  close : unit -> unit;
}

type t = {
  name : string;
  why : string;
  work_unit : string;  (** what [work_per_s] counts on this workload *)
  setup : seed:int -> session;
}

let timed op work f =
  let seconds, r = time f in
  ({ op; work = work r; seconds }, r)

(* A fresh deterministic stream per (seed, round): round k of a traced
   run sees exactly the inputs of round k of an untraced one. *)
let rng ~seed k = Rng.create ((seed * 1_000_003) + k)

let shuffled ~seed k xs =
  let a = Array.of_list xs in
  Rng.shuffle (rng ~seed k) a;
  Array.to_list a

(* Counters behind [check]: every operation a round runs, and every
   comparison an oracle makes, is attempted once and may fail. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let count t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let result t = (t.attempted, t.failed)

let nothing () = ()
let say fmt = Printf.eprintf (fmt ^^ "\n%!")
let probe_benchmarks = List.map (fun n -> Probe.of_benchmark (benchmark n))

(* A program's compiled ARM output against the reference interpreter's. *)
let matches_eval ?(unroll = 1) program =
  let image = Pf_armgen.Compile.program ~unroll program in
  (Arm_run.run ~engine:Arm_run.Compiled image).Arm_run.output
  = (Pf_kir.Eval.run program).Pf_kir.Eval.output

(* ---- suite ------------------------------------------------------------ *)

let insns (r : E.bench_result) =
  r.E.arm16.E.instructions + r.E.arm8.E.instructions
  + r.E.fits16.E.instructions + r.E.fits8.E.instructions

(* FITS8-vs-ARM16 total I-cache power saving, suite average over the
   power study's rows: the abstract's 46.6% headline. *)
let headline_saving results =
  let pw (c : E.per_config) =
    c.E.power.Pf_power.Account.total /. float_of_int c.E.cycles
  in
  E.power_rows results
  |> List.map (fun (r : E.bench_result) ->
         Pf_util.Stats.saving ~baseline:(pw r.E.arm16) (pw r.E.fits8))
  |> Pf_util.Stats.mean

(* Short benchmarks the reference-engine oracle draws from. *)
let reference_pool = [ "crc32"; "qsort"; "dijkstra"; "fft"; "sha"; "lame" ]

(* Experiment.run_benchmark's chain, one span per call. *)
let walk_benchmark (b : Pf_mibench.Registry.benchmark) =
  Span.op b.Pf_mibench.Registry.name (fun () ->
      let p = span "kir.build" (fun () -> b.Pf_mibench.Registry.program ~scale:1) in
      let image =
        span "armgen.compile" (fun () ->
            Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p)
      in
      let trace = Trace.create ~isize:4 () in
      let arm16 =
        span "cpu.run" (fun () ->
            Arm_run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k ~trace
              image)
      in
      let arm8 =
        span "cpu.replay" (fun () ->
            Arm_run.replay ~cache_cfg:E.cache_8k ~output:arm16.Arm_run.output
              image trace)
      in
      let dyn_counts =
        span "cpu.exec_counts" (fun () ->
            Trace.exec_counts trace ~base:image.Pf_arm.Image.code_base
              ~n:(Array.length image.Pf_arm.Image.words))
      in
      let syn =
        span "fits.synthesize" (fun () ->
            Pf_fits.Synthesis.synthesize image ~dyn_counts)
      in
      let tr =
        span "fits.translate" (fun () ->
            Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image)
      in
      span "thumb.estimate" (fun () -> ignore (Pf_thumb.Translate.estimate image));
      let ftrace = Trace.create ~isize:2 () in
      let fits16 =
        span "fits.run" (fun () ->
            Pf_fits.Run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k
              ~trace:ftrace tr)
      in
      let fits8 =
        span "fits.replay" (fun () ->
            Pf_fits.Run.replay ~cache_cfg:E.cache_8k ~like:fits16 tr ftrace)
      in
      arm16.Arm_run.instructions + arm8.Arm_run.instructions
      + fits16.Pf_fits.Run.arm_instructions + fits8.Pf_fits.Run.arm_instructions)

let suite =
  let setup ~seed =
    let programs =
      List.map
        (fun (b : Pf_mibench.Registry.benchmark) ->
          (b, b.Pf_mibench.Registry.program ~scale:1))
        Pf_mibench.Registry.all
    in
    let t = tally () in
    let first = ref [] in
    let round k =
      let sweep = E.run_all ~jobs:1 ~engine:Arm_run.Compiled () in
      if k = 0 then first := E.completed_results sweep;
      List.map
        (fun (row : E.sweep_row) ->
          let work =
            match row.E.outcome with
            | Ok r ->
                count t r.E.outputs_consistent;
                insns r
            | Error e ->
                say "suite: %s failed: %s" row.E.bench
                  (Pf_util.Sim_error.to_string e);
                count t false;
                0
          in
          { op = row.E.bench; work = float_of_int work; seconds = row.E.elapsed_s })
        sweep.E.rows
    in
    let walk _ =
      Pf_mibench.Registry.all
      |> List.fold_left (fun acc b -> acc + walk_benchmark b) 0
      |> float_of_int
    in
    let check () =
      List.iter
        (fun ((b : Pf_mibench.Registry.benchmark), p) ->
          let ok = matches_eval ~unroll:b.Pf_mibench.Registry.unroll p in
          if not ok then
            say "suite: %s output differs from Eval" b.Pf_mibench.Registry.name;
          count t ok)
        programs;
      (* two rows, drawn by the seed, re-run on the reference interpreter
         must be identical *)
      List.iter
        (fun name ->
          let again =
            E.run_benchmark ~engine:Arm_run.Reference (benchmark name)
          in
          let ok =
            List.exists
              (fun (r : E.bench_result) -> r.E.name = name && compare r again = 0)
              !first
          in
          if not ok then say "suite: %s differs on the reference engine" name;
          count t ok)
        (List.filteri (fun i _ -> i < 2) (shuffled ~seed (-1) reference_pool));
      let saving = headline_saving !first in
      say
        "suite: FITS8 vs ARM16 total I-cache power saving %.2f%% (paper 46.6%%, \
         error %.2f pp)"
        saving (Float.abs (saving -. 46.6));
      result t
    in
    {
      round;
      walk;
      check;
      probe_inputs = probe_benchmarks [ "crc32"; "sha" ];
      close = nothing;
    }
  in
  {
    name = "suite";
    why =
      "the paper's four configurations over all 21 benchmarks, as a \
       reproducer runs them; execution-layer changes show here";
    work_unit = "simulated source instructions of the four configurations";
    setup;
  }

(* ---- population ------------------------------------------------------- *)

let campaign_size = 32

let generated ~model ~seed index =
  {
    Probe.name = Pf_workgen.Generate.name ~index;
    program = Pf_workgen.Generate.program ~model ~seed ~index;
    unroll = 1;
  }

(* Population's chain for one campaign, one span per call. *)
let walk_campaign ~seed =
  let model = Pf_workgen.Calibrate.reference () in
  let programs =
    List.init campaign_size (fun index ->
        Span.op (Pf_workgen.Generate.name ~index) (fun () ->
            span "workgen.generate" (fun () ->
                Pf_workgen.Generate.program ~model ~seed ~index)))
  in
  Span.op "calibrate" (fun () ->
      span "workgen.calibrate" (fun () ->
          let feats =
            Pf_workgen.Calibrate.merge_all
              (List.map Pf_workgen.Calibrate.features_of_program programs)
          in
          ignore (Pf_workgen.Calibrate.max_distance ~reference:model feats);
          ignore (Pf_workgen.Calibrate.report ~reference:model feats)));
  let prepared =
    List.mapi
      (fun index program ->
        let name = Pf_workgen.Generate.name ~index in
        Span.op name (fun () ->
            let image =
              span "armgen.compile" (fun () -> Pf_armgen.Compile.program program)
            in
            let trace = Trace.create ~isize:4 () in
            let arm16 =
              span "cpu.run" (fun () ->
                  Arm_run.run ~cache_cfg:E.cache_16k ~trace image)
            in
            let dyn_counts =
              span "cpu.exec_counts" (fun () ->
                  Trace.exec_counts trace ~base:image.Pf_arm.Image.code_base
                    ~n:(Array.length image.Pf_arm.Image.words))
            in
            let profile =
              span "fits.profile" (fun () ->
                  Pf_fits.Profile.of_image_counts image ~counts:dyn_counts)
            in
            let syn =
              span "fits.synthesize" (fun () ->
                  Pf_fits.Synthesis.synthesize image ~dyn_counts)
            in
            let tr =
              span "fits.translate" (fun () ->
                  Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image)
            in
            ignore
              (span "fits.run" (fun () ->
                   Pf_fits.Run.run ~cache_cfg:E.cache_8k tr));
            {
              Pf_multi.Suite.bench = generated_benchmark ~name program;
              image;
              dyn_counts;
              profile;
              reference_output = arm16.Arm_run.output;
            }))
      programs
  in
  let shared =
    Span.op "shared" (fun () ->
        span "multi.synthesize_shared" (fun () ->
            Pf_multi.Suite.synthesize_shared prepared))
  in
  List.iter
    (fun (p : Pf_multi.Suite.prepared) ->
      Span.op (Pf_multi.Suite.name p) (fun () ->
          let tr =
            span "fits.translate" (fun () ->
                Pf_fits.Translate.translate shared.Pf_multi.Suite.spec
                  p.Pf_multi.Suite.image)
          in
          ignore
            (span "fits.run" (fun () -> Pf_fits.Run.run ~cache_cfg:E.cache_8k tr))))
    prepared;
  float_of_int campaign_size

let population =
  let setup ~seed =
    let campaign k = (seed * 1_000) + k in
    let model = Pf_workgen.Calibrate.reference () in
    (* the first campaign's held-out programs: the oracle's and the
       probes' inputs *)
    let first = List.init campaign_size (generated ~model ~seed:(campaign 0)) in
    let t = tally () in
    let round k =
      let op, r =
        timed "campaign"
          (fun _ -> float_of_int campaign_size)
          (fun () ->
            Pf_workgen.Population.run ~jobs:1 ~count:campaign_size
              ~seed:(campaign k) ())
      in
      List.iter
        (fun (i, msg) -> say "population: campaign %d row %d failed: %s" k i msg)
        r.Pf_workgen.Population.failures;
      List.iter
        (fun (row : Pf_workgen.Population.row) ->
          count t row.Pf_workgen.Population.r_output_ok)
        r.Pf_workgen.Population.rows;
      List.iter (fun _ -> count t false) r.Pf_workgen.Population.failures;
      [ op ]
    in
    let check () =
      List.iter
        (fun (p : Probe.input) ->
          let ok = matches_eval p.Probe.program in
          if not ok then say "population: %s differs from Eval" p.Probe.name;
          count t ok)
        first;
      result t
    in
    {
      round;
      walk = (fun k -> walk_campaign ~seed:(campaign k));
      check;
      probe_inputs = List.filteri (fun i _ -> i < 2) first;
      close = nothing;
    }
  in
  {
    name = "population";
    why =
      "held-out generated programs, each small, so fixed per-program costs \
       (compile, synthesis, shared synthesis) weigh about 40%";
    work_unit = "generated programs through a full campaign";
    setup;
  }

(* ---- dse-dense -------------------------------------------------------- *)

(* The seven registry programs with the cheapest dense sweep: one round
   of record + sweep over all of them takes about 5.5 s on one core. *)
let dse_eligible =
  [ "crc32"; "qsort"; "fft"; "stringsearch"; "dijkstra"; "lame"; "ispell" ]

let dse_dense =
  let setup ~seed =
    Pf_dse.Space.validate Pf_dse.Space.dense;
    let geometries = Pf_dse.Space.geometries Pf_dse.Space.dense in
    let paper = [ E.cache_8k; E.cache_16k ] in
    let order k = List.map benchmark (shuffled ~seed k dse_eligible) in
    let t = tally () in
    let first = ref [] in
    let round k =
      List.map
        (fun (b : Pf_mibench.Registry.benchmark) ->
          let op, run =
            timed b.Pf_mibench.Registry.name
              (fun run -> float_of_int run.Pf_dse.Explore.replayed_events)
              (fun () ->
                Pf_dse.Explore.record ~dict_budgets:[ None ] b
                |> Pf_dse.Explore.sweep_recording ~engine:Pf_dse.Space.Sweep
                     ~geometries)
          in
          count t run.Pf_dse.Explore.outputs_consistent;
          if k = 0 then
            first :=
              ( b,
                List.filter
                  (fun (p : Pf_dse.Explore.point) ->
                    List.mem p.Pf_dse.Explore.geometry paper)
                  run.Pf_dse.Explore.points )
              :: !first;
          op)
        (order k)
    in
    let walk k =
      List.fold_left
        (fun acc (b : Pf_mibench.Registry.benchmark) ->
          Span.op b.Pf_mibench.Registry.name (fun () ->
              let r =
                span "dse.record" (fun () ->
                    Pf_dse.Explore.record ~dict_budgets:[ None ] b)
              in
              let run =
                span "dse.sweep" (fun () ->
                    Pf_dse.Explore.sweep_recording ~engine:Pf_dse.Space.Sweep
                      ~geometries r)
              in
              acc +. float_of_int run.Pf_dse.Explore.replayed_events))
        0. (order k)
    in
    (* the replay engine is the sweep's oracle at the paper's two
       geometries *)
    let check () =
      List.iter
        (fun ((b : Pf_mibench.Registry.benchmark), swept) ->
          let replayed =
            (Pf_dse.Explore.record ~dict_budgets:[ None ] b
            |> Pf_dse.Explore.sweep_recording ~engine:Pf_dse.Space.Replay
                 ~geometries:paper)
              .Pf_dse.Explore.points
          in
          let ok = compare replayed swept = 0 in
          if not ok then
            say "dse-dense: %s sweep differs from replay" b.Pf_mibench.Registry.name;
          count t ok)
        !first;
      result t
    in
    {
      round;
      walk;
      check;
      probe_inputs = probe_benchmarks [ "crc32"; "qsort" ];
      close = nothing;
    }
  in
  {
    name = "dse-dense";
    why =
      "the 1058-geometry single-pass sweep, about 95% sweep kernel and under \
       5% execution: the control for simulator changes";
    work_unit = "geometry events (trace events x geometries)";
    setup;
  }

(* ---- serve ------------------------------------------------------------ *)

let serve_conns = 2
let serve_round_requests = 1000

(* Whether an explore-point reply reused a recording depends on the
   order requests arrived in, not on the result. *)
let comparable = function
  | J.Obj fields -> J.to_string (J.Obj (List.remove_assoc "trace_shared" fields))
  | j -> J.to_string j

let serve =
  let setup ~seed =
    let dir = scratch_path "serve" in
    mkdir_p dir;
    let socket = Filename.concat dir "s.sock" in
    let store_dir = Filename.concat dir "store" in
    let cfg =
      {
        Pf_serve.Daemon.default_config with
        Pf_serve.Daemon.socket_path = socket;
        store_dir = Some store_dir;
        fsync = false;
      }
    in
    let daemon = Domain.spawn (fun () -> Pf_serve.Daemon.run ~log:ignore cfg) in
    let running = ref true in
    let stop () =
      if !running then begin
        running := false;
        ignore (Pf_serve.Client.shutdown ~socket ());
        Domain.join daemon
      end
    in
    let model = Pf_workgen.Calibrate.reference () in
    (* Round k ships one program of its own inline, so the first touches
       of its 7 keys compute and write the store inside every round's
       timed part, beside about 990 warm hits.  It is the middle one by
       size of 8 programs generated for (seed, k): a generated program's
       key work grows with its size. *)
    let inline k =
      List.init 8 (fun index ->
          let p =
            Pf_workgen.Generate.program ~model ~seed:((seed * 1_000) + k) ~index
          in
          (String.length (Pf_workgen.Generate.render p), index, p))
      |> List.sort compare
      |> fun pool ->
      let _, _, p = List.nth pool 4 in
      p
    in
    let named =
      Pf_serve.Loadgen.corpus ~benchmarks:Pf_serve.Loadgen.default_benchmarks ()
    in
    let primed =
      try
        Pf_util.Pool.map ~jobs:serve_conns
          (fun req -> (req, Pf_serve.Client.request ~socket req))
          named
      with e ->
        stop ();
        raise e
    in
    let t = tally () in
    let hits = ref 0 in
    let shipped = ref [] in
    let round k =
      let p = inline k in
      shipped := (k, p) :: !shipped;
      let r =
        Pf_serve.Loadgen.run ~inline:[ p ] ~socket
          ~requests:serve_round_requests ~conns:serve_conns
          ~seed:((seed * 1_000) + k) ()
      in
      t.attempted <- t.attempted + r.Pf_serve.Loadgen.requests;
      t.failed <-
        t.failed + r.Pf_serve.Loadgen.errors + r.Pf_serve.Loadgen.overloaded;
      hits := !hits + r.Pf_serve.Loadgen.cached;
      [
        {
          op = "loadgen";
          work = float_of_int r.Pf_serve.Loadgen.requests;
          seconds = r.Pf_serve.Loadgen.elapsed_s;
        };
      ]
    in
    (* The traced walk runs the daemon's per-request stages in process
       over the daemon's own store, so it stops the daemon first. *)
    let walk k =
      stop ();
      let store, _ = Pf_serve.Store.open_ ~fsync:false ~log:ignore store_dir in
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let frame bytes =
        span "serve.frame" (fun () ->
            Proto.write_frame a bytes;
            Option.get (Proto.read_frame b))
      in
      let corpus =
        Array.of_list
          (Pf_serve.Loadgen.corpus ~inline:[ inline k ]
             ~benchmarks:Pf_serve.Loadgen.default_benchmarks ())
      in
      let r = rng ~seed k in
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b;
          Pf_serve.Store.close store)
        (fun () ->
          for i = 0 to serve_round_requests - 1 do
            let req = corpus.(Rng.int r (Array.length corpus)) in
            Span.op (Printf.sprintf "req-%d" i) (fun () ->
                let bytes =
                  frame
                    (span "serve.client_encode" (fun () ->
                         J.to_string (Proto.request_to_json req)))
                in
                let req =
                  span "serve.decode" (fun () ->
                      match J.of_string bytes with
                      | Ok j -> Proto.request_of_json j
                      | Error e -> failwith e)
                in
                let key =
                  span "serve.key" (fun () -> Pf_serve.Service.cache_key req)
                in
                let result, degraded =
                  match
                    span "serve.store_get" (fun () ->
                        Pf_serve.Store.get store ~key)
                  with
                  | Some payload ->
                      span "serve.envelope" (fun () ->
                          Pf_serve.Service.of_envelope payload)
                  | None -> (
                      match
                        span "serve.compute" (fun () ->
                            Pf_serve.Service.compute req)
                      with
                      | Ok (j, d) ->
                          span "serve.store_put" (fun () ->
                              Pf_serve.Store.put store ~key
                                (Pf_serve.Service.envelope ~degraded:d j));
                          (j, d)
                      | Error e -> failwith (Pf_util.Sim_error.to_string e))
                in
                let out =
                  span "serve.encode" (fun () ->
                      J.to_string
                        (Proto.response_to_json
                           (Proto.Ok_reply { result; cached = true; degraded })))
                in
                ignore (frame out))
          done;
          float_of_int serve_round_requests)
    in
    (* A reply the daemon serves must equal a fresh in-process
       computation: one named key in eleven, drawn by the seed, and one
       key of each round's inline program, which that round computed and
       wrote to the store. *)
    let check () =
      List.iter
        (fun (_, reply) ->
          count t (match reply with Proto.Ok_reply _ -> true | _ -> false))
        primed;
      let sampled =
        List.filteri (fun i _ -> i mod 11 = seed mod 11) named
        @ List.map
            (fun (k, p) ->
              List.nth
                (Pf_serve.Loadgen.corpus ~inline:[ p ] ~benchmarks:[] ())
                ((seed + k) mod 7))
            !shipped
      in
      List.iter
        (fun req ->
          let ok =
            match
              (Pf_serve.Client.request ~socket req, Pf_serve.Service.compute req)
            with
            | Proto.Ok_reply { result; _ }, Ok (fresh, _) ->
                comparable result = comparable fresh
            | _ -> false
          in
          if not ok then say "serve: a served reply differs from a fresh compute";
          count t ok)
        sampled;
      (match Pf_serve.Client.status ~socket () with
      | Proto.Ok_reply { result; _ } ->
          say "serve: %d cached replies; daemon status %s" !hits (J.to_string result)
      | _ -> say "serve: status request failed");
      result t
    in
    {
      round;
      walk;
      check;
      probe_inputs =
        List.map
          (fun k ->
            { Probe.name = Printf.sprintf "inline-%d" k; program = inline k; unroll = 1 })
          [ 0; 1 ];
      close =
        (fun () ->
          stop ();
          rm_rf dir);
    }
  in
  {
    name = "serve";
    why =
      "warm cache hits of the daemon over 2 connections: key, store, frame \
       and JSON work, no simulation";
    work_unit = "requests answered";
    setup;
  }

(* ---- mc --------------------------------------------------------------- *)

let mc_benchmarks =
  [ "crc32"; "qsort"; "dijkstra"; "fft"; "stringsearch"; "sha"; "lame"; "ispell" ]

let litmus_seeds = 40

let mc =
  let setup ~seed =
    let programs =
      List.map
        (fun name ->
          let b = benchmark name in
          let p = b.Pf_mibench.Registry.program ~scale:1 in
          ( name,
            (p, Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p) ))
        mc_benchmarks
    in
    (* Each benchmark runs once on an ARM machine and once on a FITS
       machine of four cores; the seed decides which benchmarks share a
       machine, once for the whole run, so each machine does the same
       work in every round. *)
    let machines =
      List.concat_map
        (fun fits ->
          let order = Array.of_list (shuffled ~seed (Bool.to_int fits) mc_benchmarks) in
          List.init 2 (fun m ->
              ( fits,
                Array.map
                  (fun n -> (n, snd (List.assoc n programs)))
                  (Array.sub order (4 * m) 4) )))
        [ false; true ]
    in
    let machine_seed k i = (seed * 1_000) + (k * 4) + i in
    let t = tally () in
    let outputs = ref [] in
    let litmus (test : Pf_mc.Model.test) =
      let r = Pf_mc.Litmus.run ~seeds:litmus_seeds ~jobs:1 test in
      t.attempted <- t.attempted + r.Pf_mc.Litmus.seeds;
      List.iter
        (fun (outcome, n) ->
          say "mc: %s forbidden outcome %s (%d seeds)" r.Pf_mc.Litmus.name outcome n;
          t.failed <- t.failed + n)
        r.Pf_mc.Litmus.forbidden
    in
    let round k =
      let sweeps =
        List.map
          (fun (test : Pf_mc.Model.test) ->
            fst
              (timed ("litmus-" ^ test.Pf_mc.Model.name)
                 (fun () -> float_of_int litmus_seeds)
                 (fun () -> litmus test)))
          Pf_mc.Litmus.tests
      in
      let benches =
        List.mapi
          (fun i (fits, cores) ->
            let op, m =
              timed (Printf.sprintf "machine-%d" i)
                (fun _ -> 1.)
                (fun () ->
                  let m =
                    benchmark_machine ~fits ~seed:(machine_seed k i) cores
                  in
                  Pf_mc.Machine.run m;
                  m)
            in
            Array.iter
              (fun (name, (c : Pf_cpu.Step.result)) ->
                outputs := (name, c.Pf_cpu.Step.output) :: !outputs)
              (Pf_mc.Machine.report m).Pf_mc.Machine.cores;
            op)
          machines
      in
      sweeps @ benches
    in
    let walk k =
      List.iter
        (fun (test : Pf_mc.Model.test) ->
          Span.op test.Pf_mc.Model.name (fun () ->
              span "mc.litmus" (fun () -> litmus test)))
        Pf_mc.Litmus.tests;
      List.iteri
        (fun i (fits, cores) ->
          Span.op (Printf.sprintf "machine-%d" i) (fun () ->
              let m =
                span "mc.build" (fun () ->
                    benchmark_machine ~fits ~seed:(machine_seed k i) cores)
              in
              span "mc.run" (fun () -> Pf_mc.Machine.run m)))
        machines;
      float_of_int ((List.length Pf_mc.Litmus.tests * litmus_seeds) + List.length machines)
    in
    (* every core's output against the reference interpreter *)
    let check () =
      let want =
        List.map
          (fun (name, (p, _)) -> (name, (Pf_kir.Eval.run p).Pf_kir.Eval.output))
          programs
      in
      List.iter
        (fun (name, got) ->
          let ok = got = List.assoc name want in
          if not ok then say "mc: core %s output differs from Eval" name;
          count t ok)
        !outputs;
      result t
    in
    {
      round;
      walk;
      check;
      probe_inputs = probe_benchmarks [ "crc32"; "fft" ];
      close = nothing;
    }
  in
  {
    name = "mc";
    why =
      "per-instruction Pf_cpu.Step, a loop apart from the block-compiled \
       engine, and machine construction, which dominates litmus runs";
    work_unit =
      "machines built and run: 7 litmus tests x 40 seeds, then 4 four-core \
       benchmark machines";
    setup;
  }

let all = [ suite; population; dse_dense; serve; mc ]
