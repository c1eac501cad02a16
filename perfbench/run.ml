(* perfbench/run.exe — the repository benchmark (BENCHMARK.json).

     run.exe --workload NAME --seed N --seconds S --trace 0|1
     run.exe --self-check BENCHMARK.json

   A run sets its workload up repeatedly (the median is [setup_s]), then
   runs the workload's rounds until [S] seconds have passed, then checks
   the outputs against the slow oracles.  The last line of stdout is one
   JSON object: [correct], [attempted], [failed] and the metrics — the
   end-to-end table with [--trace 0], the per-layer table with
   [--trace 1].  A traced run spends half of [S] on untraced rounds and
   half on the traced walk, writes the walk's spans to
   [.perfbench/trace-WORKLOAD-seedN.jsonl], then runs the isolating
   probes.  [--self-check] compares the table below with BENCHMARK.json;
   it runs no simulation. *)

open Common
module J = Pf_serve.Json

(* Set-up runs at least [setup_reps] times and for at least
   [setup_min_s] seconds in all, so a set-up of a few milliseconds is
   still a median of many samples. *)
let setup_reps = 3
let setup_min_s = 2.0

type outcome = {
  setup_s : float list;
  rounds : Workload.op list list;
  rss_mb : float;  (** VmHWM after the timed rounds *)
  layers : (string * float) list;  (** per-layer values, traced runs only *)
}

(* Each operation's name, median work, median seconds and sample count
   over the rounds. *)
let per_op rounds =
  let ops = List.concat rounds in
  List.sort_uniq compare (List.map (fun (o : Workload.op) -> o.Workload.op) ops)
  |> List.map (fun name ->
         let mine = List.filter (fun (o : Workload.op) -> o.Workload.op = name) ops in
         ( name,
           median (List.map (fun (o : Workload.op) -> o.Workload.work) mine),
           median (List.map (fun (o : Workload.op) -> o.Workload.seconds) mine),
           List.length mine ))

(* Work units per second, each operation counted at its median time: a
   stretch of host contention that slows one round's run of an operation
   does not move the result, where a rate of whole rounds would take it
   in. *)
let work_per_s rounds =
  let ops = per_op rounds in
  List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0. ops
  /. List.fold_left (fun acc (_, _, s, _) -> acc +. s) 0. ops

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
  measure : outcome -> float;
}

let e2e name unit_ better bound measure =
  { name; unit_; better; bound = Some bound; measure }

(* Per-layer values come from the traced run, under the same name. *)
let layer name unit_ better =
  let measure o =
    match List.assoc_opt name o.layers with
    | Some v -> v
    | None -> failwith ("the traced run produced no value for " ^ name)
  in
  { name; unit_; better; bound = None; measure }

(* The one metric table: it drives measurement, the output line and the
   self-check against BENCHMARK.json. *)
let metrics =
  [
    e2e "setup_s" "s" Lower 0.25 (fun o -> median o.setup_s);
    e2e "work_per_s" "1/s" Higher 0.24 (fun o -> work_per_s o.rounds);
    { (layer "peak_rss_mb" "MB" Lower) with measure = (fun o -> o.rss_mb) };
    layer "arm.dispatch_ns_per_step" "ns" Lower;
    layer "cpu.run_ns_per_step" "ns" Lower;
    layer "cpu.trace_record_ns_per_step" "ns" Lower;
    layer "cpu.replay_ns_per_step" "ns" Lower;
    layer "cache.probe_ns_per_fetch" "ns" Lower;
    layer "power.account_ns_per_event" "ns" Lower;
    layer "fits.run_ns_per_step" "ns" Lower;
    layer "fits.replay_ns_per_step" "ns" Lower;
    layer "armgen.compile_ms" "ms" Lower;
    layer "cpu.exec_counts_ms" "ms" Lower;
    layer "fits.synthesize_ms" "ms" Lower;
    layer "fits.translate_ms" "ms" Lower;
    layer "workgen.generate_ms" "ms" Lower;
    layer "workgen.calibrate_ms" "ms" Lower;
    layer "multi.synthesize_shared_ms" "ms" Lower;
    layer "dse.record_ms" "ms" Lower;
    layer "dse.sweep_ns_per_geometry_event" "ns" Lower;
    layer "serve.frame_us" "us" Lower;
    layer "serve.decode_us" "us" Lower;
    layer "serve.key_named_us" "us" Lower;
    layer "serve.key_inline_us" "us" Lower;
    layer "serve.store_get_us" "us" Lower;
    layer "serve.store_put_us" "us" Lower;
    layer "serve.encode_us" "us" Lower;
    layer "serve.compute_evaluate_ms" "ms" Lower;
    layer "serve.compute_explore_point_ms" "ms" Lower;
    layer "serve.compute_synthesize_ms" "ms" Lower;
    layer "mc.build_ms" "ms" Lower;
    layer "mc.slice_ns" "ns" Lower;
    layer "mc.litmus_machine_ms" "ms" Lower;
    layer "mc.model_ms" "ms" Lower;
    layer "cpu.arm_steps" "count" Lower;
    layer "cpu.fits_steps" "count" Lower;
    layer "cache.arm16_misses" "count" Lower;
    layer "cache.fits8_misses" "count" Lower;
    layer "dse.geometry_events" "count" Higher;
    layer "coverage" "ratio" Higher;
    layer "trace_overhead" "ratio" Lower;
  ]

let end_to_end = List.filter (fun m -> m.bound <> None) metrics
let per_layer = List.filter (fun m -> m.bound = None) metrics

(* ---- running a workload ----------------------------------------------- *)

(* The results of rounds 0, 1, ... until [budget] seconds have passed.
   The budget counts wall time, including whatever a round does outside
   the operations it times, so a run's length stays bounded. *)
let rounds ~budget f =
  let t0 = now () in
  let rec go k acc =
    if now () -. t0 >= budget then List.rev acc else go (k + 1) (f k :: acc)
  in
  go 0 []

let run_workload (w : Workload.t) ~seed ~seconds ~trace =
  let rec set_up times =
    let dt, s = time (fun () -> w.Workload.setup ~seed) in
    let times = dt :: times in
    if List.length times >= setup_reps
       && List.fold_left ( +. ) 0. times >= setup_min_s
    then (times, s)
    else begin
      s.Workload.close ();
      set_up times
    end
  in
  let setup_s, s = set_up [] in
  Fun.protect ~finally:s.Workload.close (fun () ->
      let budget = if trace then seconds /. 2. else seconds in
      let timed = rounds ~budget s.Workload.round in
      let rss_mb = peak_rss_mb () in
      let attempted, failed = s.Workload.check () in
      let layers =
        if not trace then []
        else begin
          let walk_s, walk_work =
            time (fun () ->
                List.fold_left ( +. ) 0. (rounds ~budget s.Workload.walk))
          in
          let path =
            Filename.concat run_dir
              (Printf.sprintf "trace-%s-seed%d.jsonl" w.Workload.name seed)
          in
          mkdir_p run_dir;
          Span.write_jsonl path;
          Printf.eprintf "%s: traced walk %.2f s, spans in %s; self time by span:\n"
            w.Workload.name walk_s path;
          List.iter
            (fun (n, t) ->
              Printf.eprintf "  %-28s %8.3f s %5.1f%%\n" n t (100. *. t /. walk_s))
            (Span.self_times ());
          Probe.run ~seed s.Workload.probe_inputs
          @ [
              ("coverage", Span.coverage ~wall:walk_s);
              ("trace_overhead", work_per_s timed /. (walk_work /. walk_s));
            ]
        end
      in
      ({ setup_s; rounds = timed; rss_mb; layers }, attempted, failed))

let report (w : Workload.t) ~trace (o, attempted, failed) =
  let table = if trace then per_layer else end_to_end in
  let produced = List.map fst o.layers in
  List.iter
    (fun name ->
      if not (List.exists (fun m -> m.name = name) table) then
        failwith ("probe value missing from the metric table: " ^ name))
    produced;
  Printf.eprintf "%s: %d rounds, %d set-ups; work unit: %s\n" w.Workload.name
    (List.length o.rounds) (List.length o.setup_s) w.Workload.work_unit;
  List.iter
    (fun (name, work, seconds, n) ->
      Printf.eprintf "  op %-22s median %10.3f ms over %2d, %12.6g units\n" name
        (seconds *. 1e3) n work)
    (per_op o.rounds);
  let values = List.map (fun m -> (m, m.measure o)) table in
  List.iter
    (fun (m, v) -> Printf.eprintf "  %-34s %16.6g %s\n" m.name v m.unit_)
    values;
  J.Obj
    [
      ("correct", J.Bool (failed = 0 && attempted > 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (m, v) ->
               (m.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.unit_) ]))
             values) );
    ]

(* ---- self-check against BENCHMARK.json -------------------------------- *)

let workload_names = List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all

let better_name = function Lower -> "lower" | Higher -> "higher"

let valid_name s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 64 && String.for_all ok s
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)

let valid_unit s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok s

let self_check file =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let text = In_channel.with_open_bin file In_channel.input_all in
  (match J.of_string text with
  | Error e -> fail "%s does not parse: %s" file e
  | Ok json ->
      let field k j = Option.bind (J.member k j) in
      let str k j = field k j J.to_string_opt in
      let list k j = Option.value ~default:[] (field k j J.to_list_opt) in
      let declared = List.map (fun j -> str "name" j) (list "workloads" json) in
      if declared <> List.map Option.some workload_names then
        fail "workloads are [%s]; the runner has [%s]"
          (String.concat "; " (List.map (Option.value ~default:"?") declared))
          (String.concat "; " workload_names);
      if List.length declared = List.length workload_names then
        List.iter2
          (fun (w : Workload.t) j ->
            if str "why" j <> Some w.Workload.why then
              fail "workload %s: why differs from the runner's" w.Workload.name)
          Workload.all (list "workloads" json);
      let compare_table key table =
        let rows = list key json in
        if List.length rows <> List.length table then
          fail "%s lists %d metrics; the runner has %d" key (List.length rows)
            (List.length table)
        else
          List.iter2
            (fun m j ->
              if str "name" j <> Some m.name then
                fail "%s: %s is listed where the runner has %s" key
                  (Option.value ~default:"?" (str "name" j)) m.name;
              if str "unit" j <> Some m.unit_ then fail "%s: unit differs" m.name;
              if str "better" j <> Some (better_name m.better) then
                fail "%s: direction differs" m.name;
              if field "bound" j J.to_float_opt <> m.bound then
                fail "%s: bound differs" m.name)
            table rows
      in
      compare_table "end_to_end" end_to_end;
      compare_table "per_layer" per_layer;
      (match field "run_seconds" json J.to_int_opt with
      | Some s when s >= 1 && s <= 60 -> ()
      | _ -> fail "run_seconds must be a whole number from 1 to 60");
      List.iter
        (fun n -> if not (valid_name n) then fail "invalid name %S" n)
        (workload_names @ List.map (fun m -> m.name) metrics);
      List.iter
        (fun m -> if not (valid_unit m.unit_) then fail "invalid unit %S" m.unit_)
        metrics;
      if not (List.exists (fun m -> m.name = "setup_s") end_to_end) then
        fail "setup_s is missing");
  match List.rev !errors with
  | [] ->
      Printf.printf
        "self-check ok: %d workloads, %d end-to-end and %d per-layer metrics\n"
        (List.length Workload.all) (List.length end_to_end) (List.length per_layer)
  | errs ->
      List.iter (Printf.eprintf "self-check: %s\n") errs;
      exit 1

(* ---- command line ----------------------------------------------------- *)

let usage () =
  Printf.sprintf
    "usage: run.exe --workload {%s} --seed N --seconds S --trace {0|1}\n\
    \       run.exe --self-check BENCHMARK.json"
    (String.concat "|" workload_names)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("run.exe: " ^ msg);
      prerr_endline (usage ());
      exit 2)
    fmt

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--self-check"; file ] -> self_check file
  | args ->
      let rec parse acc = function
        | [] -> acc
        | flag :: value :: rest
          when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
            parse ((flag, value) :: acc) rest
        | arg :: _ -> die "unexpected argument %S" arg
      in
      let opts = parse [] args in
      let get flag =
        match List.assoc_opt flag opts with
        | Some v -> v
        | None -> die "missing %s" flag
      in
      let int_of flag ~expect valid =
        let v = get flag in
        match int_of_string_opt v with
        | Some n when valid n -> n
        | _ -> die "%s must be %s (got %S)" flag expect v
      in
      let name = get "--workload" in
      let w =
        match List.assoc_opt name (List.combine workload_names Workload.all) with
        | Some w -> w
        | None -> die "unknown workload %S" name
      in
      let seed = int_of "--seed" ~expect:"an integer" (fun _ -> true) in
      let seconds =
        int_of "--seconds" ~expect:"a whole number, at least 1" (fun s -> s >= 1)
      in
      let trace = int_of "--trace" ~expect:"0 or 1" (fun t -> t = 0 || t = 1) = 1 in
      let result = run_workload w ~seed ~seconds:(float_of_int seconds) ~trace in
      print_endline (J.to_string (report w ~trace result))
