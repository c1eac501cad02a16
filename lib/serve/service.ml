(* Request evaluation: cache keys, the compute paths, and the
   degradation ladder.  Pure with respect to the daemon — everything
   stateful (socket, admission queue, counters) lives in {!Daemon}; this
   module maps one request to one response given a store handle, so tests
   can drive it without a socket.  Its one piece of state is the registry
   digest memo below. *)

module SE = Pf_util.Sim_error
module Registry = Pf_mibench.Registry

let err fmt = SE.raisef SE.Invalid_config ~where:"serve.service" fmt

(* ---- program digests ---- *)

(* A registry program is a pure function of (benchmark, scale), and so is
   its digest.  Encoding the program to canonical JSON costs 1-2 ms, over
   a hundred times a warm store read, so each registry benchmark gets one
   slot holding its last (scale, digest) pair, keyed by canonical name
   (the [gsm] alias shares [gsm.decode]'s slot).  The table is built once
   and never resized, so concurrent readers need no lock; a slot is an
   [Atomic.t], so two domains racing on a cold slot both compute the same
   digest and either write wins.  A client cycling through scales makes
   the daemon recompute, never grow. *)
let digest_slots : (string, (int * string) option Atomic.t) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter
    (fun b -> Hashtbl.replace t b.Registry.name (Atomic.make None))
    Registry.all;
  t

let program_digest (req : Proto.request) =
  match req.Proto.program with
  | Proto.Inline p -> Kir_codec.digest p
  | Proto.Named n -> (
      let b = Registry.find_exn n in
      let slot = Hashtbl.find digest_slots b.Registry.name in
      let scale = req.Proto.scale in
      match Atomic.get slot with
      | Some (s, d) when s = scale -> d
      | _ ->
          let d = Kir_codec.digest (b.Registry.program ~scale) in
          Atomic.set slot (Some (scale, d));
          d)

(* ---- request resolution ---- *)

type resolved = {
  r_program : Pf_kir.Ast.program;
  r_name : string;
  r_unroll : int;
  r_digest : string Lazy.t;  (* forced to key a recording half *)
}

(* An explicit unroll wins; otherwise a registry program compiles with
   its own factor and an inline one with 1. *)
let unroll_of (req : Proto.request) =
  match (req.Proto.unroll, req.Proto.program) with
  | Some u, _ -> u
  | None, Proto.Inline _ -> 1
  | None, Proto.Named n -> (Registry.find_exn n).Registry.unroll

let resolve (req : Proto.request) =
  let r_unroll = unroll_of req and r_digest = lazy (program_digest req) in
  match req.Proto.program with
  | Proto.Inline p -> { r_program = p; r_name = "inline"; r_unroll; r_digest }
  | Proto.Named n ->
      let b = Registry.find_exn n in
      {
        r_program = b.Registry.program ~scale:req.Proto.scale;
        r_name = b.Registry.name;
        r_unroll;
        r_digest;
      }

(* ---- cache keys ---- *)

let opt_int name = function
  | None -> name ^ "=none"
  | Some i -> Printf.sprintf "%s=%d" name i

(* The key preimage is a canonical line list over exactly the fields that
   can change the result of the action.  The program enters by *content*
   (MD5 of its canonical KIR encoding, already specialized to the request
   scale), so a registry name and an identical inline shipment share one
   entry; fields irrelevant to an action (geometry for [synthesize]) stay
   out so they cannot fragment the cache. *)
let cache_key (req : Proto.request) =
  let geom_line (g : Pf_cache.Icache.config) =
    Printf.sprintf "geometry=%d/%d/%d" g.Pf_cache.Icache.size_bytes
      g.Pf_cache.Icache.block_bytes g.Pf_cache.Icache.assoc
  in
  let common =
    [
      "powerfits-serve/1";
      "action=" ^ Proto.action_name req.Proto.action;
      "program=" ^ program_digest req;
      Printf.sprintf "unroll=%d" (unroll_of req);
      opt_int "max_steps" req.Proto.max_steps;
    ]
  in
  let fits_fields =
    [
      "weighting=" ^ Pf_multi.Weighting.to_string req.Proto.weighting;
      opt_int "dict_budget" req.Proto.dict_budget;
    ]
  in
  let lines =
    match req.Proto.action with
    | Proto.Synthesize -> common @ fits_fields
    | Proto.Evaluate ->
        (* evaluate replies off the paper's read width once used the
           16 KB power coefficients; the model line keeps a store filled
           then from answering with that model *)
        common
        @ [
            "power-model/2";
            "isa=" ^ Proto.isa_name req.Proto.isa;
            geom_line req.Proto.geometry;
          ]
        @ (if req.Proto.isa = Proto.Fits then fits_fields else [])
    | Proto.Explore_point ->
        (* the action synthesizes with multiplier 1 whatever the
           request's weighting, so weighting stays out of its key *)
        common
        @ [ geom_line req.Proto.geometry;
            opt_int "dict_budget" req.Proto.dict_budget ]
    | (Proto.Status | Proto.Shutdown) as a ->
        err "action %s has no cache key" (Proto.action_name a)
  in
  String.concat "\n" lines

(* ---- keyed requests ---- *)

(* [keyed] is the only constructor and [key] the only writer of the slot,
   so a key is never paired with a request it was not computed from.
   Whichever domain asks first computes it; two domains racing on an
   empty slot compute the same key and either write wins. *)
type key_state = Unkeyed | Key of string | Unkeyable

type keyed = { req : Proto.request; slot : key_state Atomic.t }

let keyed req = { req; slot = Atomic.make Unkeyed }
let request k = k.req

let key k =
  match Atomic.get k.slot with
  | Key s -> s
  | Unkeyed | Unkeyable -> (
      match cache_key k.req with
      | s ->
          Atomic.set k.slot (Key s);
          s
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set k.slot Unkeyable;
          Printexc.raise_with_backtrace e bt)

let unkeyable k = match Atomic.get k.slot with Unkeyable -> true | _ -> false

(* ---- result encoders ---- *)

let power_json (p : Pf_power.Account.report) =
  Json.Obj
    [
      ("switching", Json.Float p.Pf_power.Account.switching);
      ("internal", Json.Float p.Pf_power.Account.internal);
      ("leakage", Json.Float p.Pf_power.Account.leakage);
      ("total", Json.Float p.Pf_power.Account.total);
      ("peak_power", Json.Float p.Pf_power.Account.peak_power);
      ("cycles", Json.Int p.Pf_power.Account.cycles);
    ]

let output_md5 s = Digest.to_hex (Digest.string s)

(* ---- compute paths ---- *)

module X = Pf_dse.Explore

let synthesis_of ~weighting ~(req : Proto.request) ~(r : resolved) image
    ~dyn_counts =
  let dyn_insns = Array.fold_left ( + ) 0 dyn_counts in
  let p_mult =
    Pf_multi.Weighting.multiplier weighting ~name:r.r_name ~dyn_insns
  in
  let syn =
    Pf_fits.Synthesis.synthesize_suite ?dict_budget:req.Proto.dict_budget
      [ { Pf_fits.Synthesis.p_image = image; p_dyn_counts = dyn_counts; p_mult } ]
  in
  (syn, dyn_insns)

(* ---- shared recordings ---- *)

(* Trace-sharing keys: exactly what determines a recording half.  Geometry
   stays out — requests share across it — and so does a deadline, which
   aborts a recording but cannot truncate one. *)
let arm_key ~(r : resolved) ~max_steps =
  String.concat "\n"
    [
      "powerfits-trace/1";
      "program=" ^ Lazy.force r.r_digest;
      Printf.sprintf "unroll=%d" r.r_unroll;
      opt_int "max_steps" max_steps;
    ]

let fits_key ~weighting ~(req : Proto.request) ~r ~max_steps =
  String.concat "\n"
    [
      arm_key ~r ~max_steps;
      opt_int "dict_budget" req.Proto.dict_budget;
      "weighting=" ^ Pf_multi.Weighting.to_string weighting;
    ]

(* The flag says whether another request recorded the half. *)
let arm_half ts ~(r : resolved) ?max_steps ?deadline () =
  Trace_share.arm_half ts ~key:(arm_key ~r ~max_steps) (fun () ->
      X.record_arm ?max_steps ?deadline
        (Registry.of_program ~unroll:r.r_unroll ~category:"serve" r.r_name
           r.r_program))

(* A FITS half, built on the table's ARM half and its counts, so a
   program's ARM side runs once while it stays in the table. *)
let fits_half ts ~weighting ~req ~r ?max_steps ?deadline () =
  Trace_share.fits_half ts ~key:(fits_key ~weighting ~req ~r ~max_steps)
    ~arm:(fun () -> fst (arm_half ts ~r ?max_steps ?deadline ()))
    (fun arm ->
      let recording = Trace_share.recording arm in
      let syn, _ =
        synthesis_of ~weighting ~req ~r recording.X.arm.X.image
          ~dyn_counts:(Trace_share.counts ts arm)
      in
      X.record_fits ?max_steps ?deadline ~dict_budget:req.Proto.dict_budget
        syn recording)

(* Synthesis needs only a profile.  The table's ARM half has one when the
   table holds it or another request is recording it: its counts are a
   counting run's, and its output the same program's.  Otherwise a bare
   counting run, which costs less than a recording. *)
let compute_synthesize ts ~(req : Proto.request) ~(r : resolved) ?max_steps
    ?deadline () =
  let image, dyn_counts, output =
    match Trace_share.find ts ~key:(arm_key ~r ~max_steps) with
    | Some arm ->
        let a = (Trace_share.recording arm).X.arm in
        ( a.X.image,
          Trace_share.counts ts arm,
          a.X.arm_result.Pf_cpu.Arm_run.output )
    | None ->
        let image = Pf_armgen.Compile.program ~unroll:r.r_unroll r.r_program in
        let dyn_counts, output =
          Pf_fits.Synthesis.dyn_counts_of_run ?max_steps ?deadline image
        in
        (image, dyn_counts, output)
  in
  let syn, dyn_insns =
    synthesis_of ~weighting:req.Proto.weighting ~req ~r image ~dyn_counts
  in
  Json.Obj
    [
      ("program", Json.String r.r_name);
      ("ais_opdefs", Json.Int (List.length syn.Pf_fits.Synthesis.ais));
      ( "candidates_considered",
        Json.Int syn.Pf_fits.Synthesis.candidates_considered );
      ("datapath_off", Json.Float syn.Pf_fits.Synthesis.datapath_off);
      ("dict_spilled", Json.Int syn.Pf_fits.Synthesis.dict_spilled);
      ("dyn_insns", Json.Int dyn_insns);
      ("output_md5", Json.String (output_md5 output));
    ]

(* An evaluate reply: one configuration's metrics, with the FITS-only
   fields at their places. *)
let evaluate_json ~(r : resolved) ~isa ~after_insns ~before_power
    (m : X.metrics) output =
  Json.Obj
    ([
       ("program", Json.String r.r_name);
       ("isa", Json.String isa);
       ("instructions", Json.Int m.X.instructions);
     ]
    @ after_insns
    @ [
        ("cycles", Json.Int m.X.cycles);
        ("ipc", Json.Float m.X.ipc);
        ("fetch_accesses", Json.Int m.X.fetch_accesses);
        ("cache_accesses", Json.Int m.X.cache_accesses);
        ("cache_misses", Json.Int m.X.cache_misses);
        ("miss_rate_pm", Json.Float m.X.miss_rate_pm);
        ("dcache_miss_rate_pm", Json.Float m.X.dcache_miss_rate_pm);
      ]
    @ before_power
    @ [
        ("power", power_json m.X.power);
        ("output_md5", Json.String (output_md5 output));
      ])

(* An evaluate executes only its own ISA and reads the half's result at
   its geometry: the recording run at the recording point, a replay of
   the recorded stream elsewhere — bit-identical to a direct run there
   and to explore-point's point for the same variant. *)
let compute_evaluate ts ~(req : Proto.request) ~(r : resolved) ?max_steps
    ?deadline () =
  let g = req.Proto.geometry in
  match req.Proto.isa with
  | Proto.Arm ->
      let arm, _ = arm_half ts ~r ?max_steps ?deadline () in
      let res = Trace_share.arm_result ts arm g in
      evaluate_json ~r ~isa:"arm" ~after_insns:[] ~before_power:[]
        (X.metrics_of_arm g res) res.Pf_cpu.Arm_run.output
  | Proto.Fits ->
      let fits, _ =
        fits_half ts ~weighting:req.Proto.weighting ~req ~r ?max_steps
          ?deadline ()
      in
      let f = List.hd (Trace_share.recording fits).X.fits in
      let res = Trace_share.fits_result ts fits g in
      evaluate_json ~r ~isa:"fits"
        ~after_insns:
          [
            ("fits_instructions", Json.Int res.Pf_fits.Run.fits_instructions);
            ( "dyn_one_to_one_pct",
              Json.Float res.Pf_fits.Run.dyn_one_to_one_pct );
          ]
        ~before_power:
          [
            ( "dict_spilled",
              Json.Int f.X.synthesis.Pf_fits.Synthesis.dict_spilled );
          ]
        (X.metrics_of_fits g res) res.Pf_fits.Run.output

(* Explore-point synthesizes with multiplier 1 whatever the request's
   weighting, so it shares FITS halves with [dynamic]-weighted evaluates,
   and it reads both ISAs' results at its geometry as evaluate does. *)
let compute_explore_point ts ~(req : Proto.request) ~(r : resolved)
    ?max_steps ?deadline () =
  let fits, trace_shared =
    fits_half ts ~weighting:Pf_multi.Weighting.Dyn_count ~req ~r ?max_steps
      ?deadline ()
  in
  let g = req.Proto.geometry in
  let recording = Trace_share.recording fits in
  let a = recording.X.arm and f = List.hd recording.X.fits in
  let point variant (m : X.metrics) =
    Json.Obj
      [
        ("variant", Json.String (X.variant_label variant));
        ("geometry", Proto.geometry_to_json g);
        ("instructions", Json.Int m.X.instructions);
        ("cycles", Json.Int m.X.cycles);
        ("ipc", Json.Float m.X.ipc);
        ("cache_misses", Json.Int m.X.cache_misses);
        ("miss_rate_pm", Json.Float m.X.miss_rate_pm);
        ("gate_count", Json.Int m.X.gate_count);
        ("power", power_json m.X.power);
      ]
  in
  Json.Obj
    [
      ("program", Json.String r.r_name);
      ( "points",
        Json.List
          [
            point X.Arm (X.metrics_of_arm g (Trace_share.arm_result ts fits g));
            point (X.Fits f.X.dict_budget)
              (X.metrics_of_fits g (Trace_share.fits_result ts fits g));
          ] );
      ( "replayed_events",
        Json.Int
          (Pf_cpu.Trace.length a.X.arm_trace
          + Pf_cpu.Trace.length f.X.fits_trace) );
      ( "outputs_consistent",
        Json.Bool
          (f.X.fits_result.Pf_fits.Run.output
          = a.X.arm_result.Pf_cpu.Arm_run.output) );
      ("trace_shared", Json.Bool trace_shared);
    ]

(* ---- degradation ladder ---- *)

let default_budget_s = 60.

let compute ?traces ?(budget_s = default_budget_s) ?default_max_steps
    (req : Proto.request) =
  (* with no shared table, one of the request's own: its paths still
     record each half once and compute each result once *)
  let ts = match traces with Some ts -> ts | None -> Trace_share.create () in
  let attempt (req : Proto.request) =
    SE.protect ~where:"serve.service" (fun () ->
        let r = resolve req in
        let max_steps =
          match req.Proto.max_steps with
          | Some _ as m -> m
          | None -> default_max_steps
        in
        let budget = Option.value ~default:budget_s req.Proto.budget_s in
        let deadline =
          if budget > 0. then Some (Pf_util.Deadline.after ~seconds:budget)
          else None
        in
        match req.Proto.action with
        | Proto.Synthesize ->
            compute_synthesize ts ~req ~r ?max_steps ?deadline ()
        | Proto.Evaluate -> compute_evaluate ts ~req ~r ?max_steps ?deadline ()
        | Proto.Explore_point ->
            compute_explore_point ts ~req ~r ?max_steps ?deadline ()
        | (Proto.Status | Proto.Shutdown) as a ->
            err "action %s is not computable" (Proto.action_name a))
  in
  (* over-budget requests degrade to half workload rather than failing:
     halve the scale while possible, each attempt under a fresh budget.
     Only a watchdog trip degrades — a deterministic simulation error
     repeats identically at any scale, so retrying it is pure waste. *)
  let rec ladder req degraded =
    match attempt req with
    | Ok result -> Ok (result, degraded)
    | Error { SE.kind = SE.Watchdog_timeout; _ }
      when req.Proto.scale > 1
           && (match req.Proto.program with
              | Proto.Named _ -> true
              | Proto.Inline _ -> false) ->
        ladder { req with Proto.scale = req.Proto.scale / 2 } true
    | Error e -> Error e
  in
  ladder req false

(* ---- cache envelope ---- *)

(* What a store payload holds: the result plus the degraded flag, so a
   cache hit replays the original reply exactly. *)
let envelope ~degraded result =
  Json.to_string (Json.Obj [ ("degraded", Json.Bool degraded); ("result", result) ])

let of_envelope s =
  match Json.of_string s with
  | Error msg -> err "corrupt cache payload: %s" msg
  | Ok j ->
      let degraded =
        Option.value ~default:false
          (Option.bind (Json.member "degraded" j) Json.to_bool_opt)
      in
      let result = Option.value ~default:Json.Null (Json.member "result" j) in
      (result, degraded)

(* ---- one request end to end ---- *)

let handle ?store ?inflight ?traces ?budget_s ?default_max_steps (k : keyed) =
  let req = k.req in
  match req.Proto.action with
  | Proto.Status | Proto.Shutdown ->
      Proto.Error_reply
        {
          SE.kind = SE.Invalid_config;
          where = "serve.service";
          detail =
            Proto.action_name req.Proto.action
            ^ " is handled by the daemon, not the compute service";
          backtrace = None;
        }
  | Proto.Synthesize | Proto.Evaluate | Proto.Explore_point -> (
      let use_cache = store <> None && not req.Proto.no_cache in
      match SE.protect ~where:"serve.service" (fun () -> key k) with
      | Error e -> Proto.Error_reply e
      | Ok key ->
          let lookup_or_compute () =
            let cached_hit =
              if not use_cache then None
              else
                Option.bind store (fun s ->
                    Retry.with_backoff ~where:"serve.store" (fun () ->
                        Store.get s ~key))
            in
            match cached_hit with
            | Some payload -> (
                match SE.protect ~where:"serve.service" (fun () ->
                          of_envelope payload)
                with
                | Ok (result, degraded) ->
                    Proto.Ok_reply { result; cached = true; degraded }
                | Error e -> Proto.Error_reply e)
            | None -> (
                match compute ?traces ?budget_s ?default_max_steps req with
                | Error e -> Proto.Error_reply e
                | Ok (result, degraded) ->
                    (if use_cache then
                       match store with
                       | Some s ->
                           Retry.with_backoff ~where:"serve.store" (fun () ->
                               Store.put s ~key (envelope ~degraded result))
                       | None -> ());
                    Proto.Ok_reply { result; cached = false; degraded })
          in
          (* coalescing is safe even under [no_cache]: that flag bypasses
             possibly-stale *store* entries, but a concurrent in-flight
             computation is fresh by definition *)
          (match inflight with
          | None -> lookup_or_compute ()
          | Some infl -> (
              match Inflight.run infl ~key lookup_or_compute with
              | Inflight.Led resp | Inflight.Joined resp -> resp)))
