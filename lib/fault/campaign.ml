open Pf_util

type outcome = Clean | Detected | Silent | Divergent | Crashed

type report = {
  target : Injector.target;
  rate : float;
  seed : int;
  trials : int;
  parity : bool;
  baseline : Pf_fits.Run.result;
  flips : int;
  entries_corrupted : int;
  parity_detectable : int;
  clean : int;
  detected : int;
  silent : int;
  divergent : int;
  crashed : int;
  crash_kinds : (string * int) list;
}

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let default_cache_cfg = Pf_cache.Icache.config ~size_bytes:(16 * 1024) ()

let run ?(trials = 20) ?(parity = false) ?max_steps
    ?(cache_cfg = default_cache_cfg) ?jobs ~target ~rate ~seed ~reference
    (tr : Pf_fits.Translate.t) =
  let baseline = Pf_fits.Run.run ~cache_cfg tr in
  let budget =
    match max_steps with
    | Some m -> m
    | None ->
        (* corrupted control flow can loop: give trials generous but
           bounded headroom over the healthy instruction count *)
        max 10_000_000 (4 * baseline.Pf_fits.Run.fits_instructions)
  in
  let rng = Rng.create seed in
  (* Split every trial's generator from the parent stream up front, in
     trial order, so the per-trial streams — and therefore the whole
     campaign — are identical whether trials then run sequentially or
     across a pool of domains. *)
  let trngs = Array.make (max trials 0) rng in
  for i = 0 to trials - 1 do
    trngs.(i) <- Rng.split rng
  done;
  let one_trial trng =
    let run_trial, trial_stats, icache_detected =
      match (target : Injector.target) with
      | Injector.Decoder ->
          let tr', t = Injector.corrupt_decoder trng ~rate ~parity tr in
          ( (fun () -> Pf_fits.Run.run ~cache_cfg ~max_steps:budget tr'),
            (fun () -> t), false )
      | Injector.Dict ->
          let tr', t = Injector.corrupt_dict trng ~rate ~parity tr in
          ( (fun () -> Pf_fits.Run.run ~cache_cfg ~max_steps:budget tr'),
            (fun () -> t), false )
      | Injector.Icache ->
          let cache = Pf_cache.Icache.create cache_cfg in
          let t =
            Injector.schedule_icache_flips trng ~rate ~parity
              ~accesses:baseline.Pf_fits.Run.cache_accesses ~cfg:cache_cfg
              cache
          in
          ( (fun () ->
              Pf_fits.Run.run ~cache ~cache_cfg ~max_steps:budget tr),
            (fun () -> t),
            parity && t.Injector.parity_detectable > 0 )
      | Injector.Regs ->
          let hook, summary = Injector.regs_hook trng ~rate in
          ( (fun () ->
              Pf_fits.Run.run ~cache_cfg ~max_steps:budget ~on_step:hook tr),
            summary, false )
    in
    let result = Sim_error.protect ~where:"fault.campaign" run_trial in
    (result, trial_stats (), icache_detected)
  in
  let outcomes = Pf_util.Pool.map ?jobs one_trial (Array.to_list trngs) in
  let flips = ref 0 and corrupted = ref 0 and detectable = ref 0 in
  let clean = ref 0 and detected = ref 0 and silent = ref 0 in
  let divergent = ref 0 and crashed = ref 0 in
  let crash_kinds = Hashtbl.create 4 in
  List.iter
    (fun (result, t, icache_detected) ->
      flips := !flips + t.Injector.flips;
      corrupted := !corrupted + t.Injector.entries_corrupted;
      detectable := !detectable + t.Injector.parity_detectable;
      match result with
      | Ok r ->
          if t.Injector.flips = 0 then incr clean
          else if r.Pf_fits.Run.output <> reference then incr divergent
          else if icache_detected then incr detected
          else incr silent
      | Error e ->
          if has_substring ~sub:"parity" e.Sim_error.detail then
            incr detected
          else begin
            incr crashed;
            let k = Sim_error.kind_name e.Sim_error.kind in
            Hashtbl.replace crash_kinds k
              (1 + Option.value ~default:0 (Hashtbl.find_opt crash_kinds k))
          end)
    outcomes;
  let crash_kinds =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) crash_kinds []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    target; rate; seed; trials; parity; baseline;
    flips = !flips;
    entries_corrupted = !corrupted;
    parity_detectable = !detectable;
    clean = !clean;
    detected = !detected;
    silent = !silent;
    divergent = !divergent;
    crashed = !crashed;
    crash_kinds;
  }

let to_string r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "fault campaign: target=%s rate=%g seed=%d trials=%d parity=%s\n"
    (Injector.target_name r.target)
    r.rate r.seed r.trials
    (if r.parity then "on" else "off");
  Printf.bprintf b
    "  injected: %d bit flips across %d entries (%d parity-detectable)\n"
    r.flips r.entries_corrupted r.parity_detectable;
  Printf.bprintf b "  outcomes: detected=%d silent=%d divergent=%d crashed=%d clean=%d\n"
    r.detected r.silent r.divergent r.crashed r.clean;
  List.iter
    (fun (k, n) -> Printf.bprintf b "    crash kind %-18s %d\n" k n)
    r.crash_kinds;
  if r.entries_corrupted > 0 then
    Printf.bprintf b "  parity coverage: %.1f%% of corrupted entries\n"
      (100.0
      *. float_of_int r.parity_detectable
      /. float_of_int r.entries_corrupted);
  Printf.bprintf b "  baseline: %d fits insns, %d cycles\n"
    r.baseline.Pf_fits.Run.fits_instructions r.baseline.Pf_fits.Run.cycles;
  Buffer.contents b
