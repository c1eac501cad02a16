(* Load generation against a running daemon: a deterministic request
   corpus (seeded {!Pf_util.Rng} choice over benchmarks × actions × ISAs
   × geometries), [conns] concurrent client domains issuing one request
   per connection, per-request latency on the monotonic clock.

   The corpus is deliberately much smaller than the request count, so a
   long run exercises the cache hit path hard; the unique-key count is
   reported next to the hit rate to make the expectation checkable. *)

type result = {
  requests : int;
  ok : int;
  cached : int;
  degraded : int;
  errors : int;
  overloaded : int;
  unique_keys : int;
  elapsed_s : float;
  throughput_rps : float;
  hit_rate : float;  (** cached / ok *)
  p50_ms : float;
  p99_ms : float;
  mean_ms : float;
  warm_requests : int;
  warm_p50_ms : float;
  warm_p99_ms : float;
  warm_mean_ms : float;
}

(* default corpus axes: fast benchmarks only — the generator's job is
   protocol and store traffic, not long simulations *)
let default_benchmarks = [ "crc32"; "bitcount"; "stringsearch" ]

let requests_for program =
  let geometries = [ Pf_dse.Space.cache_16k; Pf_dse.Space.cache_8k ] in
  let base = Proto.default_request in
  List.concat_map
    (fun geometry ->
      [
        {
          base with
          Proto.action = Proto.Evaluate;
          program;
          isa = Proto.Arm;
          geometry;
        };
        {
          base with
          Proto.action = Proto.Evaluate;
          program;
          isa = Proto.Fits;
          geometry;
        };
        { base with Proto.action = Proto.Explore_point; program; geometry };
      ])
    geometries
  @ [ { base with Proto.action = Proto.Synthesize; program } ]

let corpus ?(inline = []) ~benchmarks () =
  List.concat_map (fun bench -> requests_for (Proto.Named bench)) benchmarks
  @ List.concat_map (fun p -> requests_for (Proto.Inline p)) inline

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (Float.of_int (n - 1) *. p /. 100.) in
    sorted.(max 0 (min (n - 1) idx))

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let run ?(benchmarks = default_benchmarks) ?(inline = [])
    ?(policy = Retry.default_policy) ~socket ~requests ~conns ~seed () =
  if requests < 1 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
      ~where:"serve.loadgen" "requests must be positive (got %d)" requests;
  let conns = max 1 conns in
  let pool = Array.of_list (corpus ~inline ~benchmarks ()) in
  let unique_keys = Array.length pool in
  (* pre-draw every request deterministically, then stripe across
     connections: the request *set* is a function of (seed, requests)
     alone, independent of conns *)
  let rng = Pf_util.Rng.create seed in
  let drawn = Array.init requests (fun _ -> Pf_util.Rng.int rng unique_keys) in
  let plan = Array.map (fun i -> pool.(i)) drawn in
  (* warm = not the plan's first request on its cache key.  First touches
     pay the compute (synthesis, simulation); everything after should be
     a store hit or coalesced wait, so splitting the percentiles
     separates steady-state serving latency from cold-start compute.
     The mask is a function of the plan alone, deterministic and
     conns-independent like the plan itself.  Each drawn corpus entry is
     keyed once; entries that alias one key (gsm, gsm.decode) share it. *)
  let warm_at =
    let keys = Array.map (fun req -> lazy (Service.cache_key req)) pool in
    let seen = Hashtbl.create 64 in
    Array.map
      (fun i ->
        let key = Lazy.force keys.(i) in
        if Hashtbl.mem seen key then true
        else begin
          Hashtbl.add seen key ();
          false
        end)
      drawn
  in
  let t0 = now_ms () in
  let per_conn =
    Pf_util.Pool.map ~jobs:conns
      (fun c ->
        let lat = ref [] and warm_lat = ref [] in
        let ok = ref 0 and cached = ref 0 and degraded = ref 0 in
        let errors = ref 0 and overloaded = ref 0 in
        let i = ref c in
        while !i < requests do
          let t = now_ms () in
          (match Client.request ~policy ~socket plan.(!i) with
          | Proto.Ok_reply { cached = hit; degraded = d; _ } ->
              incr ok;
              if hit then incr cached;
              if d then incr degraded
          | Proto.Error_reply _ -> incr errors
          | Proto.Overloaded _ -> incr overloaded
          | exception Pf_util.Sim_error.Error _ -> incr errors);
          let ms = now_ms () -. t in
          lat := ms :: !lat;
          if warm_at.(!i) then warm_lat := ms :: !warm_lat;
          i := !i + conns
        done;
        (!lat, !warm_lat, !ok, !cached, !degraded, !errors, !overloaded))
      (List.init conns Fun.id)
  in
  let elapsed_s = (now_ms () -. t0) /. 1e3 in
  let lats =
    List.concat_map (fun (l, _, _, _, _, _, _) -> l) per_conn
    |> Array.of_list
  in
  let warm_lats =
    List.concat_map (fun (_, l, _, _, _, _, _) -> l) per_conn
    |> Array.of_list
  in
  Array.sort compare lats;
  Array.sort compare warm_lats;
  let sum f = List.fold_left (fun a x -> a + f x) 0 per_conn in
  let ok = sum (fun (_, _, x, _, _, _, _) -> x) in
  let cached = sum (fun (_, _, _, x, _, _, _) -> x) in
  let degraded = sum (fun (_, _, _, _, x, _, _) -> x) in
  let errors = sum (fun (_, _, _, _, _, x, _) -> x) in
  let overloaded = sum (fun (_, _, _, _, _, _, x) -> x) in
  let mean arr =
    if Array.length arr = 0 then 0.
    else Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)
  in
  let mean_ms = mean lats in
  let warm_mean_ms = mean warm_lats in
  {
    requests;
    ok;
    cached;
    degraded;
    errors;
    overloaded;
    unique_keys;
    elapsed_s;
    throughput_rps =
      (if elapsed_s > 0. then float_of_int requests /. elapsed_s else 0.);
    hit_rate = (if ok > 0 then float_of_int cached /. float_of_int ok else 0.);
    p50_ms = percentile lats 50.;
    p99_ms = percentile lats 99.;
    mean_ms;
    warm_requests = Array.length warm_lats;
    warm_p50_ms = percentile warm_lats 50.;
    warm_p99_ms = percentile warm_lats 99.;
    warm_mean_ms;
  }

let to_json (r : result) =
  Json.Obj
    [
      ("requests", Json.Int r.requests);
      ("ok", Json.Int r.ok);
      ("cached", Json.Int r.cached);
      ("degraded", Json.Int r.degraded);
      ("errors", Json.Int r.errors);
      ("overloaded", Json.Int r.overloaded);
      ("unique_keys", Json.Int r.unique_keys);
      ("elapsed_s", Json.Float r.elapsed_s);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("hit_rate", Json.Float r.hit_rate);
      ("p50_ms", Json.Float r.p50_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("mean_ms", Json.Float r.mean_ms);
      ("warm_requests", Json.Int r.warm_requests);
      ("warm_p50_ms", Json.Float r.warm_p50_ms);
      ("warm_p99_ms", Json.Float r.warm_p99_ms);
      ("warm_mean_ms", Json.Float r.warm_mean_ms);
    ]

let summary (r : result) =
  Printf.sprintf
    "loadgen: %d requests in %.2fs (%.0f req/s) ok=%d cached=%d (hit %.1f%%) \
     degraded=%d errors=%d overloaded=%d unique_keys=%d p50=%.2fms p99=%.2fms \
     warm(%d) p50=%.2fms p99=%.2fms"
    r.requests r.elapsed_s r.throughput_rps r.ok r.cached (100. *. r.hit_rate)
    r.degraded r.errors r.overloaded r.unique_keys r.p50_ms r.p99_ms
    r.warm_requests r.warm_p50_ms r.warm_p99_ms
