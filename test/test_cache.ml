(* Unit and property tests for the I-cache simulator. *)

module C = Pf_cache.Icache

let cfg ?(block = 32) ?(assoc = 2) size = C.config ~block_bytes:block ~assoc ~size_bytes:size ()

let touch t addr = ignore (C.access t ~addr ~data:0)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_geometry () =
  let c = C.config ~size_bytes:(16 * 1024) () in
  check_int "sets (sa1100-like)" 16 (C.sets c);
  check_int "tag bits" 23 (C.tag_bits c);
  let dm = cfg ~assoc:1 1024 in
  check_int "direct-mapped sets" 32 (C.sets dm)

let test_cold_misses () =
  let t = C.create (cfg 1024) in
  touch t 0;
  touch t 0;
  touch t 4;
  (* same block *)
  check_int "one compulsory miss" 1 (C.stats_misses t);
  check_int "three accesses" 3 (C.stats_accesses t);
  touch t 32;
  check_int "next block misses" 2 (C.stats_misses t)

let test_lru_eviction () =
  (* 2-way, block 32: set count = 1024/32/2 = 16; three blocks mapping to
     set 0 are 0, 16*32=512, 1024 *)
  let t = C.create (cfg 1024) in
  touch t 0;
  touch t 512;
  touch t 0;
  (* 0 is now MRU; inserting 1024 must evict 512, not 0 *)
  touch t 1024;
  let misses = C.stats_misses t in
  touch t 0;
  check_int "0 still resident" misses (C.stats_misses t);
  touch t 512;
  check_int "512 was evicted" (misses + 1) (C.stats_misses t)

let test_direct_mapped_conflict () =
  let t = C.create (cfg ~assoc:1 1024) in
  (* two addresses 1024 apart share the single way of a set *)
  touch t 0;
  touch t 1024;
  touch t 0;
  touch t 1024;
  check_int "ping-pong conflicts" 4 (C.stats_misses t)

let test_single_set () =
  (* 1024 B / 32 B blocks / 32-way: exactly one set, fully associative *)
  let c = cfg ~assoc:32 1024 in
  check_int "single set" 1 (C.sets c);
  let t = C.create c in
  for i = 0 to 31 do
    touch t (i * 32)
  done;
  check_int "fills every way" 32 (C.stats_misses t);
  touch t 0;
  check_int "whole working set resident" 32 (C.stats_misses t)

let test_tag_flips () =
  let t = C.create (cfg 1024) in
  touch t 0;
  (* addr 0 sits at set 0, MRU way 0 = slot 0 *)
  C.schedule_tag_flip t ~at_access:2 ~slot:0 ~bit:0;
  touch t 0;
  check_int "flip applied on schedule" 1 (C.flips_applied t);
  check_int "corrupted tag turns a hit into a miss" 2 (C.stats_misses t);
  touch t 0;
  check_int "refetch restores the line" 2 (C.stats_misses t);
  (* an invalid way has no stored tag to corrupt *)
  let t2 = C.create (cfg 1024) in
  C.schedule_tag_flip t2 ~at_access:1 ~slot:1 ~bit:3;
  touch t2 0;
  check_int "flip on invalid line is a no-op" 0 (C.flips_applied t2);
  check_bool "out-of-range slot rejected" true
    (try
       C.schedule_tag_flip t ~at_access:1 ~slot:(C.slots t) ~bit:0;
       false
     with Invalid_argument _ -> true)

let test_activity_counters () =
  let t = C.create (cfg 1024) in
  ignore (C.access t ~addr:0 ~data:0xFF);
  let r = C.access t ~addr:0 ~data:0x00 in
  check_int "eight output toggles" 8 r.C.toggles;
  check_int "accumulated over both accesses" 16 (C.output_toggles t);
  check_int "refill words counted" (32 / 4) (C.refill_words t);
  check_int "miss refilled words in result" 0 r.C.refilled_words

let test_miss_rate_and_reset () =
  let t = C.create (cfg 1024) in
  touch t 0;
  touch t 0;
  Alcotest.(check (float 1.0)) "per million" 500000.0
    (C.miss_rate_per_million t);
  C.reset_stats t;
  check_int "stats cleared" 0 (C.stats_accesses t);
  touch t 0;
  check_int "contents survive reset" 0 (C.stats_misses t)

let test_reset_toggle_baseline () =
  (* regression: reset_stats used to leave last_out/last_idx at their
     pre-reset values, so the first access after a reset charged Hamming
     distance against the previous stream's baseline *)
  let t = C.create (cfg 1024) in
  let r1 = C.access t ~addr:0 ~data:0xFF in
  check_int "first stream: 8 output toggles" 8 r1.C.toggles;
  C.reset_stats t;
  let r2 = C.access t ~addr:0 ~data:0xFF in
  check_int "fresh baseline after reset: 8 again, not 0" 8 r2.C.toggles;
  check_int "accumulated counter restarted" 8 (C.output_toggles t)

let test_invalid_configs () =
  (* degenerate geometries must fail at [config] with a structured
     Invalid_config naming the offending field — DSE grids hit these
     corners as ordinary inputs, and the explorer classifies the error *)
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let rejected what ~sub ~block ~assoc size =
    match C.config ~block_bytes:block ~assoc ~size_bytes:size () with
    | _ -> Alcotest.failf "%s: config %d/%dB/%dw accepted" what size block assoc
    | exception Pf_util.Sim_error.Error e ->
        Alcotest.(check bool) (what ^ ": kind Invalid_config") true
          (e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Invalid_config);
        Alcotest.(check bool)
          (Printf.sprintf "%s: detail %S names %S" what
             e.Pf_util.Sim_error.detail sub)
          true
          (contains ~sub e.Pf_util.Sim_error.detail)
  in
  rejected "non-power-of-two size" ~sub:"size_bytes=3000" ~block:32 ~assoc:2
    3000;
  rejected "non-power-of-two block" ~sub:"block_bytes=24" ~block:24 ~assoc:2
    1024;
  rejected "sub-word block" ~sub:"block_bytes=2" ~block:2 ~assoc:1 1024;
  rejected "non-power-of-two assoc" ~sub:"assoc=3" ~block:32 ~assoc:3 1024;
  rejected "zero assoc" ~sub:"assoc=0" ~block:32 ~assoc:0 1024;
  rejected "more ways than lines" ~sub:"zero sets" ~block:32 ~assoc:64 1024;
  rejected "cache smaller than a block" ~sub:"zero lines" ~block:64 ~assoc:1
    32;
  (* every offending field is listed, not just the first *)
  (match C.config ~block_bytes:24 ~assoc:3 ~size_bytes:3000 () with
  | _ -> Alcotest.fail "triply-degenerate config accepted"
  | exception Pf_util.Sim_error.Error e ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "lists %S" sub)
            true
            (contains ~sub e.Pf_util.Sim_error.detail))
        [ "size_bytes=3000"; "block_bytes=24"; "assoc=3" ]);
  (* a record literal bypasses [config]; [create] re-validates *)
  Alcotest.(check bool) "create re-validates record literals" true
    (try
       ignore
         (C.create { C.size_bytes = 1024; block_bytes = 32; assoc = 64 });
       false
     with Pf_util.Sim_error.Error _ -> true)

(* properties *)

let trace_gen = QCheck.Gen.(list_size (int_range 1 500) (int_bound 0xFFFF))

let prop_misses_bounded =
  QCheck.Test.make ~name:"misses never exceed accesses" ~count:100
    (QCheck.make trace_gen)
    (fun trace ->
      let t = C.create (cfg 1024) in
      List.iter (fun a -> touch t (a land lnot 3)) trace;
      C.stats_misses t <= C.stats_accesses t
      && C.stats_accesses t = List.length trace)

let prop_bigger_cache_fewer_misses =
  QCheck.Test.make
    ~name:"doubling the size (same assoc scaling) never adds misses"
    ~count:100 (QCheck.make trace_gen)
    (fun trace ->
      (* full-LRU inclusion: compare fully-associative caches *)
      let small =
        C.create (C.config ~block_bytes:32 ~assoc:32 ~size_bytes:1024 ())
      in
      let big =
        C.create (C.config ~block_bytes:32 ~assoc:64 ~size_bytes:2048 ())
      in
      List.iter
        (fun a ->
          let a = a land lnot 3 in
          touch small a;
          touch big a)
        trace;
      C.stats_misses big <= C.stats_misses small)

let prop_repeat_trace_all_hits =
  QCheck.Test.make
    ~name:"replaying a small working set hits after warmup" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) (int_bound 31)))
    (fun blocks ->
      let t = C.create (cfg ~assoc:32 1024) in
      (* 32 blocks capacity, working set <= 20 distinct blocks *)
      List.iter (fun b -> touch t (b * 32)) blocks;
      let warm = C.stats_misses t in
      List.iter (fun b -> touch t (b * 32)) blocks;
      C.stats_misses t = warm)

let tests =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "cold misses" `Quick test_cold_misses;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "direct-mapped conflicts" `Quick
      test_direct_mapped_conflict;
    Alcotest.test_case "single-set edge config" `Quick test_single_set;
    Alcotest.test_case "scheduled tag flips" `Quick test_tag_flips;
    Alcotest.test_case "toggle/refill counters" `Quick test_activity_counters;
    Alcotest.test_case "miss rate and reset" `Quick test_miss_rate_and_reset;
    Alcotest.test_case "reset clears toggle baselines" `Quick
      test_reset_toggle_baseline;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs;
    QCheck_alcotest.to_alcotest prop_misses_bounded;
    QCheck_alcotest.to_alcotest prop_bigger_cache_fewer_misses;
    QCheck_alcotest.to_alcotest prop_repeat_trace_all_hits;
  ]
