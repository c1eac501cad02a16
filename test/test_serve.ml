(* Serve-stack tests: CRC/atomic-write foundations, the record codec's
   corruption detection (QCheck: every single-byte flip and truncation is
   refused), store persistence and recovery, the store-fault campaign,
   protocol round trips, the degradation ladder, and an end-to-end
   in-process daemon (cached replies bit-identical to computed ones,
   recovery across restart, backpressure). *)

module SE = Pf_util.Sim_error
module AF = Pf_util.Atomic_file
module J = Pf_serve.Json
module Store = Pf_serve.Store
module Proto = Pf_serve.Proto
module Service = Pf_serve.Service
module Inflight = Pf_serve.Inflight

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* [f] gets a fresh path under the temp directory (not yet created);
   whatever [f] leaves there is removed when it returns or raises. *)
let with_tmpdir =
  let counter = ref 0 in
  fun label f ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pf-serve-test-%d-%s-%d" (Unix.getpid ()) label !counter)
    in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- crc32 ---- *)

let test_crc32 () =
  (* the standard check value *)
  check_bool "crc32 of '123456789'" true
    (Pf_util.Crc32.string "123456789" = 0xCBF43926);
  check_bool "crc32 of empty" true (Pf_util.Crc32.string "" = 0);
  (* incremental = one-shot *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let split =
    Pf_util.Crc32.update (Pf_util.Crc32.update 0 s 0 10) s 10
      (String.length s - 10)
  in
  check_bool "incremental matches one-shot" true
    (split = Pf_util.Crc32.string s)

(* ---- atomic_file ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_write () =
  with_tmpdir "atomic" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.txt" in
  AF.write ~fsync:false ~path "first";
  check_string "first write lands" "first" (read_file path);
  AF.write ~fsync:false ~path "second";
  check_string "overwrite replaces" "second" (read_file path);
  check_bool "no temp residue" true
    (Sys.readdir dir |> Array.to_list
    |> List.for_all (fun n -> not (AF.is_temp n)))

let test_atomic_crash_points () =
  with_tmpdir "crash" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.txt" in
  AF.write ~fsync:false ~path "committed";
  List.iter
    (fun point ->
      let crashed =
        match
          AF.write ~fsync:false ~crash:(fun p -> p = point) ~path "replacement"
        with
        | () -> false
        | exception AF.Crash p -> p = point
      in
      check_bool (AF.crash_point_name point ^ " raises Crash") true crashed;
      let expected =
        match point with
        | AF.Mid_write | AF.After_write | AF.Before_rename -> "committed"
        | AF.After_rename -> "replacement"
      in
      check_string
        (AF.crash_point_name point ^ " leaves whole old or whole new")
        expected (read_file path);
      (* restore the baseline for the next point *)
      AF.write ~fsync:false ~path "committed")
    AF.all_crash_points;
  (* torn temp files from the crashes are recognizable *)
  let temps =
    Sys.readdir dir |> Array.to_list |> List.filter AF.is_temp
  in
  check_bool "mid/after-write crashes left temp files" true
    (List.length temps >= 2)

(* ---- json ---- *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Int 0;
      J.Int (-123456789);
      J.Float 1.5;
      J.Float 1e-17;
      J.String "";
      J.String "with \"quotes\" and \\ and \n tab \t done";
      J.String "\x01\x1f control bytes";
      J.List [ J.Int 1; J.String "two"; J.Null ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("xs", J.List [ J.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      match J.of_string s with
      | Ok v' ->
          check_string ("roundtrip " ^ s) s (J.to_string v');
          check_bool ("value equal " ^ s) true (v = v')
      | Error msg -> Alcotest.failf "reparse of %s failed: %s" s msg)
    cases;
  (* malformed inputs error, never raise *)
  List.iter
    (fun bad -> check_bool ("rejects " ^ bad) true (Result.is_error (J.of_string bad)))
    [ "{"; "[1,"; "\"unterminated"; "01x"; "{\"a\" 1}"; "[1] trailing"; "" ]

let test_json_depth_cap () =
  let lists n = String.make n '[' ^ String.make n ']' in
  let objects n =
    String.concat "" (List.init n (fun _ -> "{\"a\":")) ^ "1" ^ String.make n '}'
  in
  List.iter
    (fun (what, nested) ->
      (match J.of_string (nested J.max_depth) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s at the cap must parse: %s" what msg);
      match J.of_string (nested (J.max_depth + 1)) with
      | Ok _ -> Alcotest.failf "%s one level past the cap must fail" what
      | Error msg ->
          check_bool (what ^ ": the error names the cap") true
            (String.starts_with
               ~prefix:(Printf.sprintf "nesting deeper than %d at byte " J.max_depth)
               msg))
    [ ("lists", lists); ("objects", objects) ];
  check_string "the offset is the opening bracket's"
    (Printf.sprintf "nesting deeper than %d at byte %d" J.max_depth J.max_depth)
    (Result.get_error (J.of_string (lists (J.max_depth + 1))));
  check_bool "1 MB of [ is an error" true
    (Result.is_error (J.of_string (String.make 1_000_000 '[')))

(* Values whose printing takes every escape and digit path: quotes,
   backslashes, control bytes, bytes >= 0x80, min_int and max_int. *)
let json_gen =
  let open QCheck.Gen in
  let byte =
    oneof
      [ char; oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\128'; '\255' ] ]
  in
  let str = string_size ~gen:byte (int_range 0 12) in
  let int_ = oneof [ int; oneofl [ min_int; max_int; 0; -1; 9; 10 ] ] in
  let float_ =
    map (fun f -> if Float.is_finite f then f else 0.5)
      (oneof [ float; map float_of_int int_ ])
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) int_;
               map (fun f -> J.Float f) float_;
               map (fun s -> J.String s) str;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> J.List xs) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map (fun kvs -> J.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n / 2)))) );
             ])

let prop_json_print_parse_print =
  QCheck.Test.make ~name:"json: print -> parse -> print is the identity"
    ~count:500
    (QCheck.make ~print:J.to_string json_gen)
    (fun v ->
      let s = J.to_string v in
      match J.of_string s with
      | Ok v' -> J.to_string v' = s
      | Error _ -> false)

let test_kir_codec_roundtrip () =
  (* every benchmark program in the registry round-trips *)
  List.iter
    (fun (b : Pf_mibench.Registry.benchmark) ->
      let p = b.Pf_mibench.Registry.program ~scale:1 in
      let j = Pf_serve.Kir_codec.to_json p in
      let p' = Pf_serve.Kir_codec.of_json j in
      check_bool (b.Pf_mibench.Registry.name ^ " roundtrips") true (p = p');
      check_string
        (b.Pf_mibench.Registry.name ^ " digest stable")
        (Pf_serve.Kir_codec.digest p)
        (Pf_serve.Kir_codec.digest p'))
    Pf_mibench.Registry.all

(* ---- record codec properties ---- *)

let record_gen =
  QCheck.Gen.(
    pair (string_size ~gen:char (int_range 1 80))
      (string_size ~gen:char (int_range 0 400)))

let prop_record_roundtrip =
  QCheck.Test.make ~name:"store record: encode/decode roundtrip" ~count:200
    (QCheck.make record_gen) (fun (key, payload) ->
      Store.decode_record (Store.encode_record ~key payload)
      = Ok (key, payload))

let prop_record_flip_detected =
  (* any single-byte corruption anywhere in the record is refused *)
  QCheck.Test.make ~name:"store record: any byte flip detected" ~count:200
    (QCheck.make
       QCheck.Gen.(triple record_gen (int_bound 10_000) (int_range 1 255)))
    (fun ((key, payload), pos, delta) ->
      let rec_ = Store.encode_record ~key payload in
      let pos = pos mod String.length rec_ in
      let b = Bytes.of_string rec_ in
      Bytes.set b pos
        (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xFF));
      Result.is_error (Store.decode_record (Bytes.to_string b)))

let prop_record_truncation_detected =
  QCheck.Test.make ~name:"store record: any truncation detected" ~count:200
    (QCheck.make QCheck.Gen.(pair record_gen (int_bound 10_000)))
    (fun ((key, payload), cut) ->
      let rec_ = Store.encode_record ~key payload in
      let keep = cut mod String.length rec_ in
      Result.is_error
        (Store.decode_record (String.sub rec_ 0 keep)))

(* ---- store ---- *)

let test_store_basic () =
  with_tmpdir "store" @@ fun dir ->
  let store, recovery = Store.open_ ~fsync:false dir in
  check_int "fresh store is empty" 0 recovery.Store.entries;
  check_bool "miss on empty" true (Store.get store ~key:"nope" = None);
  Store.put store ~key:"k1" "payload-one";
  Store.put store ~key:"k2" "payload-two";
  check_bool "get back" true (Store.get store ~key:"k1" = Some "payload-one");
  Store.put store ~key:"k1" "payload-one-v2";
  check_bool "overwrite" true
    (Store.get store ~key:"k1" = Some "payload-one-v2");
  check_int "count" 2 (Store.count store);
  Store.close store;
  (* persistence across reopen *)
  let store2, recovery2 = Store.open_ ~fsync:false dir in
  check_int "reopen sees both" 2 recovery2.Store.entries;
  check_int "reopen quarantines nothing" 0 recovery2.Store.recovered_quarantined;
  check_bool "persisted" true
    (Store.get store2 ~key:"k1" = Some "payload-one-v2");
  Store.close store2

let test_store_quarantine () =
  with_tmpdir "quarantine" @@ fun dir ->
  let store, _ = Store.open_ ~fsync:false dir in
  Store.put store ~key:"good" "good-payload";
  Store.put store ~key:"victim" "victim-payload";
  Store.close store;
  (* damage the victim in place *)
  let victim_path =
    Filename.concat (Filename.concat dir "objects")
      (Store.key_hash "victim" ^ ".rec")
  in
  let bytes = Bytes.of_string (read_file victim_path) in
  let pos = Bytes.length bytes / 2 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x10));
  let oc = open_out_bin victim_path in
  output_bytes oc bytes;
  close_out oc;
  let quarantine_lines = ref [] in
  let store2, recovery =
    Store.open_ ~fsync:false ~log:(fun l -> quarantine_lines := l :: !quarantine_lines) dir
  in
  check_int "recovery quarantined the damaged record" 1
    recovery.Store.recovered_quarantined;
  check_int "good record survives" 1 recovery.Store.entries;
  check_bool "damaged record never served" true
    (Store.get store2 ~key:"victim" = None);
  check_bool "good record still served" true
    (Store.get store2 ~key:"good" = Some "good-payload");
  check_bool "quarantine logged" true
    (List.exists
       (fun l ->
         let frag = "quarantined=1" in
         let rec find i =
           i + String.length frag <= String.length l
           && (String.sub l i (String.length frag) = frag || find (i + 1))
         in
         find 0)
       !quarantine_lines);
  check_bool "quarantine dir holds the bytes" true
    (Sys.readdir (Filename.concat dir "quarantine") |> Array.length |> ( <> ) 0);
  Store.close store2

let test_storefault_campaign () =
  with_tmpdir "campaign" @@ fun dir ->
  let r = Pf_fault.Storefault.run ~committed:4 ~flips_per_record:8 ~dir ~seed:11 () in
  check_int "every trial survives"
    r.Pf_fault.Storefault.total r.Pf_fault.Storefault.survived;
  check_int "all four crash points covered" 4 r.Pf_fault.Storefault.crash_points;
  check_bool "corruption trials ran" true (r.Pf_fault.Storefault.corruptions >= 13)

(* ---- retry ---- *)

let test_retry () =
  (* transient failures retry until success *)
  let tries = ref 0 in
  let v =
    Pf_serve.Retry.with_backoff
      ~policy:{ Pf_serve.Retry.attempts = 5; base_delay_s = 0.001; max_delay_s = 0.002 }
      ~where:"test" (fun () ->
        incr tries;
        if !tries < 3 then raise (Unix.Unix_error (Unix.EINTR, "test", ""))
        else 42)
  in
  check_int "succeeds on third try" 3 !tries;
  check_int "returns the value" 42 v;
  (* non-transient failures propagate immediately *)
  let tries = ref 0 in
  let raised =
    match
      Pf_serve.Retry.with_backoff ~where:"test" (fun () ->
          incr tries;
          failwith "permanent")
    with
    | _ -> false
    | exception Failure _ -> true
  in
  check_bool "non-transient propagates" true raised;
  check_int "no retry for non-transient" 1 !tries;
  (* exhaustion becomes a structured error *)
  let raised =
    match
      Pf_serve.Retry.with_backoff
        ~policy:{ Pf_serve.Retry.attempts = 2; base_delay_s = 0.001; max_delay_s = 0.002 }
        ~where:"test" (fun () -> raise (Unix.Unix_error (Unix.EAGAIN, "t", "")))
    with
    | _ -> None
    | exception SE.Error e -> Some e.SE.kind
  in
  check_bool "exhaustion is structured Internal" true (raised = Some SE.Internal)

(* ---- protocol round trips ---- *)

let test_proto_roundtrip () =
  let inline_program =
    (Pf_mibench.Registry.find_exn "crc32").Pf_mibench.Registry.program ~scale:1
  in
  let requests =
    [
      Proto.default_request;
      {
        Proto.default_request with
        Proto.action = Proto.Synthesize;
        program = Proto.Named "sha";
        isa = Proto.Fits;
        weighting = Pf_multi.Weighting.Uniform;
        dict_budget = Some 96;
        scale = 4;
        unroll = Some 2;
        max_steps = Some 1_000_000;
        budget_s = Some 2.5;
        no_cache = true;
      };
      {
        Proto.default_request with
        Proto.action = Proto.Explore_point;
        program = Proto.Inline inline_program;
        geometry = Pf_dse.Space.cache_8k;
      };
    ]
  in
  List.iter
    (fun r ->
      let j = Proto.request_to_json r in
      let r' = Proto.request_of_json j in
      check_bool "request roundtrips" true (r = r');
      (* and through actual bytes *)
      match J.of_string (J.to_string j) with
      | Ok j' -> check_bool "request json bytes roundtrip" true (Proto.request_of_json j' = r)
      | Error m -> Alcotest.fail m)
    requests;
  let responses =
    [
      Proto.Ok_reply
        { result = J.Obj [ ("x", J.Int 1) ]; cached = true; degraded = false };
      Proto.Error_reply
        {
          SE.kind = SE.Watchdog_timeout;
          where = "serve.test";
          detail = "budget";
          backtrace = None;
        };
      Proto.Overloaded { depth = 3; capacity = 2 };
    ]
  in
  List.iter
    (fun r ->
      check_bool "response roundtrips" true
        (Proto.response_of_json (Proto.response_to_json r) = r))
    responses

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      Proto.write_frame a "hello frame";
      Proto.write_frame a "";
      check_bool "first frame" true (Proto.read_frame b = Some "hello frame");
      check_bool "empty frame" true (Proto.read_frame b = Some ""))

(* ---- service semantics ---- *)

let test_cache_keys () =
  let named =
    { Proto.default_request with Proto.program = Proto.Named "crc32" }
  in
  let inline_same =
    {
      Proto.default_request with
      Proto.program =
        Proto.Inline
          ((Pf_mibench.Registry.find_exn "crc32").Pf_mibench.Registry.program
             ~scale:1);
      (* the registry compiles crc32 with its own unroll; the inline
         spelling must pin it to share the key *)
      unroll = Some (Pf_mibench.Registry.find_exn "crc32").Pf_mibench.Registry.unroll;
    }
  in
  check_string "name and identical inline program share a key"
    (Service.cache_key named)
    (Service.cache_key inline_same);
  let other_geom =
    { named with Proto.geometry = Pf_dse.Space.cache_8k }
  in
  check_bool "evaluate key depends on geometry" true
    (Service.cache_key named <> Service.cache_key other_geom);
  let synth g =
    Service.cache_key
      { named with Proto.action = Proto.Synthesize; geometry = g }
  in
  check_string "synthesize key ignores geometry"
    (synth Pf_dse.Space.cache_16k) (synth Pf_dse.Space.cache_8k);
  check_bool "isa changes the evaluate key" true
    (Service.cache_key named
    <> Service.cache_key { named with Proto.isa = Proto.Fits });
  let point w =
    Service.cache_key
      { named with Proto.action = Proto.Explore_point; weighting = w }
  in
  check_string "explore-point key ignores weighting"
    (point Pf_multi.Weighting.Dyn_count)
    (point Pf_multi.Weighting.Uniform);
  check_bool "status has no key" true
    (Result.is_error
       (SE.protect ~where:"t" (fun () ->
            Service.cache_key { named with Proto.action = Proto.Status })));
  (* a named key reads its program digest from a per-benchmark memo; pin
     it against an independent rebuild.  Per benchmark: scale 1, then
     scale 2, then scale 1 again, so a digest left over from the other
     scale shows as a mismatch. *)
  let module R = Pf_mibench.Registry in
  let cases =
    List.concat_map
      (fun (b : R.benchmark) -> List.map (fun s -> (b, s)) [ 1; 2; 1 ])
      R.all
  in
  let named_key ((b : R.benchmark), scale) =
    Service.cache_key
      { Proto.default_request with Proto.program = Proto.Named b.R.name; scale }
  in
  let keys = List.map named_key cases in
  List.iter2
    (fun ((b : R.benchmark), scale) key ->
      check_string
        (Printf.sprintf "%s at scale %d keys like its inline program" b.R.name
           scale)
        (Service.cache_key
           {
             Proto.default_request with
             Proto.program = Proto.Inline (b.R.program ~scale);
             scale;
             unroll = Some b.R.unroll;
           })
        key)
    cases keys;
  check_string "gsm alias keys like gsm.decode"
    (Service.cache_key
       { Proto.default_request with Proto.program = Proto.Named "gsm.decode" })
    (Service.cache_key
       { Proto.default_request with Proto.program = Proto.Named "gsm" });
  check_bool "keys from 2 domains at once match the sequential ones" true
    (Pf_util.Pool.map ~jobs:2 named_key cases = keys)

(* The store addresses results by these bytes: a printer or key change
   that moves them orphans every persisted entry.  The literal is the
   MD5 of the keys over every registry benchmark's corpus requests plus
   one generated program's, computed before the per-token printer. *)
let test_cache_key_bytes_pinned () =
  let model = Pf_workgen.Calibrate.reference () in
  let keys =
    List.map Service.cache_key
      (Pf_serve.Loadgen.corpus ~benchmarks:Pf_mibench.Registry.names ()
      @ Pf_serve.Loadgen.corpus
          ~inline:[ Pf_workgen.Generate.program ~model ~seed:7 ~index:0 ]
          ~benchmarks:[] ())
  in
  check_int "keys" 154 (List.length keys);
  check_string "md5 of every key" "895c00b606df7fec6c9eddf314ae1270"
    (Digest.to_hex (Digest.string (String.concat "\000" keys)))

let test_compute_matches_direct () =
  (* the service's arm evaluate must report exactly what a direct run
     reports *)
  let req =
    { Proto.default_request with Proto.program = Proto.Named "bitcount" }
  in
  match Service.compute req with
  | Error e -> Alcotest.fail (SE.to_string e)
  | Ok (result, degraded) ->
      check_bool "not degraded" false degraded;
      let b = Pf_mibench.Registry.find_exn "bitcount" in
      let image =
        Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
          (b.Pf_mibench.Registry.program ~scale:1)
      in
      let direct = Pf_cpu.Arm_run.run ~cache_cfg:Pf_dse.Space.cache_16k image in
      let got name =
        match Option.bind (J.member name result) J.to_int_opt with
        | Some v -> v
        | None -> Alcotest.failf "missing %s" name
      in
      check_int "instructions" direct.Pf_cpu.Arm_run.instructions
        (got "instructions");
      check_int "cycles" direct.Pf_cpu.Arm_run.cycles (got "cycles");
      check_int "cache_misses" direct.Pf_cpu.Arm_run.cache_misses
        (got "cache_misses");
      check_bool "output digested" true
        (Option.bind (J.member "output_md5" result) J.to_string_opt
        = Some (Digest.to_hex (Digest.string direct.Pf_cpu.Arm_run.output)))

let test_handle_cached_bit_identical () =
  with_tmpdir "svc-store" @@ fun dir ->
  let store, _ = Store.open_ ~fsync:false dir in
  let req =
    { Proto.default_request with Proto.program = Proto.Named "crc32" }
  in
  let first = Service.handle ~store (Service.keyed req) in
  let second = Service.handle ~store (Service.keyed req) in
  (match (first, second) with
  | ( Proto.Ok_reply { result = r1; cached = c1; _ },
      Proto.Ok_reply { result = r2; cached = c2; _ } ) ->
      check_bool "first is computed" false c1;
      check_bool "second is cached" true c2;
      check_string "cached reply bit-identical to computed"
        (J.to_string r1) (J.to_string r2)
  | _ -> Alcotest.fail "expected two ok replies");
  (* no_cache bypasses but computes the same bytes *)
  (match
     Service.handle ~store (Service.keyed { req with Proto.no_cache = true })
   with
  | Proto.Ok_reply { cached; result; _ } ->
      check_bool "no_cache recomputes" false cached;
      (match first with
      | Proto.Ok_reply { result = r1; _ } ->
          check_string "recompute deterministic" (J.to_string r1)
            (J.to_string result)
      | _ -> ())
  | _ -> Alcotest.fail "expected ok");
  Store.close store

let test_degraded_half_scale () =
  (* pick a step budget that scale 1 fits but scale 4 does not: the
     ladder must degrade 4 -> 2 -> 1 and succeed with the flag set *)
  let b = Pf_mibench.Registry.find_exn "crc32" in
  let image s =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
      (b.Pf_mibench.Registry.program ~scale:s)
  in
  let steps s = (Pf_cpu.Arm_run.run (image s)).Pf_cpu.Arm_run.instructions in
  let s1 = steps 1 and s4 = steps 4 in
  check_bool "scale grows the workload" true (s4 > s1 + 2);
  let budget = s1 + ((s4 - s1) / 8) in
  let req =
    {
      Proto.default_request with
      Proto.program = Proto.Named "crc32";
      scale = 4;
      max_steps = Some budget;
    }
  in
  (match Service.compute req with
  | Ok (_, degraded) -> check_bool "degraded flag set" true degraded
  | Error e -> Alcotest.failf "expected degradation, got %s" (SE.to_string e));
  (* inline programs cannot degrade: the timeout surfaces *)
  let inline_req =
    {
      req with
      Proto.program = Proto.Inline (b.Pf_mibench.Registry.program ~scale:4);
      unroll = Some b.Pf_mibench.Registry.unroll;
    }
  in
  match Service.compute inline_req with
  | Error { SE.kind = SE.Watchdog_timeout; _ } -> ()
  | Ok _ -> Alcotest.fail "inline request should not degrade"
  | Error e -> Alcotest.failf "wrong error %s" (SE.to_string e)

let test_envelope_roundtrip () =
  let result = J.Obj [ ("cycles", J.Int 123); ("ipc", J.Float 0.75) ] in
  let r, d = Service.of_envelope (Service.envelope ~degraded:true result) in
  check_bool "degraded preserved" true d;
  check_string "result preserved" (J.to_string result) (J.to_string r)

(* ---- in-flight coalescing ---- *)

let test_inflight_coalescing () =
  (* deterministic interleaving via a gate the leader blocks on: the
     leader is provably inside its computation when the follower
     arrives, and the follower is provably blocked before the gate
     opens — no sleeps standing in for synchronization *)
  let t : string Inflight.t = Inflight.create () in
  let gate_m = Mutex.create () and gate_c = Condition.create () in
  let entered = ref false and release = ref false in
  let await cond =
    Mutex.lock gate_m;
    while not (cond ()) do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m
  in
  let signal flag =
    Mutex.lock gate_m;
    flag := true;
    Condition.broadcast gate_c;
    Mutex.unlock gate_m
  in
  let leader =
    Domain.spawn (fun () ->
        Inflight.run t ~key:"k" (fun () ->
            signal entered;
            await (fun () -> !release);
            "leader-result"))
  in
  await (fun () -> !entered);
  (* the leader is inside its computation; a same-key arrival must join *)
  let follower_ran = Atomic.make false in
  let follower =
    Domain.spawn (fun () ->
        Inflight.run t ~key:"k" (fun () ->
            Atomic.set follower_ran true;
            "follower-result"))
  in
  (* wait until the follower is provably blocked on the leader *)
  let deadline = Unix.gettimeofday () +. 10. in
  while Inflight.waiting t < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  check_int "one follower blocked" 1 (Inflight.waiting t);
  (* an unrelated key is not serialized behind it *)
  (match Inflight.run t ~key:"other" (fun () -> "o") with
  | Inflight.Led v -> check_string "other key leads" "o" v
  | Inflight.Joined _ -> Alcotest.fail "unrelated key must not join");
  signal release;
  let lr = Domain.join leader and fr = Domain.join follower in
  (match lr with
  | Inflight.Led v -> check_string "leader computed" "leader-result" v
  | Inflight.Joined _ -> Alcotest.fail "leader must lead");
  (match fr with
  | Inflight.Joined v ->
      check_string "follower shares the leader's result" "leader-result" v
  | Inflight.Led _ -> Alcotest.fail "follower must join, not recompute");
  check_bool "follower's closure never ran" false (Atomic.get follower_ran);
  check_int "one computation avoided" 1 (Inflight.coalesced t);
  check_int "table drained" 0 (Inflight.pending t);
  check_int "no waiters left" 0 (Inflight.waiting t);
  (* after publication the key is gone: a late arrival leads afresh *)
  match Inflight.run t ~key:"k" (fun () -> "fresh") with
  | Inflight.Led v -> check_string "late arrival leads" "fresh" v
  | Inflight.Joined _ -> Alcotest.fail "late arrival must not join"

let test_handle_with_inflight () =
  (* sequential requests through the coalescing path behave exactly as
     without it: compute then cache hit, nothing coalesced *)
  with_tmpdir "svc-inflight" @@ fun dir ->
  let store, _ = Store.open_ ~fsync:false dir in
  let inflight : Proto.response Inflight.t = Inflight.create () in
  let req =
    { Proto.default_request with Proto.program = Proto.Named "crc32" }
  in
  let first = Service.handle ~store ~inflight (Service.keyed req) in
  let second = Service.handle ~store ~inflight (Service.keyed req) in
  (match (first, second) with
  | ( Proto.Ok_reply { result = r1; cached = c1; _ },
      Proto.Ok_reply { result = r2; cached = c2; _ } ) ->
      check_bool "first computed" false c1;
      check_bool "second cached" true c2;
      check_string "same bytes" (J.to_string r1) (J.to_string r2)
  | _ -> Alcotest.fail "expected two ok replies");
  check_int "sequential requests never coalesce" 0 (Inflight.coalesced inflight);
  check_int "nothing left in flight" 0 (Inflight.pending inflight);
  Store.close store

(* ---- daemon end to end ---- *)

let with_daemon ?(jobs = 2) ?(queue_capacity = 64) ?store_dir f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pf-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let cfg =
    {
      Pf_serve.Daemon.default_config with
      Pf_serve.Daemon.socket_path = sock;
      store_dir;
      jobs;
      queue_capacity;
      fsync = false;
    }
  in
  let logs = ref [] in
  let logm = Mutex.create () in
  let log l =
    Mutex.lock logm;
    logs := l :: !logs;
    Mutex.unlock logm
  in
  let d = Domain.spawn (fun () -> Pf_serve.Daemon.run ~log cfg) in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Pf_serve.Client.shutdown ~socket:sock ()) with _ -> ());
      Fun.protect ~finally:(fun () -> rm_rf sock) (fun () -> Domain.join d))
    (fun () -> f sock)

let test_daemon_end_to_end () =
  with_tmpdir "daemon-store" @@ fun store_dir ->
  let req =
    { Proto.default_request with Proto.program = Proto.Named "bitcount" }
  in
  let first =
    with_daemon ~store_dir (fun sock ->
        let first = Pf_serve.Client.request ~socket:sock req in
        let second = Pf_serve.Client.request ~socket:sock req in
        (match (first, second) with
        | ( Proto.Ok_reply { result = r1; cached = false; _ },
            Proto.Ok_reply { result = r2; cached = true; _ } ) ->
            check_string "daemon cached reply bit-identical"
              (J.to_string r1) (J.to_string r2)
        | _ -> Alcotest.fail "expected computed then cached");
        (* status sees the traffic *)
        (match Pf_serve.Client.status ~socket:sock () with
        | Proto.Ok_reply { result; _ } ->
            check_bool "status counts a hit" true
              (Option.bind (J.member "cache_hits" result) J.to_int_opt
              = Some 1)
        | _ -> Alcotest.fail "status failed");
        first)
  in
  (* restart on the same store: the entry survives the daemon *)
  with_daemon ~store_dir (fun sock ->
      match (Pf_serve.Client.request ~socket:sock req, first) with
      | ( Proto.Ok_reply { result = r2; cached = true; _ },
          Proto.Ok_reply { result = r1; _ } ) ->
          check_string "cache survives daemon restart" (J.to_string r1)
            (J.to_string r2)
      | _ -> Alcotest.fail "expected a cached reply after restart")

(* A raw connection, retried while the daemon binds its socket. *)
let connect_raw sock =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 500

(* One exchange of raw frame bytes, for frames no client would build:
   the reply's payload bytes. *)
let raw_reply sock frame =
  let fd = connect_raw sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Proto.write_frame fd frame;
      match Proto.read_frame fd with
      | Some bytes -> bytes
      | None -> Alcotest.fail "no reply")

let status_of sock =
  match Pf_serve.Client.status ~socket:sock () with
  | Proto.Ok_reply { result; _ } -> result
  | _ -> Alcotest.fail "status failed"

(* a counter of a status result, or of its [memo] object *)
let counter ?(memo = false) result name =
  let obj = if memo then J.member "memo" result else Some result in
  match Option.bind (Option.bind obj (J.member name)) J.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "status lacks %s" name

let response_of bytes =
  match J.of_string bytes with
  | Ok j -> Proto.response_of_json j
  | Error msg -> Alcotest.fail msg

let test_daemon_error_isolation () =
  with_daemon (fun sock ->
      (* unknown benchmark: structured error reply, daemon stays up *)
      (match
         Pf_serve.Client.request ~socket:sock
           { Proto.default_request with Proto.program = Proto.Named "nope" }
       with
      | Proto.Error_reply e ->
          check_bool "invalid-config kind" true (e.SE.kind = SE.Invalid_config)
      | _ -> Alcotest.fail "expected error reply");
      (* tiny budget: watchdog error reply *)
      (match
         Pf_serve.Client.request ~socket:sock
           { Proto.default_request with Proto.budget_s = Some 1e-9 }
       with
      | Proto.Error_reply e ->
          check_bool "watchdog kind" true (e.SE.kind = SE.Watchdog_timeout)
      | _ -> Alcotest.fail "expected watchdog reply");
      (* 1 MB of [ nests far past the parser's cap *)
      (match response_of (raw_reply sock (String.make 1_000_000 '[')) with
      | Proto.Error_reply e ->
          check_bool "deep frame: invalid-config" true
            (e.SE.kind = SE.Invalid_config)
      | _ -> Alcotest.fail "expected an error reply to a deep frame");
      (match Pf_serve.Client.status ~socket:sock () with
      | Proto.Ok_reply _ -> ()
      | _ -> Alcotest.fail "status must answer after a deep frame");
      (* and the daemon still answers *)
      match Pf_serve.Client.request ~socket:sock Proto.default_request with
      | Proto.Ok_reply _ -> ()
      | _ -> Alcotest.fail "daemon should survive bad requests")

let test_daemon_ill_formed_inline () =
  (* crc32 shipped inline without its globals fails KIR validation: the
     client must get a structured invalid-config reply (its request is
     wrong), not an internal error, and the daemon keeps serving *)
  let crc32 =
    (Pf_mibench.Registry.find_exn "crc32").Pf_mibench.Registry.program ~scale:1
  in
  let broken = { crc32 with Pf_kir.Ast.globals = [] } in
  with_daemon (fun sock ->
      (match
         Pf_serve.Client.request ~socket:sock
           { Proto.default_request with Proto.program = Proto.Inline broken }
       with
      | Proto.Error_reply e ->
          check_bool "invalid-config kind" true (e.SE.kind = SE.Invalid_config)
      | _ -> Alcotest.fail "expected an error reply");
      match Pf_serve.Client.request ~socket:sock Proto.default_request with
      | Proto.Ok_reply _ -> ()
      | _ -> Alcotest.fail "daemon should survive an ill-formed program")

(* ---- decode memo ---- *)

module Memo = Pf_serve.Daemon.Memo

let frame_of req = J.to_string (Proto.request_to_json req)

(* today's decode, without the memo *)
let direct frame =
  match J.of_string frame with
  | Ok j ->
      let req = Proto.request_of_json j in
      (req, Service.cache_key req)
  | Error msg -> Alcotest.fail msg

let decoded m frame =
  match Memo.decode m frame with
  | Ok (Memo.Request (k, _)) -> k
  | Ok (Memo.Reply _) -> Alcotest.fail "a frame answered from memory"
  | Error e -> Alcotest.fail (SE.to_string e)

let generated seed =
  Pf_workgen.Generate.program ~model:(Pf_workgen.Calibrate.reference ()) ~seed
    ~index:0

let test_memo_transparent () =
  let p = generated 3 in
  let corpus =
    Pf_serve.Loadgen.corpus ~inline:[ p ]
      ~benchmarks:Pf_serve.Loadgen.default_benchmarks ()
  in
  let m = Memo.create () in
  List.iter
    (fun req ->
      let frame = frame_of req in
      let want_req, want_key = direct frame in
      List.iter
        (fun pass ->
          let k = decoded m frame in
          check_bool (pass ^ ": the request a direct decode gives") true
            (Service.request k = want_req);
          check_string (pass ^ ": the key a direct decode gives") want_key
            (Service.key k))
        [ "miss"; "hit" ])
    corpus;
  let n = List.length corpus in
  let st = Memo.stats m in
  check_int "one miss per frame" n st.Memo.misses;
  check_int "one hit per frame" n st.Memo.hits;
  check_int "one entry per frame" n st.Memo.entries;
  (* The isa follows the program in the frame, so two evaluates of one
     inline program differ only past their first 4096 bytes. *)
  let evaluate isa =
    frame_of
      { Proto.default_request with Proto.program = Proto.Inline p; isa }
  in
  let arm = evaluate Proto.Arm and fits = evaluate Proto.Fits in
  check_bool "the frames share their first 4096 bytes" true
    (String.length arm > 4096
    && String.sub arm 0 4096 = String.sub fits 0 4096);
  let arm_key = Service.key (decoded m arm) in
  let fits_key = Service.key (decoded m fits) in
  check_bool "ARM and FITS evaluates keep distinct keys" true
    (arm_key <> fits_key);
  check_string "ARM key" (snd (direct arm)) arm_key;
  check_string "FITS key" (snd (direct fits)) fits_key

let test_memo_never_stores () =
  let m = Memo.create () in
  let bad = "{\"action\": \"evaluate\", " in
  let first = Memo.decode m bad and second = Memo.decode m bad in
  check_bool "a malformed frame errs twice alike" true
    (Result.is_error first && first = second);
  let status = frame_of { Proto.default_request with Proto.action = Proto.Status } in
  ignore (decoded m status);
  ignore (decoded m status);
  check_int "neither is stored" 0 (Memo.stats m).Memo.entries;
  check_int "neither counts as a compute frame" 0
    ((Memo.stats m).Memo.misses + (Memo.stats m).Memo.hits);
  (* a request whose key raises is parsed afresh on every arrival *)
  let nope = frame_of { Proto.default_request with Proto.program = Proto.Named "nope" } in
  let k1 = decoded m nope in
  check_bool "its key raises" true
    (Result.is_error (SE.protect ~where:"t" (fun () -> Service.key k1)));
  let k2 = decoded m nope in
  check_bool "the next arrival is parsed afresh" true (k1 != k2);
  check_int "no hit" 0 (Memo.stats m).Memo.hits

let test_memo_budget () =
  let m = Memo.create () in
  let json = frame_of Proto.default_request in
  (* leading whitespace makes distinct frames of one request *)
  let padded n = String.make (n - String.length json) ' ' ^ json in
  let quarter = Memo.budget / 4 in
  let bytes_ok () =
    check_bool "bytes within the budget" true
      ((Memo.stats m).Memo.bytes <= Memo.budget)
  in
  List.iter
    (fun i ->
      ignore (decoded m (padded (quarter + i)));
      bytes_ok ())
    [ 0; 1; 2 ];
  check_int "three entries" 3 (Memo.stats m).Memo.entries;
  ignore (decoded m (padded (quarter + 3)));
  bytes_ok ();
  let st = Memo.stats m in
  check_int "the fourth insert cleared the table" 1 st.Memo.entries;
  check_int "and counts only itself" (quarter + 3) st.Memo.bytes;
  ignore (decoded m (padded quarter));
  check_int "a cleared frame misses again" 5 (Memo.stats m).Memo.misses;
  let huge = padded (Memo.budget + 1) in
  ignore (decoded m huge);
  ignore (decoded m huge);
  check_int "a frame past the budget is never stored" 2
    (Memo.stats m).Memo.entries;
  check_int "and misses every time" 7 (Memo.stats m).Memo.misses;
  bytes_ok ()

(* Fuzzed frames: random bytes, and truncations and single-byte flips of
   valid named and inline request frames, so that mutated programs reach
   [Kir_codec].  Every one must decode to a request or to an [Error]
   carrying a structured error, never raise, and take at most
   [fuzz_bound_s]. *)
let fuzz_bound_s = 0.5

type fuzzed = Bytes_of of string | Cut of int * int | Flip of int * int * int

let test_memo_fuzz () =
  let requests =
    Pf_serve.Loadgen.corpus ~inline:[ generated 21; generated 22 ]
      ~benchmarks:[ "crc32"; "sha" ] ()
    @ List.map
        (fun action -> { Proto.default_request with Proto.action })
        [ Proto.Status; Proto.Shutdown ]
  in
  let frames = Array.of_list (List.map frame_of requests) in
  let input = function
    | Bytes_of s -> s
    | Cut (i, n) -> String.sub frames.(i) 0 (n mod String.length frames.(i))
    | Flip (i, pos, byte) ->
        let b = Bytes.of_string frames.(i) in
        let pos = pos mod Bytes.length b in
        let c = Char.code (Bytes.get b pos) in
        Bytes.set b pos (Char.chr (if byte = c then c lxor 1 else byte));
        Bytes.to_string b
  in
  let gen =
    QCheck.Gen.(
      let frame = int_bound (Array.length frames - 1) in
      frequency
        [
          (1, map (fun s -> Bytes_of s) (string_size (int_bound 4096)));
          (1, map2 (fun i n -> Cut (i, n)) frame nat);
          ( 4,
            map3 (fun i pos byte -> Flip (i, pos, byte)) frame nat
              (int_bound 255) );
        ])
  in
  let print f =
    let s = input f in
    Printf.sprintf "%d bytes: %S" (String.length s)
      (String.sub s 0 (min 200 (String.length s)))
  in
  let m = Memo.create () in
  let decoded = ref 0 and codec = ref 0 in
  let prop =
    QCheck.Test.make ~name:"memo: fuzzed frames" ~count:2000
      (QCheck.make ~print gen) (fun f ->
        let frame = input f in
        let t0 = Unix.gettimeofday () in
        let r =
          try Memo.decode m frame
          with e ->
            QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match r with
        | Ok _ -> incr decoded
        | Error e -> if e.SE.where = "serve.kir_codec" then incr codec);
        if dt > fuzz_bound_s then
          QCheck.Test.fail_reportf "decode took %.3f s" dt;
        true)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 27 |]) prop;
  check_bool "mutated frames reached the KIR codec" true (!codec > 0);
  check_bool "some mutated frames still decode" true (!decoded > 0)

let test_daemon_memo_hit () =
  with_tmpdir "memo-store" @@ fun store_dir ->
  let req =
    { Proto.default_request with Proto.program = Proto.Inline (generated 5) }
  in
  with_daemon ~store_dir (fun sock ->
      (match
         ( Pf_serve.Client.request ~socket:sock req,
           Pf_serve.Client.request ~socket:sock req )
       with
      | ( Proto.Ok_reply { result = r1; cached = false; _ },
          Proto.Ok_reply { result = r2; cached = true; _ } ) ->
          check_string "memo hit reply bit-identical" (J.to_string r1)
            (J.to_string r2)
      | _ -> Alcotest.fail "expected computed then cached");
      let st = status_of sock in
      check_int "one miss" 1 (counter ~memo:true st "misses");
      check_int "one hit" 1 (counter ~memo:true st "hits"))

(* ---- reply memo ---- *)

let test_daemon_reply_memo () =
  with_tmpdir "reply-store" @@ fun store_dir ->
  let frames =
    List.map frame_of
      (Pf_serve.Loadgen.corpus
         ~inline:(List.map generated [ 11; 12; 13 ])
         ~benchmarks:Pf_mibench.Registry.names ())
  in
  let n = List.length frames in
  with_daemon ~store_dir (fun sock ->
      (* each pass ends before the next begins: the first computes every
         key, the second hits the store, the third hits the slots *)
      let pass () = Pf_util.Pool.map ~jobs:2 (raw_reply sock) frames in
      let first = pass () in
      let second = pass () in
      let third = pass () in
      List.iteri
        (fun i ((r1, r2), r3) ->
          (* the bytes a store hit of the computed reply gives *)
          let want =
            match response_of r1 with
            | Proto.Ok_reply { result; cached = false; degraded } ->
                J.to_string
                  (Proto.response_to_json
                     (Proto.Ok_reply { result; cached = true; degraded }))
            | _ -> Alcotest.failf "request %d: expected a computed reply" i
          in
          check_string (Printf.sprintf "request %d: a store hit" i) want r2;
          check_string
            (Printf.sprintf "request %d: the third reply is the second" i)
            r2 r3)
        (List.combine (List.combine first second) third);
      let st = status_of sock in
      List.iter
        (fun (name, want) -> check_int name want (counter st name))
        [
          ("served", 3 * n);
          ("cache_hits", 2 * n);
          ("computed", n);
          ("errors", 0);
          ("degraded", 0);
        ];
      check_int "memo replies: the third arrivals" n
        (counter ~memo:true st "replies");
      check_int "memo hits" (2 * n) (counter ~memo:true st "hits");
      check_int "memo misses" n (counter ~memo:true st "misses"))

let test_daemon_no_cache_never_from_memory () =
  with_tmpdir "no-cache-store" @@ fun store_dir ->
  let frame = frame_of { Proto.default_request with Proto.no_cache = true } in
  with_daemon ~store_dir (fun sock ->
      for i = 1 to 3 do
        match response_of (raw_reply sock frame) with
        | Proto.Ok_reply { cached = false; _ } -> ()
        | _ -> Alcotest.failf "arrival %d: expected a computed reply" i
      done;
      let st = status_of sock in
      check_int "computed three times" 3 (counter st "computed");
      check_int "no replies from memory" 0 (counter ~memo:true st "replies"))

let test_daemon_errors_never_from_memory () =
  with_tmpdir "error-store" @@ fun store_dir ->
  let frames =
    [
      (* a watchdog error on a worker *)
      frame_of { Proto.default_request with Proto.budget_s = Some 1e-9 };
      (* an unkeyable request *)
      frame_of
        { Proto.default_request with Proto.program = Proto.Named "nope" };
      (* a frame that does not parse *)
      "{\"action\": \"evaluate\", ";
    ]
  in
  with_daemon ~store_dir (fun sock ->
      List.iter
        (fun frame ->
          for i = 1 to 3 do
            match response_of (raw_reply sock frame) with
            | Proto.Error_reply _ -> ()
            | _ -> Alcotest.failf "arrival %d: expected an error reply" i
          done)
        frames;
      let st = status_of sock in
      check_int "every arrival an error" 9 (counter st "errors");
      check_int "no replies from memory" 0 (counter ~memo:true st "replies"))

(* A worker's reply to a request taken from [m]. *)
let answer m frame ~cached ~bytes =
  match Memo.decode m frame with
  | Ok (Memo.Request (_, slot)) ->
      ignore
        (Memo.reply slot
           (Proto.Ok_reply
              {
                result = J.String (String.make bytes 'x');
                cached;
                degraded = false;
              }))
  | _ -> Alcotest.fail "expected a request"

let from_memory m frame =
  match Memo.decode m frame with
  | Ok (Memo.Reply r) -> Some r.Memo.framed
  | Ok (Memo.Request _) -> None
  | Error e -> Alcotest.fail (SE.to_string e)

let test_memo_reply_budget () =
  let m = Memo.create () in
  let frame i = frame_of { Proto.default_request with Proto.scale = i } in
  let quarter = Memo.budget / 4 in
  (* a computed reply never fills the slot *)
  answer m (frame 1) ~cached:false ~bytes:100;
  check_bool "computed: not from memory" true (from_memory m (frame 1) = None);
  (* a store hit does, and is counted from its first answer *)
  answer m (frame 2) ~cached:true ~bytes:quarter;
  let frames_held = (Memo.stats m).Memo.bytes in
  let r = Option.get (from_memory m (frame 2)) in
  check_int "the reply's bytes count" (frames_held + String.length r)
    (Memo.stats m).Memo.bytes;
  ignore (from_memory m (frame 2));
  check_int "once" (frames_held + String.length r) (Memo.stats m).Memo.bytes;
  check_int "two replies" 2 (Memo.stats m).Memo.replies;
  (* a slot filled after its entry was cleared is never read *)
  let stale =
    match Memo.decode m (frame 3) with
    | Ok (Memo.Request (_, slot)) -> slot
    | _ -> Alcotest.fail "expected a request"
  in
  answer m (frame 4) ~cached:true ~bytes:(3 * quarter);
  check_bool "frame 4 answered although its reply clears the table" true
    (from_memory m (frame 4) <> None);
  let st = Memo.stats m in
  check_int "the clear dropped every entry" 0 st.Memo.entries;
  check_int "and every byte" 0 st.Memo.bytes;
  ignore
    (Memo.reply stale
       (Proto.Ok_reply { result = J.Null; cached = true; degraded = false }));
  check_bool "a stale slot is never read" true (from_memory m (frame 3) = None);
  check_bool "a dropped reply is not read" true
    (from_memory m (frame 2) = None);
  check_bool "bytes within the budget" true
    ((Memo.stats m).Memo.bytes <= Memo.budget)

(* ---- clients that stall or hang up ---- *)

(* A reply to a client that hung up raises SIGPIPE, which an embedding
   process must ignore. *)
let ignoring_sigpipe f =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous) f

let test_daemon_stalled_client () =
  let deadline = Pf_serve.Daemon.frame_deadline_s in
  ignoring_sigpipe @@ fun () ->
  with_daemon (fun sock ->
      let staller = connect_raw sock in
      Fun.protect
        ~finally:(fun () -> Unix.close staller)
        (fun () ->
          (* two bytes of a four-byte header, then nothing *)
          ignore (Unix.write_substring staller "\000\000" 0 2);
          let t0 = Unix.gettimeofday () in
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (* bounded, so a daemon that never answers fails the test
             instead of hanging it *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO (deadline +. 1.);
          let status =
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX sock);
                Proto.write_frame fd
                  (frame_of
                     {
                       Proto.default_request with
                       Proto.action = Proto.Status;
                     });
                try Proto.read_frame fd with Unix.Unix_error _ -> None)
          in
          let waited = Unix.gettimeofday () -. t0 in
          (match Option.map response_of status with
          | Some (Proto.Ok_reply { result; _ }) ->
              check_int "status counts the timeout" 1
                (counter result "timeouts")
          | _ -> Alcotest.fail "status got no reply within the deadline");
          check_bool "answered within the deadline + 1 s" true
            (waited <= deadline +. 1.);
          Unix.setsockopt_float staller Unix.SO_RCVTIMEO (deadline +. 1.);
          match
            Option.map response_of
              (try Proto.read_frame staller with Unix.Unix_error _ -> None)
          with
          | Some (Proto.Error_reply e) ->
              check_bool "the staller reads a watchdog timeout" true
                (e.SE.kind = SE.Watchdog_timeout)
          | _ -> Alcotest.fail "the staller got no timeout reply"))

let test_daemon_client_gone () =
  ignoring_sigpipe @@ fun () ->
  with_daemon (fun sock ->
      let fd = connect_raw sock in
      Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
      Proto.write_frame fd
        (frame_of { Proto.default_request with Proto.action = Proto.Status });
      Unix.close fd;
      let st = status_of sock in
      check_int "one client gone" 1 (counter st "client_gone");
      check_int "its reply still counts as served" 1 (counter st "served"))

let test_daemon_counts_only_computes () =
  (* status replies are served but never computed *)
  with_daemon (fun sock ->
      for _ = 1 to 3 do
        ignore (Pf_serve.Client.status ~socket:sock ())
      done;
      (match Pf_serve.Client.request ~socket:sock Proto.default_request with
      | Proto.Ok_reply { cached = false; _ } -> ()
      | _ -> Alcotest.fail "expected a computed reply");
      let st = status_of sock in
      check_int "computed counts the one compute" 1 (counter st "computed");
      check_int "served counts every reply before this one" 4
        (counter st "served"))

let test_daemon_backpressure () =
  (* one worker, queue of one, six slow requests at once: at least one
     must be refused with a structured overloaded reply, none may error *)
  with_daemon ~jobs:1 ~queue_capacity:1 (fun sock ->
      let req =
        {
          Proto.default_request with
          Proto.action = Proto.Explore_point;
          program = Proto.Named "sha";
          no_cache = true;
        }
      in
      let replies =
        Pf_util.Pool.map ~jobs:6
          (fun _ -> Pf_serve.Client.request ~socket:sock req)
          (List.init 6 Fun.id)
      in
      let ok =
        List.length
          (List.filter (function Proto.Ok_reply _ -> true | _ -> false) replies)
      in
      let overloaded =
        List.length
          (List.filter
             (function Proto.Overloaded _ -> true | _ -> false)
             replies)
      in
      check_int "every request answered" 6 (ok + overloaded);
      check_bool "backpressure engaged" true (overloaded >= 1);
      check_bool "some work completed" true (ok >= 1))

let test_loadgen_against_daemon () =
  with_tmpdir "loadgen-store" @@ fun store_dir ->
  with_daemon ~store_dir (fun sock ->
      let r =
        Pf_serve.Loadgen.run ~benchmarks:[ "crc32"; "bitcount" ] ~socket:sock
          ~requests:40 ~conns:3 ~seed:5 ()
      in
      check_int "every request accounted" 40
        (r.Pf_serve.Loadgen.ok + r.Pf_serve.Loadgen.errors
        + r.Pf_serve.Loadgen.overloaded);
      check_int "no errors" 0 r.Pf_serve.Loadgen.errors;
      check_int "no refusals at this load" 0 r.Pf_serve.Loadgen.overloaded;
      check_bool "corpus is small so the cache gets hits" true
        (r.Pf_serve.Loadgen.cached > 0);
      check_bool "hit rate consistent" true
        (r.Pf_serve.Loadgen.hit_rate > 0.
        && r.Pf_serve.Loadgen.hit_rate <= 1.);
      (* 40 draws from a 14-key corpus: most requests are re-touches, and
         only those feed the warm percentiles *)
      check_bool "warm subset is proper and non-empty" true
        (r.Pf_serve.Loadgen.warm_requests > 0
        && r.Pf_serve.Loadgen.warm_requests < r.Pf_serve.Loadgen.requests);
      (* the mask is a function of (seed, requests, corpus) alone *)
      check_int "warm requests for seed 5" 27 r.Pf_serve.Loadgen.warm_requests;
      check_bool "warm percentiles populated" true
        (r.Pf_serve.Loadgen.warm_p50_ms >= 0.
        && r.Pf_serve.Loadgen.warm_p50_ms <= r.Pf_serve.Loadgen.warm_p99_ms))

let test_trace_sharing () =
  (* two explore points on the same program but different geometries:
     the second must reuse the first's recording and still produce
     exactly what an unshared compute produces *)
  let traces = Pf_serve.Trace_share.create () in
  let point geometry =
    {
      Proto.default_request with
      Proto.action = Proto.Explore_point;
      program = Proto.Named "crc32";
      geometry;
    }
  in
  let run req =
    match Service.compute ~traces req with
    | Ok (result, _) -> result
    | Error e -> Alcotest.fail (SE.to_string e)
  in
  let shared result =
    match Option.bind (J.member "trace_shared" result) J.to_bool_opt with
    | Some b -> b
    | None -> Alcotest.fail "missing trace_shared"
  in
  let r16 = run (point Pf_dse.Space.cache_16k) in
  let r8 = run (point Pf_dse.Space.cache_8k) in
  check_bool "first point records" false (shared r16);
  check_bool "second point shares" true (shared r8);
  (* the first point recorded two halves: the ARM half, then the FITS
     half built on it *)
  let st = Pf_serve.Trace_share.stats traces in
  check_int "one share" 1 st.Pf_serve.Trace_share.shared;
  check_int "two halves recorded" 2 st.Pf_serve.Trace_share.recorded;
  check_int "two entries" 2 st.Pf_serve.Trace_share.entries;
  (* bit-identical to a compute with no sharing, apart from the flag *)
  let member name r =
    match J.member name r with
    | Some j -> J.to_string j
    | None -> Alcotest.failf "missing %s" name
  in
  (match Service.compute (point Pf_dse.Space.cache_8k) with
  | Error e -> Alcotest.fail (SE.to_string e)
  | Ok (fresh, _) ->
      check_bool "unshared compute does not share" false (shared fresh);
      List.iter
        (fun name ->
          check_string (name ^ " identical under sharing") (member name fresh)
            (member name r8))
        [ "points"; "replayed_events"; "outputs_consistent" ]);
  (* a different dict budget is a different recording *)
  let r_dict =
    run { (point Pf_dse.Space.cache_16k) with Proto.dict_budget = Some 96 }
  in
  check_bool "dict budget splits the key" false (shared r_dict);
  (* a new FITS half, built on the shared ARM half *)
  let st = Pf_serve.Trace_share.stats traces in
  check_int "the ARM half is shared" 2 st.Pf_serve.Trace_share.shared;
  check_int "one more FITS half" 3 st.Pf_serve.Trace_share.recorded;
  check_int "three entries" 3 st.Pf_serve.Trace_share.entries

(* ---- single-flight recordings ---- *)

module TS = Pf_serve.Trace_share

(* Polls [p] until it holds or [timeout_s] passes. *)
let wait_until ?(timeout_s = 10.) p =
  let t0 = Unix.gettimeofday () in
  while (not (p ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Unix.sleepf 0.001
  done

(* Two domains ask [ts] for one half.  The first blocks inside its
   recording until the second has joined it (or 2 s passed, on a table
   that lets the second record); with [fail_first] that recording then
   raises.  Both outcomes, and the number of recordings run. *)
let race ?(fail_first = false) ts =
  let runs = Atomic.make 0 and gate = Atomic.make false in
  let record () =
    if Atomic.fetch_and_add runs 1 = 0 then begin
      wait_until (fun () -> Atomic.get gate);
      if fail_first then
        SE.raisef SE.Watchdog_timeout ~where:"test" "the leader's deadline"
    end;
    Pf_dse.Explore.record_arm (Pf_mibench.Registry.find_exn "crc32")
  in
  let ask () =
    SE.protect ~where:"test" (fun () -> TS.arm_half ts ~key:"crc32" record)
  in
  let first = Domain.spawn ask in
  wait_until (fun () -> Atomic.get runs = 1);
  let second = Domain.spawn ask in
  wait_until ~timeout_s:2. (fun () -> (TS.stats ts).TS.waits = 1);
  Atomic.set gate true;
  let first = Domain.join first in
  let second = Domain.join second in
  (first, second, Atomic.get runs)

let test_single_flight () =
  let ts = TS.create () in
  (match race ts with
  | Ok (h1, shared1), Ok (h2, shared2), runs ->
      check_int "one recording ran" 1 runs;
      check_bool "the first recorded" false shared1;
      check_bool "the second shared its recording" true shared2;
      check_bool "both hold one recording" true
        (TS.recording h1 == TS.recording h2)
  | _ -> Alcotest.fail "a recording failed");
  let st = TS.stats ts in
  check_int "recordings" 1 st.TS.recordings;
  check_int "recorded" 1 st.TS.recorded;
  check_int "waits" 1 st.TS.waits;
  check_int "entries" 1 st.TS.entries

(* A leader whose recording raises frees its key: its waiter records for
   itself instead of inheriting the error. *)
let test_failed_leader () =
  let ts = TS.create () in
  (match race ~fail_first:true ts with
  | Error e, Ok (_, shared), runs ->
      check_bool "the leader fails with its own error" true
        (e.SE.kind = SE.Watchdog_timeout);
      check_bool "the waiter recorded for itself" false shared;
      check_int "two recordings ran" 2 runs
  | _, Error e, _ -> Alcotest.failf "the waiter failed: %s" (SE.to_string e)
  | Ok _, _, _ -> Alcotest.fail "the leader's recording succeeded");
  let st = TS.stats ts in
  check_int "two recordings counted" 2 st.TS.recordings;
  check_int "one entered the table" 1 st.TS.recorded;
  check_int "one entry" 1 st.TS.entries;
  check_bool "an absent key is not found" true
    (Option.is_none (TS.find ts ~key:"absent"));
  check_bool "the recorded key is found" true
    (Option.is_some (TS.find ts ~key:"crc32"))

(* One program's corpus requests (both ISAs at 16 KB and 8 KB,
   explore-point at both, synthesize) record each half once and replay
   each trace once, at 8 KB, in any order and under concurrency.  Only
   synthesize depends on order: first, it finds no ARM half and runs
   the bare counting run. *)
let test_trace_share_counters () =
  let corpus = Pf_serve.Loadgen.corpus ~benchmarks:[ "crc32" ] () in
  List.iter
    (fun (label, run, shared) ->
      let ts = TS.create () in
      run
        (fun req ->
          match Service.compute ~traces:ts req with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" label (SE.to_string e))
        corpus;
      let st = TS.stats ts in
      List.iter
        (fun (name, want, got) -> check_int (label ^ ": " ^ name) want got)
        [
          ("recordings", 2, st.TS.recordings);
          ("recorded", 2, st.TS.recorded);
          ("entries", 2, st.TS.entries);
          ("replays", 2, st.TS.replays);
          ("replays shared", 2, st.TS.replays_shared);
        ];
      Option.iter
        (fun want ->
          check_int (label ^ ": shared") want st.TS.shared;
          check_int (label ^ ": waits") 0 st.TS.waits)
        shared)
    [
      ("corpus order", List.iter, Some 6);
      ("reverse order", (fun f l -> List.iter f (List.rev l)), Some 5);
      ( "two domains",
        (fun f l -> ignore (Pf_util.Pool.map ~jobs:2 f l)),
        None );
    ]

(* Every reply computed over one shared table equals the reply computed
   with no table, minus [trace_shared], whichever order the table sees
   the requests in.  The corpus is the registry plus three generated
   programs at the paper's geometries and two 4 KB ones that differ only
   in associativity, so a result memo that drops a geometry field
   answers one from the other.  Computing all 312 replies with no table
   takes about a minute, so their digest is pinned (replies computed
   before recordings were shared give it too) and only crc32's and the
   generated programs' replies are computed with no table here.  The two
   ordered passes run side by side, each over its own small table, so
   they evict halves as they move from program to program. *)
let test_shared_replies_identical () =
  let model = Pf_workgen.Calibrate.reference () in
  let geometries =
    [
      Pf_dse.Space.cache_16k;
      Pf_dse.Space.cache_8k;
      Pf_cache.Icache.config ~size_bytes:4096 ~block_bytes:16 ~assoc:2 ();
      Pf_cache.Icache.config ~size_bytes:4096 ~block_bytes:16 ~assoc:4 ();
    ]
  in
  let base = Proto.default_request in
  let requests program =
    List.concat_map
      (fun geometry ->
        [
          { base with Proto.program; isa = Proto.Arm; geometry };
          { base with Proto.program; isa = Proto.Fits; geometry };
          { base with Proto.action = Proto.Explore_point; program; geometry };
        ])
      geometries
    @ [ { base with Proto.action = Proto.Synthesize; program } ]
  in
  let generated =
    List.map
      (fun seed ->
        Proto.Inline (Pf_workgen.Generate.program ~model ~seed ~index:0))
      [ 11; 12; 13 ]
  in
  let corpus =
    List.concat_map requests
      (List.map (fun n -> Proto.Named n) Pf_mibench.Registry.names @ generated)
  in
  let reply ?traces req =
    match Service.compute ?traces req with
    | Ok (J.Obj fields, degraded) ->
        Printf.sprintf "%b %s" degraded
          (J.to_string (J.Obj (List.remove_assoc "trace_shared" fields)))
    | Ok (j, degraded) -> Printf.sprintf "%b %s" degraded (J.to_string j)
    | Error e -> Alcotest.failf "compute failed: %s" (SE.to_string e)
  in
  let shared ~capacity order =
    let traces = TS.create ~capacity () in
    List.map (fun req -> (req, reply ~traces req)) (order corpus)
  in
  let reverse = Domain.spawn (fun () -> shared ~capacity:2 List.rev) in
  let forward = shared ~capacity:2 Fun.id in
  let reverse = Domain.join reverse in
  let traces = TS.create ~capacity:4 () in
  let two_domains =
    List.combine corpus
      (Pf_util.Pool.map ~jobs:2 (fun req -> reply ~traces req) corpus)
  in
  let live =
    List.concat_map requests (Proto.Named "crc32" :: generated)
    |> List.map (fun req -> (req, reply req))
  in
  List.iter
    (fun (label, pairs) ->
      let replies = List.map (fun req -> List.assq req pairs) corpus in
      check_string (label ^ ": digest of every reply")
        "9144e7732816f073583fb873e3458e6c"
        (Digest.to_hex (Digest.string (String.concat "\n" replies)));
      List.iter
        (fun (req, want) ->
          check_string (label ^ ": the reply computed with no table") want
            (List.assoc req pairs))
        live)
    [
      ("corpus order", forward);
      ("reverse order", reverse);
      ("two domains", two_domains);
    ]

(* ---- evaluate oracle ---- *)

(* What an evaluate reply held when every request compiled, profiled with
   a counting run, synthesized and simulated directly at its geometry.
   The service now reads shared recordings and replays them; its replies
   must stay these bytes. *)
let direct_evaluate (req : Proto.request) ~name image =
  let power (p : Pf_power.Account.report) =
    J.Obj
      [
        ("switching", J.Float p.Pf_power.Account.switching);
        ("internal", J.Float p.Pf_power.Account.internal);
        ("leakage", J.Float p.Pf_power.Account.leakage);
        ("total", J.Float p.Pf_power.Account.total);
        ("peak_power", J.Float p.Pf_power.Account.peak_power);
        ("cycles", J.Int p.Pf_power.Account.cycles);
      ]
  in
  let md5 s = J.String (Digest.to_hex (Digest.string s)) in
  let g = req.Proto.geometry in
  match req.Proto.isa with
  | Proto.Arm ->
      let r = Pf_cpu.Arm_run.run ~cache_cfg:g image in
      J.Obj
        [
          ("program", J.String name);
          ("isa", J.String "arm");
          ("instructions", J.Int r.Pf_cpu.Arm_run.instructions);
          ("cycles", J.Int r.Pf_cpu.Arm_run.cycles);
          ("ipc", J.Float r.Pf_cpu.Arm_run.ipc);
          ("fetch_accesses", J.Int r.Pf_cpu.Arm_run.fetch_accesses);
          ("cache_accesses", J.Int r.Pf_cpu.Arm_run.cache_accesses);
          ("cache_misses", J.Int r.Pf_cpu.Arm_run.cache_misses);
          ("miss_rate_pm", J.Float r.Pf_cpu.Arm_run.miss_rate_per_million);
          ("dcache_miss_rate_pm", J.Float r.Pf_cpu.Arm_run.dcache_miss_rate_pm);
          ("power", power r.Pf_cpu.Arm_run.power);
          ("output_md5", md5 r.Pf_cpu.Arm_run.output);
        ]
  | Proto.Fits ->
      let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
      let p_mult =
        Pf_multi.Weighting.multiplier req.Proto.weighting ~name
          ~dyn_insns:(Array.fold_left ( + ) 0 dyn_counts)
      in
      let syn =
        Pf_fits.Synthesis.synthesize_suite ?dict_budget:req.Proto.dict_budget
          [ { Pf_fits.Synthesis.p_image = image; p_dyn_counts = dyn_counts; p_mult } ]
      in
      let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
      let r = Pf_fits.Run.run ~cache_cfg:g tr in
      J.Obj
        [
          ("program", J.String name);
          ("isa", J.String "fits");
          ("instructions", J.Int r.Pf_fits.Run.arm_instructions);
          ("fits_instructions", J.Int r.Pf_fits.Run.fits_instructions);
          ("dyn_one_to_one_pct", J.Float r.Pf_fits.Run.dyn_one_to_one_pct);
          ("cycles", J.Int r.Pf_fits.Run.cycles);
          ("ipc", J.Float r.Pf_fits.Run.ipc);
          ("fetch_accesses", J.Int r.Pf_fits.Run.fetch_accesses);
          ("cache_accesses", J.Int r.Pf_fits.Run.cache_accesses);
          ("cache_misses", J.Int r.Pf_fits.Run.cache_misses);
          ("miss_rate_pm", J.Float r.Pf_fits.Run.miss_rate_per_million);
          ("dcache_miss_rate_pm", J.Float r.Pf_fits.Run.dcache_miss_rate_pm);
          ("dict_spilled", J.Int syn.Pf_fits.Synthesis.dict_spilled);
          ("power", power r.Pf_fits.Run.power);
          ("output_md5", md5 r.Pf_fits.Run.output);
        ]

(* Explore-point's point for one variant of a program at a geometry. *)
let explore_point ~traces program geometry variant =
  let req =
    {
      Proto.default_request with
      Proto.action = Proto.Explore_point;
      program;
      geometry;
    }
  in
  match Service.compute ~traces req with
  | Error e -> Alcotest.fail (SE.to_string e)
  | Ok (reply, _) -> (
      let points =
        Option.bind (J.member "points" reply) J.to_list_opt
        |> Option.value ~default:[]
      in
      match
        List.find_opt
          (fun p ->
            Option.bind (J.member "variant" p) J.to_string_opt = Some variant)
          points
      with
      | Some p -> p
      | None -> Alcotest.failf "explore-point has no %s point" variant)

(* Both ISAs, both weightings, the two paper geometries and one whose
   power parameters differ from the defaults (4 KB, 16-byte blocks,
   2-way), for a registry and a generated program, all served through
   one shared table.  Off the paper geometries an evaluate must also
   report what explore-point reports for its variant: one power model
   answers both actions. *)
let test_evaluate_oracle () =
  let traces = Pf_serve.Trace_share.create () in
  let crc32 = Pf_mibench.Registry.find_exn "crc32" in
  let generated =
    Pf_workgen.Generate.program
      ~model:(Pf_workgen.Calibrate.reference ())
      ~seed:7 ~index:0
  in
  let programs =
    [
      ( Proto.Named "crc32",
        "crc32",
        Pf_armgen.Compile.program ~unroll:crc32.Pf_mibench.Registry.unroll
          (crc32.Pf_mibench.Registry.program ~scale:1) );
      (Proto.Inline generated, "inline", Pf_armgen.Compile.program generated);
    ]
  in
  let off_paper =
    Pf_cache.Icache.config ~size_bytes:4096 ~block_bytes:16 ~assoc:2 ()
  in
  let geometries =
    [ Pf_dse.Space.cache_16k; Pf_dse.Space.cache_8k; off_paper ]
  in
  List.iter
    (fun (program, name, image) ->
      List.iter
        (fun isa ->
          List.iter
            (fun weighting ->
              List.iter
                (fun geometry ->
                  let req =
                    {
                      Proto.default_request with
                      Proto.program;
                      isa;
                      weighting;
                      geometry;
                    }
                  in
                  let label =
                    Printf.sprintf "%s %s %s %d/%d/%d" name
                      (Proto.isa_name isa)
                      (Pf_multi.Weighting.to_string weighting)
                      geometry.Pf_cache.Icache.size_bytes
                      geometry.Pf_cache.Icache.block_bytes
                      geometry.Pf_cache.Icache.assoc
                  in
                  match Service.compute ~traces req with
                  | Error e -> Alcotest.failf "%s: %s" label (SE.to_string e)
                  | Ok (reply, _) ->
                      check_string label
                        (J.to_string (direct_evaluate req ~name image))
                        (J.to_string reply);
                      if geometry = off_paper then begin
                        let point =
                          explore_point ~traces program geometry
                            (Proto.isa_name isa)
                        in
                        List.iter
                          (fun field ->
                            let get j =
                              match J.member field j with
                              | Some v -> J.to_string v
                              | None -> Alcotest.failf "%s: no %s" label field
                            in
                            check_string
                              (Printf.sprintf "%s %s = explore-point" label
                                 field)
                              (get point) (get reply))
                          [
                            "instructions"; "cycles"; "ipc"; "cache_misses";
                            "miss_rate_pm"; "power";
                          ]
                      end)
                geometries)
            [ Pf_multi.Weighting.Dyn_count; Pf_multi.Weighting.Uniform ])
        [ Proto.Arm; Proto.Fits ])
    programs;
  check_bool "the table served halves" true
    ((Pf_serve.Trace_share.stats traces).Pf_serve.Trace_share.shared > 0)

(* An ARM evaluate executes only ARM: a step budget the ARM run fits but
   the FITS run would exceed still succeeds. *)
let test_evaluate_arm_budget () =
  let b = Pf_mibench.Registry.find_exn "crc32" in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
      (b.Pf_mibench.Registry.program ~scale:1)
  in
  let arm_steps = (Pf_cpu.Arm_run.run image).Pf_cpu.Arm_run.instructions in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let fits_steps =
    (Pf_fits.Run.run
       (Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image))
      .Pf_fits.Run.fits_instructions
  in
  check_bool "FITS retires more steps than ARM" true (fits_steps > arm_steps + 1);
  let req =
    {
      Proto.default_request with
      Proto.program = Proto.Named "crc32";
      max_steps = Some ((arm_steps + fits_steps) / 2);
    }
  in
  let traces = Pf_serve.Trace_share.create () in
  (match Service.compute ~traces req with
  | Ok (reply, _) ->
      check_string "the budgeted reply is the unbudgeted one"
        (J.to_string (direct_evaluate req ~name:"crc32" image))
        (J.to_string reply)
  | Error e -> Alcotest.failf "ARM evaluate failed: %s" (SE.to_string e));
  match Service.compute ~traces { req with Proto.isa = Proto.Fits } with
  | Ok _ -> Alcotest.fail "the FITS evaluate fit a budget below its steps"
  | Error e ->
      check_bool "the FITS evaluate trips its watchdog" true
        (e.SE.kind = SE.Watchdog_timeout)

let tests =
  [
    Alcotest.test_case "crc32: known vectors" `Quick test_crc32;
    Alcotest.test_case "atomic: write/overwrite" `Quick test_atomic_write;
    Alcotest.test_case "atomic: crash-point matrix" `Quick
      test_atomic_crash_points;
    Alcotest.test_case "json: roundtrip + malformed" `Quick test_json_roundtrip;
    Alcotest.test_case "json: nesting depth cap" `Quick test_json_depth_cap;
    QCheck_alcotest.to_alcotest prop_json_print_parse_print;
    Alcotest.test_case "kir codec: suite roundtrip" `Quick
      test_kir_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_record_roundtrip;
    QCheck_alcotest.to_alcotest prop_record_flip_detected;
    QCheck_alcotest.to_alcotest prop_record_truncation_detected;
    Alcotest.test_case "store: put/get/persist" `Quick test_store_basic;
    Alcotest.test_case "store: corrupt record quarantined" `Quick
      test_store_quarantine;
    Alcotest.test_case "storefault: campaign survives" `Slow
      test_storefault_campaign;
    Alcotest.test_case "retry: transient vs permanent" `Quick test_retry;
    Alcotest.test_case "proto: request/response roundtrip" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "proto: framing" `Quick test_frame_roundtrip;
    Alcotest.test_case "service: cache keys" `Quick test_cache_keys;
    Alcotest.test_case "service: cache-key bytes pinned" `Quick
      test_cache_key_bytes_pinned;
    Alcotest.test_case "service: matches direct run" `Quick
      test_compute_matches_direct;
    Alcotest.test_case "service: cached reply bit-identical" `Quick
      test_handle_cached_bit_identical;
    Alcotest.test_case "service: half-scale degradation" `Slow
      test_degraded_half_scale;
    Alcotest.test_case "inflight: second waiter blocks on first result"
      `Quick test_inflight_coalescing;
    Alcotest.test_case "service: coalescing path is transparent" `Quick
      test_handle_with_inflight;
    Alcotest.test_case "service: envelope roundtrip" `Quick
      test_envelope_roundtrip;
    Alcotest.test_case "daemon: end to end + restart" `Slow
      test_daemon_end_to_end;
    Alcotest.test_case "daemon: error isolation" `Slow
      test_daemon_error_isolation;
    Alcotest.test_case "daemon: computed counts only computes" `Slow
      test_daemon_counts_only_computes;
    Alcotest.test_case "daemon: backpressure" `Slow test_daemon_backpressure;
    Alcotest.test_case "daemon: loadgen run" `Slow test_loadgen_against_daemon;
    Alcotest.test_case "service: evaluate equals the direct-run oracle" `Slow
      test_evaluate_oracle;
    Alcotest.test_case "service: ARM evaluate under a budget FITS exceeds"
      `Quick test_evaluate_arm_budget;
    Alcotest.test_case "service: trace sharing across geometries" `Quick
      test_trace_sharing;
    Alcotest.test_case "trace share: two domains record one half once" `Quick
      test_single_flight;
    Alcotest.test_case "trace share: a failed recording frees its waiters"
      `Quick test_failed_leader;
    Alcotest.test_case "trace share: one program's corpus counters" `Quick
      test_trace_share_counters;
    Alcotest.test_case "service: shared replies equal unshared ones" `Slow
      test_shared_replies_identical;
    Alcotest.test_case "daemon: ill-formed inline program" `Slow
      test_daemon_ill_formed_inline;
    Alcotest.test_case "memo: transparent, keyed by the whole frame" `Quick
      test_memo_transparent;
    Alcotest.test_case "memo: errors, control and unkeyable frames" `Quick
      test_memo_never_stores;
    Alcotest.test_case "memo: byte budget" `Quick test_memo_budget;
    Alcotest.test_case "memo: fuzzed frames fail structurally" `Quick
      test_memo_fuzz;
    Alcotest.test_case "daemon: memo hit replies bit-identical" `Slow
      test_daemon_memo_hit;
    Alcotest.test_case "daemon: reply memo answers third arrivals exactly"
      `Slow test_daemon_reply_memo;
    Alcotest.test_case "daemon: no_cache frames never answered from memory"
      `Slow test_daemon_no_cache_never_from_memory;
    Alcotest.test_case "daemon: error frames never answered from memory"
      `Slow test_daemon_errors_never_from_memory;
    Alcotest.test_case "memo: reply bytes count against the budget" `Quick
      test_memo_reply_budget;
    Alcotest.test_case "daemon: a stalled client delays others by the deadline"
      `Slow test_daemon_stalled_client;
    Alcotest.test_case "daemon: a client that hung up counts as client_gone"
      `Slow test_daemon_client_gone;
  ]
