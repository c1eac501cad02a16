(* Unit and property tests for the pf_util substrate. *)

open Pf_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Bits ---- *)

let test_mask () =
  check_int "mask 0" 0 (Bits.mask 0);
  check_int "mask 1" 1 (Bits.mask 1);
  check_int "mask 8" 0xFF (Bits.mask 8);
  check_int "mask 32" 0xFFFFFFFF (Bits.mask 32);
  Alcotest.check_raises "mask -1" (Invalid_argument "Bits.mask") (fun () ->
      ignore (Bits.mask (-1)))

let test_extract_insert () =
  check_int "extract" 0xB (Bits.extract 0xAB ~lo:0 ~width:4);
  check_int "extract hi" 0xA (Bits.extract 0xAB ~lo:4 ~width:4);
  check_int "insert" 0xCB (Bits.insert 0xAB ~lo:4 ~width:4 0xC);
  check_int "insert keeps others" 0xA5
    (Bits.insert 0xA0 ~lo:0 ~width:4 0x5)

let test_sign_extend () =
  check_int "positive" 5 (Bits.sign_extend ~width:8 5);
  check_int "negative" (-1) (Bits.sign_extend ~width:8 0xFF);
  check_int "boundary" (-128) (Bits.sign_extend ~width:8 0x80);
  check_int "wide" (-1) (Bits.sign_extend ~width:32 0xFFFFFFFF)

let test_fits () =
  check_bool "unsigned in" true (Bits.fits_unsigned ~width:4 15);
  check_bool "unsigned out" false (Bits.fits_unsigned ~width:4 16);
  check_bool "unsigned neg" false (Bits.fits_unsigned ~width:4 (-1));
  check_bool "signed lo" true (Bits.fits_signed ~width:4 (-8));
  check_bool "signed out lo" false (Bits.fits_signed ~width:4 (-9));
  check_bool "signed hi" true (Bits.fits_signed ~width:4 7);
  check_bool "signed out hi" false (Bits.fits_signed ~width:4 8)

let test_rotate () =
  check_int "ror 8" 0x78123456 (Bits.rotate_right32 0x12345678 8);
  check_int "ror 0" 0x12345678 (Bits.rotate_right32 0x12345678 0);
  check_int "ror 32 = id" 0x12345678 (Bits.rotate_right32 0x12345678 32)

let test_popcount_hamming () =
  check_int "popcount 0" 0 (Bits.popcount 0);
  check_int "popcount ff" 8 (Bits.popcount 0xFF);
  check_int "hamming self" 0 (Bits.hamming 0xABCD 0xABCD);
  check_int "hamming" 1 (Bits.hamming 0 1)

let test_log2 () =
  check_int "log2 1" 0 (Bits.log2_exact 1);
  check_int "log2 1024" 10 (Bits.log2_exact 1024);
  check_bool "pow2 0" false (Bits.is_power_of_two 0);
  check_bool "pow2 3" false (Bits.is_power_of_two 3);
  check_bool "pow2 64" true (Bits.is_power_of_two 64)

let test_signed32 () =
  check_int "to_signed32 pos" 1 (Bits.to_signed32 1);
  check_int "to_signed32 neg" (-1) (Bits.to_signed32 0xFFFFFFFF);
  check_int "u32 wraps" 0 (Bits.u32 (1 lsl 32))

(* properties *)

let u32_gen = QCheck.map (fun x -> x land 0xFFFFFFFF) QCheck.int

let prop_extract_insert =
  QCheck.Test.make ~name:"insert then extract is identity" ~count:500
    (QCheck.triple u32_gen (QCheck.int_bound 28) (QCheck.int_bound 15))
    (fun (x, lo, v) ->
      Bits.extract (Bits.insert x ~lo ~width:4 v) ~lo ~width:4 = v land 0xF)

let prop_rotate_inverse =
  QCheck.Test.make ~name:"rotate right 32-r undoes rotate right r" ~count:500
    (QCheck.pair u32_gen (QCheck.int_bound 31))
    (fun (x, r) ->
      Bits.rotate_right32 (Bits.rotate_right32 x r) ((32 - r) land 31) = x)

let prop_hamming_triangle =
  QCheck.Test.make ~name:"hamming satisfies triangle inequality" ~count:500
    (QCheck.triple u32_gen u32_gen u32_gen)
    (fun (a, b, c) ->
      Bits.hamming a c <= Bits.hamming a b + Bits.hamming b c)

let prop_sign_extend_range =
  QCheck.Test.make ~name:"sign_extend lands in the signed range" ~count:500
    (QCheck.pair u32_gen (QCheck.int_range 1 32))
    (fun (x, w) ->
      let v = Bits.sign_extend ~width:w x in
      v >= -(1 lsl (w - 1)) && v < 1 lsl (w - 1))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  check_bool "split streams differ" true (xs <> ys)

(* The first draws of three seeds, a split stream and each projection, as
   the generator gave them when its state was a boxed [int64]: every
   seeded workload (generated programs, litmus schedules, fault
   campaigns) depends on these exact streams. *)
let test_rng_pinned () =
  List.iter
    (fun (seed, want) ->
      let r = Rng.create seed in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        want
        (List.init 5 (fun _ -> Rng.int r max_int)))
    [
      ( 0,
        [ 4073552104164651883; 1990071630548588925; 121904254867886419;
          4477402844195135611; 490437550606523686 ] );
      ( 1,
        [ 2612804094800205616; 3439311302766607129; 4477959822570722647;
          2049245188455445058; 2048809309281742190 ] );
      ( 42,
        [ 3419864383188818853; 737456523031723072; 1284820937115690964;
          1587299515064563941; 175383196535490812 ] );
    ];
  check_int "split of seed 42" 1583154557381516417
    (Rng.int (Rng.split (Rng.create 42)) max_int);
  let r = Rng.create 7 in
  check_int "int32u" 1496452567 (Rng.int32u r);
  check_bool "bool" false (Rng.bool r);
  Alcotest.(check (float 0.)) "float" 0x1.cd30810175625p-1 (Rng.float r 1.0)

let test_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 50 Fun.id) sorted

(* ---- Stats ---- *)

let test_histogram () =
  let h = Stats.histogram () in
  Stats.add h 5;
  Stats.add h 5;
  Stats.add h ~weight:3 7;
  check_int "count 5" 2 (Stats.count h 5);
  check_int "count 7" 3 (Stats.count h 7);
  check_int "count missing" 0 (Stats.count h 9);
  check_int "total" 5 (Stats.total h);
  check_int "distinct" 2 (Stats.distinct h);
  Alcotest.(check (list (pair int int)))
    "sorted desc" [ (7, 3); (5, 2) ] (Stats.sorted_desc h);
  Alcotest.(check (list (pair int int))) "top 1" [ (7, 3) ] (Stats.top h 1)

let test_coverage () =
  let h = Stats.histogram () in
  Stats.add h ~weight:3 1;
  Stats.add h ~weight:1 10;
  Alcotest.(check (float 1e-9)) "coverage" 0.75
    (Stats.coverage h (fun k -> k < 5))

let test_means () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "saving" 25.0
    (Stats.saving ~baseline:4.0 3.0);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean [])

(* ---- Table ---- *)

let test_table_render () =
  let s =
    Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  check_bool "contains separator" true (String.contains s '-');
  let lines = String.split_on_char '\n' s in
  check_int "line count" 5 (List.length lines);
  (* header + sep + 2 rows + trailing newline *)
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.render: row length mismatch") (fun () ->
      ignore (Table.render ~header:[ "a" ] [ [ "x"; "y" ] ]))

let test_formatting () =
  Alcotest.(check string) "pct" "49.4" (Table.pct 49.42);
  Alcotest.(check string) "f2" "1.50" (Table.f2 1.5);
  Alcotest.(check string) "si k" "1.5k" (Table.si 1500.0);
  Alcotest.(check string) "si m" "2M" (Table.si 2e6)

let tests =
  [
    Alcotest.test_case "bits: mask" `Quick test_mask;
    Alcotest.test_case "bits: extract/insert" `Quick test_extract_insert;
    Alcotest.test_case "bits: sign extend" `Quick test_sign_extend;
    Alcotest.test_case "bits: fits" `Quick test_fits;
    Alcotest.test_case "bits: rotate" `Quick test_rotate;
    Alcotest.test_case "bits: popcount/hamming" `Quick test_popcount_hamming;
    Alcotest.test_case "bits: log2/power-of-two" `Quick test_log2;
    Alcotest.test_case "bits: signed32" `Quick test_signed32;
    QCheck_alcotest.to_alcotest prop_extract_insert;
    QCheck_alcotest.to_alcotest prop_rotate_inverse;
    QCheck_alcotest.to_alcotest prop_hamming_triangle;
    QCheck_alcotest.to_alcotest prop_sign_extend_range;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: first draws pinned" `Quick test_rng_pinned;
    Alcotest.test_case "rng: shuffle permutes" `Quick test_shuffle_permutation;
    Alcotest.test_case "stats: histogram" `Quick test_histogram;
    Alcotest.test_case "stats: coverage" `Quick test_coverage;
    Alcotest.test_case "stats: means/savings" `Quick test_means;
    Alcotest.test_case "table: render" `Quick test_table_render;
    Alcotest.test_case "table: formatting" `Quick test_formatting;
  ]
