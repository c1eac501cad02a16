(* Multi-program synthesis: profile-algebra laws (QCheck), shared-ISA
   determinism across worker-domain counts, the leave-one-out
   differential check — a LOO campaign cell must be bit-identical to a
   direct per-app-style simulation of the held-out program under the same
   spec — and isolation of a program that fails preparation. *)

module P = Pf_fits.Profile
module S = Pf_multi.Suite
module E = Pf_multi.Eval
module W = Pf_multi.Weighting

let small_suite =
  List.map Pf_mibench.Registry.find_exn [ "crc32"; "bitcount"; "stringsearch" ]

let prepared = lazy (List.map (fun b -> fst (S.prepare b)) small_suite)

(* ---- profile-algebra laws ---------------------------------------------- *)

(* Real profiles (three benchmarks), their scaled variants, and the empty
   profile: a pool rich enough that the laws are exercised on overlapping
   and disjoint key sets alike.  Properties draw random pool indices. *)
let pool =
  lazy
    (let ps = Lazy.force prepared in
     Array.of_list
       (P.create ()
        :: List.map (fun p -> p.S.profile) ps
       @ List.map (fun p -> P.scale p.S.profile 3) ps))

let pool_size = 7
let pick i = (Lazy.force pool).(i)
let idx = QCheck.int_bound (pool_size - 1)

let prop_merge_commutative =
  QCheck.Test.make ~name:"Profile.merge is commutative" ~count:60
    (QCheck.pair idx idx)
    (fun (i, j) ->
      P.equal (P.merge (pick i) (pick j)) (P.merge (pick j) (pick i)))

let prop_merge_associative =
  QCheck.Test.make ~name:"Profile.merge is associative" ~count:60
    (QCheck.triple idx idx idx)
    (fun (i, j, k) ->
      P.equal
        (P.merge (P.merge (pick i) (pick j)) (pick k))
        (P.merge (pick i) (P.merge (pick j) (pick k))))

let prop_merge_identity =
  QCheck.Test.make ~name:"merge with the empty profile is the identity"
    ~count:pool_size idx (fun i ->
      P.equal (P.merge (P.create ()) (pick i)) (pick i))

let prop_merge_all_singleton =
  QCheck.Test.make ~name:"merge_all [p] = p" ~count:pool_size idx (fun i ->
      P.equal (P.merge_all [ pick i ]) (pick i))

let prop_scale_one =
  QCheck.Test.make ~name:"scale p 1 = p" ~count:pool_size idx (fun i ->
      P.equal (P.scale (pick i) 1) (pick i))

(* ---- weighting --------------------------------------------------------- *)

let test_weighting_parse () =
  Alcotest.(check bool) "uniform" true (W.of_string "uniform" = Ok W.Uniform);
  Alcotest.(check bool) "dyn alias" true (W.of_string "dyn" = Ok W.Dyn_count);
  Alcotest.(check bool) "custom" true
    (W.of_string "crc32=2,sha=1" = Ok (W.Custom [ ("crc32", 2); ("sha", 1) ]));
  Alcotest.(check bool) "garbage rejected" true
    (match W.of_string "nonesuch" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad int rejected" true
    (match W.of_string "crc32=two" with Error _ -> true | Ok _ -> false)

let test_weighting_validate () =
  let names = [ "a"; "b" ] in
  W.validate W.Uniform ~names;
  W.validate (W.Custom [ ("a", 1); ("b", 5) ]) ~names;
  let rejects w =
    try
      W.validate w ~names;
      false
    with Pf_util.Sim_error.Error _ -> true
  in
  Alcotest.(check bool) "missing program" true
    (rejects (W.Custom [ ("a", 1) ]));
  Alcotest.(check bool) "unknown program" true
    (rejects (W.Custom [ ("a", 1); ("b", 1); ("c", 1) ]));
  Alcotest.(check bool) "zero weight" true
    (rejects (W.Custom [ ("a", 0); ("b", 1) ]));
  Alcotest.(check bool) "duplicate" true
    (rejects (W.Custom [ ("a", 1); ("a", 2); ("b", 1) ]));
  Alcotest.(check int) "uniform multiplier is >= 1" 1
    (min 1 (W.multiplier W.Uniform ~name:"a" ~dyn_insns:max_int))

(* ---- determinism across worker-domain counts --------------------------- *)

let campaign jobs = E.run ~loo:true ~jobs small_suite

(* the banner prints the jobs count on purpose; everything else must match *)
let render c =
  E.coverage_table c
  ^ Pf_fits.Spec.describe c.E.c_shared.S.spec
  ^ E.table c ^ E.summary c

let test_jobs_determinism () =
  let c1 = campaign 1 and c4 = campaign 4 in
  Alcotest.(check int) "all rows completed" c1.E.c_total c1.E.c_completed;
  Alcotest.(check bool) "shared dictionaries identical" true
    (c1.E.c_shared.S.spec.Pf_fits.Spec.dict
    = c4.E.c_shared.S.spec.Pf_fits.Spec.dict);
  Alcotest.(check string) "every report identical across jobs 1/4"
    (render c1) (render c4);
  (* the coverage table has one line per program, read off its row *)
  let coverage_names =
    match String.split_on_char '\n' (E.coverage_table c1) with
    | _banner :: _header :: _rule :: lines ->
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | name :: _ when name <> "" -> Some name
            | _ -> None)
          lines
    | _ -> []
  in
  Alcotest.(check (list string)) "one coverage line per program"
    (List.map (fun b -> b.Pf_mibench.Registry.name) small_suite)
    coverage_names;
  let cache_16k = Pf_harness.Experiment.cache_16k in
  Alcotest.(check bool) "each ARM16 row = a direct 16 KB run" true
    (List.for_all
       (fun (row : E.row) ->
         let b = Pf_mibench.Registry.find_exn row.E.r_bench in
         let image =
           Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
             (b.Pf_mibench.Registry.program ~scale:1)
         in
         Pf_dse.Explore.metrics_of_arm cache_16k
           (Pf_cpu.Arm_run.run ~cache_cfg:cache_16k image)
         = row.E.r_arm16)
       (E.ok_rows c1))

(* ---- leave-one-out differential ---------------------------------------- *)

(* The campaign evaluates the held-out program via translate + one FITS8
   run.  A direct simulation under the same spec — the per-application
   flow's shape — must agree bit for bit. *)
let test_loo_differential () =
  let ps = Lazy.force prepared in
  let held = List.hd ps in
  let spec =
    E.loo_spec ~weighting:W.Dyn_count ~dict_budget:S.default_dict_budget ps
      (S.name held)
  in
  let cell = E.eval_cell ~isa:E.Loo spec held in
  Alcotest.(check bool) "LOO cell output matches reference" true
    cell.E.output_ok;
  let tr = Pf_fits.Translate.translate spec held.S.image in
  let direct8 =
    Pf_fits.Run.run ~cache_cfg:Pf_harness.Experiment.cache_8k tr
  in
  Alcotest.(check bool) "FITS8 cell = direct simulation" true
    (Pf_dse.Explore.metrics_of_fits Pf_harness.Experiment.cache_8k direct8
    = cell.E.fits8)

(* ---- failure isolation ------------------------------------------------- *)

(* A program that faults on its first load fails preparation.  It is a
   failed row, and the other rows are those of a campaign without it:
   shared and LOO synthesis read only the programs that prepared. *)
let test_failed_preparation_isolated () =
  let bad =
    let open Pf_kir.Build in
    Pf_mibench.Registry.of_program ~category:"test" "faults-at-once"
      (program [] [ func "main" [] [ print_int (load32 (i 3)) ] ])
  in
  let good =
    List.map Pf_mibench.Registry.find_exn [ "crc32"; "bitcount" ]
  in
  let c = E.run ~loo:true ~jobs:2 (List.hd good :: bad :: List.tl good) in
  Alcotest.(check int) "every program has a row" 3 c.E.c_total;
  Alcotest.(check int) "the good programs completed" 2 c.E.c_completed;
  Alcotest.(check (list string)) "failed names the bad program"
    [ "faults-at-once" ] (List.map fst (E.failed c));
  let view (r : E.row) =
    (r.E.r_bench, r.E.r_arm16, r.E.r_per_app, r.E.r_shared, r.E.r_loo)
  in
  Alcotest.(check bool) "good rows = a campaign over just those two" true
    (List.map view (E.ok_rows c)
    = List.map view (E.ok_rows (E.run ~loo:true ~jobs:2 good)))

(* ---- expected directions ----------------------------------------------- *)

(* Sanity, not calibration: a shared ISA cannot beat each program's own,
   and the spilled-immediate count must be zero exactly when the program
   was inside the synthesis set (its values were all on the table). *)
let test_shared_coverage_sane () =
  let ps = Lazy.force prepared in
  let sh = S.synthesize_shared ps in
  List.iter
    (fun p ->
      let c = E.eval_cell ~isa:E.Shared sh.S.spec p in
      Alcotest.(check bool)
        (S.name p ^ ": static mapping rate in range") true
        (c.E.static_map_pct >= 0. && c.E.static_map_pct <= 100.);
      Alcotest.(check bool) (S.name p ^ ": positive code size") true
        (c.E.code_fits > 0))
    ps;
  Alcotest.(check bool) "shared dictionary within budget" true
    (Array.length sh.S.spec.Pf_fits.Spec.dict <= S.default_dict_budget)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_identity;
    QCheck_alcotest.to_alcotest prop_merge_all_singleton;
    QCheck_alcotest.to_alcotest prop_scale_one;
    Alcotest.test_case "weighting parses CLI spellings" `Quick
      test_weighting_parse;
    Alcotest.test_case "weighting validation rejects bad schemes" `Quick
      test_weighting_validate;
    Alcotest.test_case "campaign is identical for jobs 1 and 4" `Slow
      test_jobs_determinism;
    Alcotest.test_case "LOO cell equals direct simulation" `Slow
      test_loo_differential;
    Alcotest.test_case "shared coverage is sane" `Quick
      test_shared_coverage_sane;
    Alcotest.test_case "failed preparation is an isolated row" `Quick
      test_failed_preparation_isolated;
  ]
