(* KIR front-end tests: validator diagnostics, evaluator semantics, and the
   unrolling transform (which must be observationally invisible). *)

open Pf_kir
open Pf_kir.Build

let eval_out p = (Eval.run p).Eval.output

let main body = program [] [ func "main" [] body ]

let check_out name expected p =
  Alcotest.(check string) name expected (eval_out p)

(* ---- validator ---- *)

let expect_invalid name p =
  match Validate.check p with
  | Ok () -> Alcotest.failf "%s: expected a validation error" name
  | Error (e :: _) ->
      Alcotest.(check bool) name true (String.length e.Validate.what > 0)
  | Error [] -> Alcotest.fail "empty error list"

let test_validator_catches () =
  expect_invalid "missing main" (program [] [ func "f" [] [ ret0 ] ]);
  expect_invalid "main with params"
    (program [] [ func "main" [ "x" ] [ ret0 ] ]);
  expect_invalid "undeclared variable" (main [ print_int (v "nope") ]);
  expect_invalid "undeclared global" (main [ print_int (load32 (gaddr "g")) ]);
  expect_invalid "unknown function" (main [ do_ "ghost" [] ]);
  expect_invalid "arity mismatch"
    (program []
       [ func "f" [ "a" ] [ ret (v "a") ]; func "main" [] [ do_ "f" [] ] ]);
  expect_invalid "too many params"
    (program []
       [
         func "f" [ "a"; "b"; "c"; "d"; "e" ] [ ret0 ];
         func "main" [] [ ret0 ];
       ]);
  expect_invalid "break outside loop" (main [ break_ ]);
  expect_invalid "duplicate function"
    (program [] [ func "main" [] [ ret0 ]; func "main" [] [ ret0 ] ]);
  expect_invalid "duplicate global"
    (program
       [ garray "g" W32 1; garray "g" W8 1 ]
       [ func "main" [] [ ret0 ] ]);
  expect_invalid "oversized initializer"
    (program
       [ garray_init "g" W32 [| 1; 2; 3 |] |> fun g ->
         { g with Ast.length = 2 } ]
       [ func "main" [] [ ret0 ] ])

(* a duplicate global, a missing main and a stray break *)
let multi_error_program =
  program [ garray "g" W32 1; garray "g" W8 1 ] [ func "f" [] [ break_ ] ]

let test_validator_accumulates () =
  (* one pass reports every problem, not just the first *)
  match Validate.check multi_error_program with
  | Ok () -> Alcotest.fail "expected validation errors"
  | Error errs ->
      Alcotest.(check bool) "accumulates multiple errors" true
        (List.length errs >= 2);
      List.iter
        (fun (e : Validate.error) ->
          Alcotest.(check bool) "each error is located" true
            (String.length e.Validate.where > 0
            && String.length e.Validate.what > 0))
        errs

let test_validator_check_exn () =
  (* ill-formed KIR is bad input, not a simulator bug: check_exn fails
     as a structured Invalid_config naming every problem check found *)
  let errs =
    match Validate.check multi_error_program with
    | Error errs -> errs
    | Ok () -> Alcotest.fail "expected validation errors"
  in
  match Validate.check_exn multi_error_program with
  | () -> Alcotest.fail "check_exn accepted an ill-formed program"
  | exception Pf_util.Sim_error.Error e ->
      Alcotest.(check bool) "kind Invalid_config" true
        (e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Invalid_config);
      Alcotest.(check string) "where" "kir.validate" e.Pf_util.Sim_error.where;
      List.iter
        (fun (err : Validate.error) ->
          let sub = err.Validate.where ^ ": " ^ err.Validate.what in
          let d = e.Pf_util.Sim_error.detail in
          let n = String.length sub in
          let rec has i =
            i + n <= String.length d && (String.sub d i n = sub || has (i + 1))
          in
          Alcotest.(check bool) ("detail lists " ^ sub) true (has 0))
        errs

let test_validator_accepts () =
  Alcotest.(check bool) "suite benchmarks validate" true
    (List.for_all
       (fun (b : Pf_mibench.Registry.benchmark) ->
         Validate.check (b.Pf_mibench.Registry.program ~scale:1) = Ok ())
       Pf_mibench.Registry.all)

(* ---- evaluator semantics ---- *)

let test_eval_wraparound () =
  check_out "mul wraps" "-727379968\n"
    (main [ print_int (i 1000000 *% i 1000000) ]);
  check_out "add wraps" "0\n"
    (main [ print_int (i 0xFFFFFFFF +% i 1) ])

let test_eval_division_by_zero () =
  check_out "div by zero is 0" "0\n0\n0\n0\n"
    (main
       [
         print_int (i 5 /% i 0);
         print_int (i 5 %+ i 0);
         print_int (udiv (i 5) (i 0));
         print_int (urem (i 5) (i 0));
       ])

let test_eval_signed_division () =
  check_out "truncation toward zero" "-2\n-1\n2\n1\n"
    (main
       [
         print_int (neg (i 7) /% i 3);
         print_int (neg (i 7) %+ i 3);
         print_int (neg (i 7) /% neg (i 3));
         print_int (i 7 %+ neg (i 3));
       ])

let test_eval_shift_saturation () =
  check_out "shl 32 is 0" "0\n"
    (main [ let_ "n" (i 32); print_int (shl (i 1) (v "n")) ]);
  check_out "sar 40 keeps sign" "-1\n"
    (main [ let_ "n" (i 40); print_int (sar (i 0x80000000) (v "n")) ]);
  check_out "amount masked to byte" "2\n"
    (main [ let_ "n" (i 257); print_int (shl (i 1) (v "n")) ])

let test_eval_for_semantics () =
  (* bound evaluated once, induction variable assignable *)
  check_out "bound fixed at entry" "5\n"
    (main
       [
         let_ "n" (i 5);
         let_ "c" (i 0);
         for_ "k" (i 0) (v "n") [ set "n" (i 100); incr_ "c" ];
         print_int (v "c");
       ]);
  check_out "body may advance induction" "3\n"
    (main
       [
         let_ "c" (i 0);
         for_ "k" (i 0) (i 6) [ incr_ "c"; incr_ "k" ];
         print_int (v "c");
       ])

let test_eval_continue_semantics () =
  check_out "continue still increments" "12\n"
    (main
       [
         let_ "acc" (i 0);
         for_ "k" (i 0) (i 7)
           [
             when_ (band (v "k") (i 1) =% i 1) [ continue_ ];
             set "acc" (v "acc" +% v "k");
           ];
         print_int (v "acc");
       ])

let test_eval_memory_faults () =
  Alcotest.(check bool) "oob store raises" true
    (try
       ignore
         (Eval.run
            (program
               [ garray "g" W32 4 ]
               [ func "main" [] [ setidx32 "g" (i 100000) (i 1) ] ]));
       false
     with Eval.Runtime_error _ -> true)

let test_eval_step_budget () =
  Alcotest.(check bool) "infinite loop trips budget" true
    (try
       ignore (Eval.run ~max_steps:1000 (main [ while_ (i 1) [] ]));
       false
     with Eval.Runtime_error _ -> true)

(* ---- unrolling ---- *)

let sum_kernel hi =
  program
    [ garray "a" W32 64 ]
    [
      func "main" []
        [
          for_ "k" (i 0) hi [ setidx32 "a" (band (v "k") (i 63)) (v "k") ];
          let_ "s" (i 0);
          for_ "k" (i 0) (i 64) [ set "s" (v "s" +% idx32 "a" (v "k")) ];
          print_int (v "s");
        ];
    ]

let test_unroll_preserves_semantics () =
  List.iter
    (fun factor ->
      List.iter
        (fun hi ->
          let p = sum_kernel (i hi) in
          let expected = eval_out p in
          let unrolled = Transform.unroll ~factor p in
          Validate.check_exn unrolled;
          Alcotest.(check string)
            (Printf.sprintf "factor %d, trips %d" factor hi)
            expected (eval_out unrolled))
        [ 0; 1; 3; 7; 8; 64; 100 ])
    [ 2; 4; 8; 16 ]

let test_unroll_preserves_benchmarks () =
  (* observational equivalence on two real benchmarks *)
  List.iter
    (fun name ->
      let b = Pf_mibench.Registry.find name in
      let p = b.Pf_mibench.Registry.program ~scale:1 in
      let expected = eval_out p in
      let unrolled = Transform.unroll ~factor:6 p in
      Alcotest.(check string) name expected (eval_out unrolled))
    [ "crc32"; "fft" ]

let test_unroll_respects_break () =
  (* loops containing break must be left alone and stay correct *)
  let p =
    main
      [
        let_ "k" (i 0);
        for_ "j" (i 0) (i 100)
          [ when_ (v "j" =% i 5) [ break_ ]; incr_ "k" ];
        print_int (v "k");
      ]
  in
  Alcotest.(check string) "break untouched" (eval_out p)
    (eval_out (Transform.unroll ~factor:8 p))

let test_count_loops () =
  let p = sum_kernel (i 10) in
  let total, candidates = Transform.count_loops p in
  Alcotest.(check int) "two loops" 2 total;
  Alcotest.(check int) "both unrollable" 2 candidates

let test_unroll_identity () =
  let p = sum_kernel (i 10) in
  Alcotest.(check bool) "factor 1 is identity" true
    (Transform.unroll ~factor:1 p == p)

(* ---- builder sanity ---- *)

let test_builder_shapes () =
  (match idx32 "g" (i 3) with
  | Ast.Load { scale = Ast.W32; signed = false; _ } -> ()
  | _ -> Alcotest.fail "idx32 shape");
  (match v "x" <% i 3 with
  | Ast.Cmp (Ast.Lt, _, _) -> ()
  | _ -> Alcotest.fail "<% shape");
  match when_ (i 1) [ ret0 ] with
  | Ast.If (_, [ Ast.Return None ], []) -> ()
  | _ -> Alcotest.fail "when_ shape"

let tests =
  [
    Alcotest.test_case "validator catches errors" `Quick test_validator_catches;
    Alcotest.test_case "validator accepts the suite" `Quick
      test_validator_accepts;
    Alcotest.test_case "validator accumulates errors" `Quick
      test_validator_accumulates;
    Alcotest.test_case "eval: wraparound" `Quick test_eval_wraparound;
    Alcotest.test_case "eval: division by zero" `Quick
      test_eval_division_by_zero;
    Alcotest.test_case "eval: signed division" `Quick
      test_eval_signed_division;
    Alcotest.test_case "eval: shift saturation" `Quick
      test_eval_shift_saturation;
    Alcotest.test_case "eval: for-loop bound" `Quick test_eval_for_semantics;
    Alcotest.test_case "eval: continue" `Quick test_eval_continue_semantics;
    Alcotest.test_case "eval: memory faults" `Quick test_eval_memory_faults;
    Alcotest.test_case "eval: step budget" `Quick test_eval_step_budget;
    Alcotest.test_case "unroll: semantics preserved" `Quick
      test_unroll_preserves_semantics;
    Alcotest.test_case "unroll: real benchmarks" `Quick
      test_unroll_preserves_benchmarks;
    Alcotest.test_case "unroll: break untouched" `Quick
      test_unroll_respects_break;
    Alcotest.test_case "unroll: loop census" `Quick test_count_loops;
    Alcotest.test_case "unroll: factor 1 identity" `Quick test_unroll_identity;
    Alcotest.test_case "builder shapes" `Quick test_builder_shapes;
    Alcotest.test_case "validator: check_exn raises Invalid_config" `Quick
      test_validator_check_exn;
  ]
