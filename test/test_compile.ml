(* Cross-checks: compiled-and-simulated programs must print exactly what the
   KIR reference evaluator prints. *)

open Pf_kir.Build

let check_program ?(name = "program") p =
  let expected = (Pf_kir.Eval.run p).output in
  let image = Pf_armgen.Compile.program p in
  let actual = Pf_armgen.Compile.run image in
  Alcotest.(check string) name expected actual

let test_print_constant () =
  check_program
    (program []
       [ func "main" [] [ print_int (i 42); print_int (i (-7)) ] ])

let test_arith () =
  check_program
    (program []
       [
         func "main" []
           [
             let_ "a" (i 1000);
             let_ "b" (i 37);
             print_int (v "a" +% v "b");
             print_int (v "a" -% v "b");
             print_int (v "a" *% v "b");
             print_int (band (v "a") (v "b"));
             print_int (bor (v "a") (v "b"));
             print_int (bxor (v "a") (v "b"));
             print_int (shl (v "a") (i 3));
             print_int (shr (v "a") (i 2));
             print_int (sar (neg (v "a")) (i 2));
             print_int (bnot (v "a"));
             print_int (neg (v "b"));
           ];
       ])

let test_large_constants () =
  check_program
    (program []
       [
         func "main" []
           [
             print_int (i 0x12345678);
             print_int (i 0xFF00FF00);
             print_int (i 0xFFFFFFFF);
             print_int (i 0x80000000);
             print_int (i 0xFF0);
             print_int (i (-256));
           ];
       ])

let test_division () =
  check_program
    (program []
       [
         func "main" []
           [
             print_int (i 1000 /% i 37);
             print_int (i 1000 %+ i 37);
             print_int (neg (i 1000) /% i 37);
             print_int (neg (i 1000) %+ i 37);
             print_int (i 1000 /% neg (i 37));
             print_int (udiv (i 0xFFFFFFFF) (i 7));
             print_int (urem (i 0xFFFFFFFF) (i 7));
             print_int (i 5 /% i 0);
             print_int (i 5 %+ i 0);
           ];
       ])

let test_control_flow () =
  check_program
    (program []
       [
         func "main" []
           [
             let_ "acc" (i 0);
             for_ "k" (i 0) (i 10)
               [
                 if_ (band (v "k") (i 1) =% i 0)
                   [ set "acc" (v "acc" +% v "k") ]
                   [ set "acc" (v "acc" -% i 1) ];
               ];
             print_int (v "acc");
             let_ "n" (i 100);
             let_ "s" (i 0);
             while_ (v "n" >% i 0)
               [
                 when_ (v "n" =% i 50) [ set "n" (v "n" -% i 1); continue_ ];
                 when_ (v "n" <% i 10) [ break_ ];
                 set "s" (v "s" +% v "n");
                 set "n" (v "n" -% i 1);
               ];
             print_int (v "s");
             print_int (v "n");
           ];
       ])

let test_functions () =
  check_program
    (program []
       [
         func "fib" [ "n" ]
           [
             when_ (v "n" <% i 2) [ ret (v "n") ];
             ret (call "fib" [ v "n" -% i 1 ] +% call "fib" [ v "n" -% i 2 ]);
           ];
         func "sum4" [ "a"; "b"; "c"; "d" ]
           [ ret (v "a" +% v "b" +% v "c" +% v "d") ];
         func "main" []
           [
             print_int (call "fib" [ i 15 ]);
             print_int (call "sum4" [ i 1; i 2; i 3; i 4 ]);
             print_int (call "sum4" [ call "fib" [ i 5 ]; i 10; i 20; i 30 ]);
           ];
       ])

let test_globals_memory () =
  check_program
    (program
       [
         garray "buf" W32 64;
         garray_init "tab" W8 (Array.init 16 (fun k -> (k * 17) land 0xFF));
         garray "half" W16 32;
       ]
       [
         func "main" []
           [
             for_ "k" (i 0) (i 64) [ setidx32 "buf" (v "k") (v "k" *% v "k") ];
             print_int (idx32 "buf" (i 63));
             print_int (idx8 "tab" (i 15));
             setidx16 "half" (i 5) (i 0xBEEF);
             print_int (idx16 "half" (i 5));
             store16 (gaddr "half" +% i 8) (i 0x8000);
             print_int (load16s (gaddr "half" +% i 8));
             setidx8 "tab" (i 0) (i 0x80);
             print_int (load8s (gaddr "tab"));
             print_int (load8u (gaddr "tab"));
           ];
       ])

let test_many_locals () =
  (* more locals than register homes: forces frame slots *)
  let lets =
    List.init 12 (fun k -> let_ (Printf.sprintf "x%d" k) (i ((k * 13) + 1)))
  in
  let sum =
    List.fold_left
      (fun acc k -> acc +% v (Printf.sprintf "x%d" k))
      (i 0) (List.init 12 Fun.id)
  in
  check_program
    (program []
       [ func "main" [] (lets @ [ print_int sum;
                                   for_ "j" (i 0) (i 3)
                                     [ print_int (v "j" *% i 2) ] ]) ])

let test_shift_semantics () =
  check_program
    (program []
       [
         func "main" []
           [
             let_ "x" (i 0x80000001);
             let_ "k" (i 0);
             while_ (v "k" <=% i 40)
               [
                 print_int (shl (v "x") (v "k"));
                 print_int (shr (v "x") (v "k"));
                 print_int (sar (v "x") (v "k"));
                 set "k" (v "k" +% i 7);
               ];
           ];
       ])

let test_print_char () =
  check_program
    (program []
       [
         func "main" []
           [
             print_char (i 104);
             print_char (i 105);
             print_char (i 10);
           ];
       ])

let test_cmp_values () =
  check_program
    (program []
       [
         func "main" []
           [
             let_ "a" (i 5);
             let_ "b" (i 0xFFFFFFFB);
             print_int (v "a" <% v "b");
             print_int (ult (v "a") (v "b"));
             print_int (v "a" >=% v "b");
             print_int (uge (v "a") (v "b"));
             print_int ((v "a" =% v "b") +% (v "a" <>% v "b"));
           ];
       ])

(* Operands evaluate left to right, calls included.  The normalizer
   hoists calls ahead of their statement; a call in a right operand must
   neither run before a left operand's call nor let a left operand's
   load (or a store's address) see its store. *)
let test_operand_order () =
  let p =
    program
      [ garray "g" W32 1; garray "h" W32 8 ]
      [
        func "bump" []
          [ setidx32 "g" (i 0) (idx32 "g" (i 0) +% i 1); ret (idx32 "g" (i 0)) ];
        func "main" []
          [
            print_int (call "bump" [] -% call "bump" []);
            print_int (idx32 "g" (i 0) +% call "bump" []);
            print_int (uge (call "bump" []) (call "bump" []));
            setidx32 "h" (idx32 "g" (i 0)) (call "bump" []);
            print_int (idx32 "h" (i 5));
            print_int (idx32 "h" (i 6));
          ];
      ]
  in
  Alcotest.(check string)
    "reference semantics" "-1\n5\n0\n6\n0\n" (Pf_kir.Eval.run p).output;
  check_program ~name:"compiled" p

(* A generated program whose right-operand call used to be hoisted ahead
   of the left one, so the compiled image printed 2049520861. *)
let test_generated_operand_order () =
  let p =
    Pf_workgen.Generate.program
      ~model:(Pf_workgen.Calibrate.reference ())
      ~seed:400210 ~index:1719
  in
  Alcotest.(check string)
    "reference semantics" "2049571004\n"
    (Pf_kir.Eval.run ~max_steps:50_000_000 p).output;
  Alcotest.(check string)
    "compiled" "2049571004\n"
    (Pf_armgen.Compile.run ~max_steps:50_000_000 (Pf_armgen.Compile.program p))

let tests =
  [
    Alcotest.test_case "print constant" `Quick test_print_constant;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "large constants" `Quick test_large_constants;
    Alcotest.test_case "division runtime" `Quick test_division;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions and recursion" `Quick test_functions;
    Alcotest.test_case "globals and memory widths" `Quick test_globals_memory;
    Alcotest.test_case "frame slots" `Quick test_many_locals;
    Alcotest.test_case "shift semantics" `Quick test_shift_semantics;
    Alcotest.test_case "print char" `Quick test_print_char;
    Alcotest.test_case "comparison values" `Quick test_cmp_values;
    Alcotest.test_case "operand order with side-effecting calls" `Quick
      test_operand_order;
    Alcotest.test_case "operand order: workgen seed 400210 index 1719" `Quick
      test_generated_operand_order;
  ]
