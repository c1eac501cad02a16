(* Translator-level tests: branch layout and demotion, predication via SK,
   dictionary assignment, instruction packing, and the profile module. *)

module A = Pf_arm.Insn

let build_program p =
  let image = Pf_armgen.Compile.program p in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  (image, Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image)

let run_fits tr = (Pf_fits.Run.run tr).Pf_fits.Run.output

(* a program whose main is long enough that early branches to the end
   exceed the 12-bit near range (+-4 KB) after translation *)
let far_branch_program =
  let open Pf_kir.Build in
  let filler =
    List.concat
      (List.init 40 (fun k ->
           [
             set "acc" (v "acc" +% i (k + 1));
             set "acc" (bxor (v "acc") (shl (v "acc") (i 3)));
             set "acc" (v "acc" -% shr (v "acc") (i 5));
             setidx32 "buf" (band (v "acc") (i 63)) (v "acc");
             set "acc" (v "acc" +% idx32 "buf" (i (k land 63)));
           ]))
  in
  program
    [ garray "buf" W32 64 ]
    [
      func "main" []
        ([ let_ "acc" (i 1);
           (* a conditional branch over the whole body *)
           when_ (v "acc" =% i 0) [ ret (i (-1)) ] ]
        @ filler
        @ [ print_int (v "acc") ]);
    ]

let test_layout_far_branches () =
  (* force far branches by unrolling the body hard *)
  let p = far_branch_program in
  let expected = (Pf_kir.Eval.run p).Pf_kir.Eval.output in
  let image = Pf_armgen.Compile.program ~unroll:16 p in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  Alcotest.(check string) "far layout still correct" expected (run_fits tr)

let test_addr_map_monotonic () =
  let _, tr = build_program far_branch_program in
  let pairs =
    Hashtbl.fold (fun arm fits acc -> (arm, fits) :: acc)
      tr.Pf_fits.Translate.addr_of_arm []
    |> List.sort compare
  in
  let rec monotone = function
    | (_, f1) :: ((_, f2) :: _ as tl) -> f1 < f2 && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "FITS addresses preserve ARM order" true
    (monotone pairs);
  (* every FITS address is 2-byte aligned and in range *)
  Alcotest.(check bool) "alignment" true
    (List.for_all (fun (_, f) -> f land 1 = 0) pairs)

let test_packing_consistent () =
  let _, tr = build_program far_branch_program in
  Array.iteri
    (fun idx (fi : Pf_fits.Translate.finsn) ->
      let word = tr.Pf_fits.Translate.words.(idx / 2) in
      let half = if idx land 1 = 0 then word land 0xFFFF else word lsr 16 in
      if half <> fi.Pf_fits.Translate.word then
        Alcotest.failf "packing mismatch at %d" idx)
    tr.Pf_fits.Translate.insns;
  Alcotest.(check bool) "16-bit encodings" true
    (Array.for_all
       (fun (fi : Pf_fits.Translate.finsn) ->
         fi.Pf_fits.Translate.word land lnot 0xFFFF = 0)
       tr.Pf_fits.Translate.insns)

let test_group_accounting () =
  let _, tr = build_program far_branch_program in
  (* the group structure tiles the instruction stream: every instruction
     is part of exactly one group whose length matches its 'first' flags *)
  let insns = tr.Pf_fits.Translate.insns in
  let i = ref 0 in
  while !i < Array.length insns do
    let fi = insns.(!i) in
    if not fi.Pf_fits.Translate.first then
      Alcotest.failf "expected group start at %d" !i;
    let n = fi.Pf_fits.Translate.group_len in
    for k = 1 to n - 1 do
      if insns.(!i + k).Pf_fits.Translate.first then
        Alcotest.failf "unexpected group start inside group at %d" (!i + k)
    done;
    i := !i + n
  done

let test_dict_indices_in_range () =
  let _, tr = build_program far_branch_program in
  let spec = tr.Pf_fits.Translate.spec in
  Alcotest.(check bool) "dict fits capacity" true
    (Array.length spec.Pf_fits.Spec.dict <= Pf_fits.Spec.dict_capacity)

let test_predication_via_skip () =
  (* build a program rich in conditional moves (Cmp materialization) and
     check exact behaviour *)
  let open Pf_kir.Build in
  let p =
    program []
      [
        func "main" []
          [
            let_ "t" (i 0);
            for_ "k" (i 0) (i 50)
              [
                set "t"
                  (v "t"
                  +% (v "k" <% i 25)
                  +% shl (v "k" >=% i 25) (i 4));
              ];
            print_int (v "t");
          ];
      ]
  in
  let expected = (Pf_kir.Eval.run p).Pf_kir.Eval.output in
  let _, tr = build_program p in
  Alcotest.(check string) "conditional execution preserved" expected
    (run_fits tr)

(* ---- profile module ---- *)

let test_profile_counts () =
  let open Pf_kir.Build in
  let p =
    program []
      [
        func "main" []
          [
            let_ "x" (i 0);
            for_ "k" (i 0) (i 10) [ set "x" (v "x" +% v "k") ];
            print_int (v "x");
          ];
      ]
  in
  let image = Pf_armgen.Compile.program p in
  let counts, out = Pf_fits.Synthesis.dyn_counts_of_run image in
  let profile = Pf_fits.Profile.of_image_counts image ~counts in
  Alcotest.(check string) "profiled run output" "45\n" out;
  Alcotest.(check bool) "dynamic >= static" true
    (profile.Pf_fits.Profile.dyn_insns
    >= profile.Pf_fits.Profile.static_insns);
  (* the ADD in the loop must appear among the heaviest dynamic keys *)
  let heavy = Pf_fits.Profile.keys_by_dyn_weight profile in
  Alcotest.(check bool) "nonempty key ranking" true (List.length heavy > 5);
  let _, top_w = List.hd heavy in
  Alcotest.(check bool) "ranking is sorted" true
    (List.for_all (fun (_, w) -> w <= top_w) heavy);
  (* registers_by_use mentions all 16 *)
  Alcotest.(check int) "register ranking complete" 16
    (List.length (Pf_fits.Profile.registers_by_use profile));
  Alcotest.(check bool) "summary renders" true
    (String.length (Pf_fits.Profile.summary profile) > 100)

let test_static_profile_of_image () =
  let image =
    Pf_armgen.Compile.program
      (let open Pf_kir.Build in
       program [] [ func "main" [] [ print_int (i 1) ] ])
  in
  let profile = Pf_fits.Profile.of_image image in
  Alcotest.(check int) "no dynamic weight" 0
    profile.Pf_fits.Profile.dyn_insns;
  Alcotest.(check bool) "static instructions counted" true
    (profile.Pf_fits.Profile.static_insns > 5)

let test_static_only_synthesis () =
  (* the paper's flow uses profile data, but static-only synthesis (all
     dynamic counts zero) must still produce a working ISA *)
  let open Pf_kir.Build in
  let p =
    program
      [ garray "g" W32 16 ]
      [
        func "main" []
          [
            for_ "k" (i 0) (i 16) [ setidx32 "g" (v "k") (v "k" *% v "k") ];
            let_ "s" (i 0);
            for_ "k" (i 0) (i 16) [ set "s" (v "s" +% idx32 "g" (v "k")) ];
            print_int (v "s");
          ];
      ]
  in
  let expected = (Pf_kir.Eval.run p).Pf_kir.Eval.output in
  let image = Pf_armgen.Compile.program p in
  let zeros = Array.make (Array.length image.Pf_arm.Image.words) 0 in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts:zeros in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  Alcotest.(check string) "static-only ISA executes" expected (run_fits tr)

let tests =
  [
    Alcotest.test_case "far branch layout" `Quick test_layout_far_branches;
    Alcotest.test_case "address map monotone" `Quick test_addr_map_monotonic;
    Alcotest.test_case "word packing" `Quick test_packing_consistent;
    Alcotest.test_case "group accounting" `Quick test_group_accounting;
    Alcotest.test_case "dictionary bounds" `Quick test_dict_indices_in_range;
    Alcotest.test_case "predication via skip" `Quick
      test_predication_via_skip;
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
    Alcotest.test_case "static profile" `Quick test_static_profile_of_image;
    Alcotest.test_case "static-only synthesis" `Quick
      test_static_only_synthesis;
  ]
