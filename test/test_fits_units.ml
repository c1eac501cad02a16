(* Focused unit tests for the FITS core modules: operation keys, the base
   specification, coverage rules, expansion building blocks, and the
   register-organization analysis. *)

module A = Pf_arm.Insn
module K = Pf_fits.Opkey
module S = Pf_fits.Spec
module M = Pf_fits.Mapping

let dp ?(cond = A.AL) ?(s = false) op rd rn op2 = A.Dp { cond; op; s; rd; rn; op2 }
let imm v = Option.get (A.encode_imm_operand v)

let base_spec = S.base ~dict_head:[| 100; 200; 0xDEADBEEF |] ~reglists:[| [ 4; A.lr ] |]

(* ---- Opkey ---- *)

let test_opkey_two_op_detection () =
  let key i =
    match (K.of_insn i).K.key with
    | K.K_dp { two_op; _ } -> two_op
    | _ -> Alcotest.fail "expected dp key"
  in
  Alcotest.(check bool) "add rd=rn" true (key (dp A.ADD 1 1 (A.Reg 2)));
  Alcotest.(check bool) "add rd<>rn" false (key (dp A.ADD 1 2 (A.Reg 3)));
  Alcotest.(check bool) "commutative rd=rm" true (key (dp A.ADD 3 2 (A.Reg 3)));
  Alcotest.(check bool) "sub rd=rm is NOT two-op" false
    (key (dp A.SUB 3 2 (A.Reg 3)));
  Alcotest.(check bool) "mov always" true (key (dp A.MOV 1 0 (A.Reg 2)));
  Alcotest.(check bool) "cmp always" true (key (dp A.CMP 0 1 (imm 5)))

let test_opkey_shift_amount_in_key () =
  match (K.of_insn (dp A.ADD 1 2 (A.Reg_shift (3, A.LSL, 7)))).K.key with
  | K.K_dp { shape = K.Sh_shift_imm (A.LSL, 7); _ } -> ()
  | _ -> Alcotest.fail "shift amount must be part of the key"

let test_opkey_branch_cond () =
  match K.of_insn (A.B { cond = A.NE; link = false; offset = 0 }) with
  | { K.key = K.K_branch { cond = A.NE; link = false }; cond = A.AL } -> ()
  | _ -> Alcotest.fail "branch carries its condition in the key"

let test_opkey_strings () =
  Alcotest.(check string) "dp name" "add2.rr"
    (K.to_string (K.of_insn (dp A.ADD 1 1 (A.Reg 2))).K.key);
  Alcotest.(check string) "mem name" "ldr.w+i"
    (K.to_string
       (K.of_insn
          (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                   rd = 1; rn = 2; offset = A.Ofs_imm 8; writeback = false }))
       .K.key);
  Alcotest.(check string) "branch name" "b.ne"
    (K.to_string
       (K.of_insn (A.B { cond = A.NE; link = false; offset = 0 })).K.key)

(* ---- base spec ---- *)

let test_base_spec_layout () =
  Alcotest.(check int) "11 groups fixed" 11 base_spec.S.groups_used;
  Alcotest.(check int) "41 base opcodes" 41 (Array.length base_spec.S.ops);
  (* every op sits in a unique slot; operate2 sub-ops share groups 0/1 *)
  let slots = Hashtbl.create 64 in
  Array.iter
    (fun (od : S.opdef) ->
      Alcotest.(check bool) "slot unique" false
        (Hashtbl.mem slots (od.S.group, od.S.sub));
      Hashtbl.add slots (od.S.group, od.S.sub) ())
    base_spec.S.ops;
  Alcotest.(check (option int)) "dictionary lookup" (Some 2)
    (S.dict_index base_spec 0xDEADBEEF);
  Alcotest.(check (option int)) "dictionary miss" None
    (S.dict_index base_spec 42);
  Alcotest.(check (option int)) "register list lookup" (Some 0)
    (S.reglist_index base_spec [ 4; A.lr ])

let test_encoding_fields () =
  let s = base_spec.S.sis in
  (* operate2: group in [15:12], sub in [11:8], rd in [7:4], oprd in [3:0] *)
  let w = S.encode base_spec s.S.add2 ~rc:3 ~ra:0 ~oprd:7 in
  Alcotest.(check int) "operate2 encoding"
    ((s.S.add2.S.group lsl 12) lor (s.S.add2.S.sub lsl 8) lor (3 lsl 4) lor 7)
    w;
  let b = S.encode base_spec s.S.b_al ~rc:0 ~ra:0 ~oprd:0x7FF in
  Alcotest.(check int) "branch disp field" 0x7FF (b land 0xFFF);
  Alcotest.(check bool) "16-bit wide" true (w land lnot 0xFFFF = 0)

(* ---- coverage rules ---- *)

let covered insn = M.covered base_spec insn <> None

let test_base_coverage () =
  Alcotest.(check bool) "mov reg" true (covered (dp A.MOV 1 0 (A.Reg 2)));
  Alcotest.(check bool) "mov imm4" true (covered (dp A.MOV 1 0 (imm 15)));
  Alcotest.(check bool) "mov imm16 uncovered" false
    (covered (dp A.MOV 1 0 (imm 16)));
  Alcotest.(check bool) "mov dict-head imm" true
    (covered (dp A.MOV 1 0 (imm 200)));
  Alcotest.(check bool) "add destructive" true
    (covered (dp A.ADD 1 1 (A.Reg 2)));
  Alcotest.(check bool) "add 3-op uncovered in base" false
    (covered (dp A.ADD 1 2 (A.Reg 3)));
  Alcotest.(check bool) "ldr word small ofs" true
    (covered
       (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                rd = 1; rn = 2; offset = A.Ofs_imm 60; writeback = false }));
  Alcotest.(check bool) "ldr word misaligned ofs uncovered" false
    (covered
       (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                rd = 1; rn = 2; offset = A.Ofs_imm 62; writeback = false }));
  Alcotest.(check bool) "ldr word big ofs uncovered" false
    (covered
       (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                rd = 1; rn = 2; offset = A.Ofs_imm 64; writeback = false }));
  Alcotest.(check bool) "push with known list" true
    (covered (A.Push { cond = A.AL; regs = [ 4; A.lr ] }));
  Alcotest.(check bool) "push with unknown list uncovered" false
    (covered (A.Push { cond = A.AL; regs = [ 5; 6 ] }));
  Alcotest.(check bool) "swi" true
    (covered (A.Swi { cond = A.AL; number = 1 }));
  Alcotest.(check bool) "conditional op uncovered in base" false
    (covered (dp ~cond:A.EQ A.MOV 1 0 (imm 1)))

let test_destructive_shift_rule () =
  (* SIS lsl2.ri holds the amount in the field: requires rd = rm *)
  Alcotest.(check bool) "lsl rd=rm covered" true
    (covered (dp A.MOV 1 0 (A.Reg_shift (1, A.LSL, 3))));
  Alcotest.(check bool) "lsl rd<>rm uncovered" false
    (covered (dp A.MOV 1 0 (A.Reg_shift (2, A.LSL, 3))));
  Alcotest.(check bool) "lsl by reg rd=rm covered" true
    (covered (dp A.MOV 1 0 (A.Reg_shift_reg (1, A.LSL, 4))))

(* ---- expansion plans ---- *)

let plan_len insn = M.plan_length (M.plan base_spec ~pc:0x8000 insn)

let test_expansion_lengths () =
  Alcotest.(check int) "covered is 1" 1 (plan_len (dp A.MOV 1 0 (A.Reg 2)));
  Alcotest.(check int) "3-op add is 2" 2 (plan_len (dp A.ADD 1 2 (A.Reg 3)));
  Alcotest.(check int) "mov big imm is 1 (movD)" 1
    (plan_len (dp A.MOV 1 0 (imm 0xFF00)));
  Alcotest.(check int) "conditional mov is 2 (skip + op)" 2
    (plan_len (dp ~cond:A.EQ A.MOV 1 0 (imm 1)));
  Alcotest.(check int) "big-offset load is 3" 3
    (plan_len
       (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                rd = 1; rn = 2; offset = A.Ofs_imm 4000; writeback = false }));
  Alcotest.(check int) "branches count 1 before layout" 1
    (plan_len (A.B { cond = A.AL; link = false; offset = 0x100000 }))

let test_expansion_micros_preserve_flags () =
  (* an expanded ADDS must still set flags exactly once, on its final step *)
  match M.plan base_spec ~pc:0 (dp ~s:true A.ADD 1 2 (A.Reg 3)) with
  | M.P_seq steps ->
      let sets_flags (fd : M.fdesc) =
        match fd.M.micro with
        | M.M_exec (A.Dp { s; _ }) -> s
        | M.M_dp32 { s; _ } -> s
        | _ -> false
      in
      Alcotest.(check int) "exactly one flag-setting step" 1
        (List.length (List.filter sets_flags steps));
      Alcotest.(check bool) "it is the last step" true
        (sets_flags (List.nth steps (List.length steps - 1)))
  | M.P_branch _ -> Alcotest.fail "not a branch"

let test_skip_encoding () =
  let fd = M.seq_skip base_spec ~cond:A.EQ ~count:3 in
  (match fd.M.micro with
  | M.M_exec (A.B { cond = A.NE; offset = 4; link = false }) -> ()
  | _ -> Alcotest.fail "skip 3 must be B.ne +4 (2*3-2)");
  Alcotest.(check bool) "count > 15 rejected" true
    (try
       ignore (M.seq_skip base_spec ~cond:A.EQ ~count:16);
       false
     with M.Unmappable _ -> true)

(* ---- register organization ---- *)

let test_regfile_analysis () =
  let image =
    Pf_armgen.Compile.program
      (let open Pf_kir.Build in
       program []
         [
           func "main" []
             [
               let_ "a" (i 1);
               let_ "b" (i 2);
               for_ "k" (i 0) (i 100) [ set "a" (v "a" +% v "b") ];
               print_int (v "a");
             ];
         ])
  in
  let counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let profile = Pf_fits.Profile.of_image_counts image ~counts in
  let r = Pf_fits.Regfile.analyze profile in
  Alcotest.(check bool) "uses several registers" true (r.Pf_fits.Regfile.distinct_used >= 4);
  Alcotest.(check bool) "coverage within [0,1]" true
    (r.Pf_fits.Regfile.coverage_top8 >= 0.0
    && r.Pf_fits.Regfile.coverage_top8 <= 1.0);
  Alcotest.(check bool) "hot list well-formed" true
    (List.length r.Pf_fits.Regfile.hot_order = r.Pf_fits.Regfile.distinct_used);
  Alcotest.(check int) "recommendation consistent"
    (if r.Pf_fits.Regfile.feasible_3bit then 3 else 4)
    r.Pf_fits.Regfile.recommended_bits;
  Alcotest.(check bool) "describe renders" true
    (String.length (Pf_fits.Regfile.describe r) > 40)

let tests =
  [
    Alcotest.test_case "opkey: two-op detection" `Quick
      test_opkey_two_op_detection;
    Alcotest.test_case "opkey: shift amount keyed" `Quick
      test_opkey_shift_amount_in_key;
    Alcotest.test_case "opkey: branch condition" `Quick test_opkey_branch_cond;
    Alcotest.test_case "opkey: names" `Quick test_opkey_strings;
    Alcotest.test_case "spec: base layout" `Quick test_base_spec_layout;
    Alcotest.test_case "spec: encoding fields" `Quick test_encoding_fields;
    Alcotest.test_case "mapping: base coverage" `Quick test_base_coverage;
    Alcotest.test_case "mapping: destructive shifts" `Quick
      test_destructive_shift_rule;
    Alcotest.test_case "mapping: expansion lengths" `Quick
      test_expansion_lengths;
    Alcotest.test_case "mapping: flags set once" `Quick
      test_expansion_micros_preserve_flags;
    Alcotest.test_case "mapping: skip instruction" `Quick test_skip_encoding;
    Alcotest.test_case "regfile analysis" `Quick test_regfile_analysis;
  ]
