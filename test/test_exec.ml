(* Architectural-semantics tests for the interpreter: flags, shifter,
   conditional execution, memory widths, the 16-bit (isize=2) mode the
   FITS runner depends on, and the paged memory against a flat one. *)

module A = Pf_arm.Insn
module E = Pf_arm.Exec

(* A tiny sandbox state: assemble the given instructions into an image. *)
let state_of insns =
  let words = Array.of_list (List.map Pf_arm.Encode.encode insns) in
  let image = Pf_arm.Image.make ~entry:0x8000 words in
  E.create image

let exec_one st ~pc insn =
  let o = E.outcome () in
  E.execute st ~pc insn o;
  o

let dp ?(cond = A.AL) ?(s = false) op rd rn op2 =
  A.Dp { cond; op; s; rd; rn; op2 }

let imm v = Option.get (A.encode_imm_operand v)

let nop = dp A.MOV 0 0 (A.Reg 0)

let fresh () = state_of [ nop ]

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_add_flags () =
  let st = fresh () in
  st.E.regs.(1) <- 0xFFFFFFFF;
  st.E.regs.(2) <- 1;
  ignore (exec_one st ~pc:0x8000 (dp ~s:true A.ADD 0 1 (A.Reg 2)));
  check_int "wraps" 0 st.E.regs.(0);
  check_bool "Z set" true st.E.zf;
  check_bool "C set (carry out)" true st.E.cf;
  check_bool "V clear" false st.E.vf;
  (* signed overflow: MAX_INT + 1 *)
  st.E.regs.(1) <- 0x7FFFFFFF;
  st.E.regs.(2) <- 1;
  ignore (exec_one st ~pc:0x8000 (dp ~s:true A.ADD 0 1 (A.Reg 2)));
  check_bool "V set" true st.E.vf;
  check_bool "N set" true st.E.nf;
  check_bool "C clear" false st.E.cf

let test_sub_flags () =
  let st = fresh () in
  st.E.regs.(1) <- 5;
  ignore (exec_one st ~pc:0x8000 (dp A.CMP 0 1 (imm 5)));
  check_bool "Z on equal" true st.E.zf;
  check_bool "C = no borrow" true st.E.cf;
  ignore (exec_one st ~pc:0x8000 (dp A.CMP 0 1 (imm 6)));
  check_bool "borrow clears C" false st.E.cf;
  check_bool "N set" true st.E.nf

let test_conditions () =
  let st = fresh () in
  (* after cmp 1, 2 (1 < 2 signed and unsigned) *)
  st.E.regs.(1) <- 1;
  ignore (exec_one st ~pc:0x8000 (dp A.CMP 0 1 (imm 2)));
  let passes cond =
    let o = exec_one st ~pc:0x8000 (dp ~cond A.MOV 3 0 (imm 1)) in
    o.E.executed
  in
  check_bool "LT passes" true (passes A.LT);
  check_bool "GE fails" false (passes A.GE);
  check_bool "CC passes (unsigned <)" true (passes A.CC);
  check_bool "HI fails" false (passes A.HI);
  check_bool "NE passes" true (passes A.NE);
  check_bool "EQ fails" false (passes A.EQ);
  check_bool "AL passes" true (passes A.AL)

let test_shifter_semantics () =
  let st = fresh () in
  st.E.regs.(1) <- 0x80000001;
  let run op2 =
    ignore (exec_one st ~pc:0x8000 (dp A.MOV 0 0 op2));
    st.E.regs.(0)
  in
  check_int "lsl 1" 2 (run (A.Reg_shift (1, A.LSL, 1)));
  check_int "lsr 1" 0x40000000 (run (A.Reg_shift (1, A.LSR, 1)));
  check_int "asr 1" 0xC0000000 (run (A.Reg_shift (1, A.ASR, 1)));
  check_int "ror 1" 0xC0000000 (run (A.Reg_shift (1, A.ROR, 1)));
  (* shift by register: amount >= 32 saturates *)
  st.E.regs.(2) <- 33;
  check_int "lsl by 33" 0 (run (A.Reg_shift_reg (1, A.LSL, 2)));
  check_int "asr by 33" 0xFFFFFFFF (run (A.Reg_shift_reg (1, A.ASR, 2)));
  st.E.regs.(2) <- 0x100;
  (* only the low byte of the amount register counts *)
  check_int "amount masked to low byte" 0x80000001
    (run (A.Reg_shift_reg (1, A.LSL, 2)))

let test_mul () =
  let st = fresh () in
  st.E.regs.(1) <- 100000;
  st.E.regs.(2) <- 100000;
  ignore
    (exec_one st ~pc:0x8000
       (A.Mul { cond = A.AL; s = false; rd = 0; rm = 1; rs = 2; acc = None }));
  check_int "mul wraps to u32" (Pf_util.Bits.u32 10_000_000_000)
    st.E.regs.(0);
  st.E.regs.(3) <- 7;
  ignore
    (exec_one st ~pc:0x8000
       (A.Mul { cond = A.AL; s = false; rd = 0; rm = 1; rs = 2; acc = Some 3 }));
  check_int "mla adds" (Pf_util.Bits.u32 10_000_000_007) st.E.regs.(0)

let test_memory_widths () =
  let st = fresh () in
  let base = 0x20_0000 in
  st.E.regs.(1) <- base;
  st.E.regs.(2) <- 0x8081_8283;
  let mem ?(signed = false) ~load width rd ofs =
    A.Mem { cond = A.AL; load; width; signed; rd; rn = 1;
            offset = A.Ofs_imm ofs; writeback = false }
  in
  ignore (exec_one st ~pc:0x8000 (mem ~load:false A.Word 2 0));
  ignore (exec_one st ~pc:0x8000 (mem ~load:true A.Word 3 0));
  check_int "word round-trip" 0x8081_8283 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true A.Byte 3 0));
  check_int "little-endian byte" 0x83 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true ~signed:true A.Byte 3 0));
  check_int "signed byte" 0xFFFFFF83 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true A.Half 3 2));
  check_int "high half" 0x8081 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true ~signed:true A.Half 3 2));
  check_int "signed half" 0xFFFF8081 st.E.regs.(3)

let test_unaligned_faults () =
  let st = fresh () in
  st.E.regs.(1) <- 0x20_0001;
  check_bool "unaligned word load faults" true
    (try
       ignore
         (exec_one st ~pc:0x8000
            (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                     rd = 0; rn = 1; offset = A.Ofs_imm 0; writeback = false }));
       false
     with
       Pf_util.Sim_error.Error { kind = Pf_util.Sim_error.Memory_fault; _ } ->
         true)

let test_push_pop () =
  let st = fresh () in
  let sp0 = st.E.regs.(A.sp) in
  st.E.regs.(4) <- 44;
  st.E.regs.(5) <- 55;
  let o = exec_one st ~pc:0x8000 (A.Push { cond = A.AL; regs = [ 4; 5 ] }) in
  check_int "sp dropped" (sp0 - 8) st.E.regs.(A.sp);
  check_int "two words moved" 2 o.E.mem_words;
  st.E.regs.(4) <- 0;
  st.E.regs.(5) <- 0;
  ignore (exec_one st ~pc:0x8000 (A.Pop { cond = A.AL; regs = [ 4; 5 ] }));
  check_int "sp restored" sp0 st.E.regs.(A.sp);
  check_int "r4 restored" 44 st.E.regs.(4);
  check_int "r5 restored" 55 st.E.regs.(5)

let test_pop_pc_branches () =
  let st = fresh () in
  st.E.regs.(0) <- 0x9000;
  ignore (exec_one st ~pc:0x8000 (A.Push { cond = A.AL; regs = [ 0 ] }));
  let o = exec_one st ~pc:0x8000 (A.Pop { cond = A.AL; regs = [ A.pc ] }) in
  check_bool "taken" true o.E.branch_taken;
  check_int "target" 0x9000 o.E.next_pc

let test_branch_semantics () =
  let st = fresh () in
  let o =
    exec_one st ~pc:0x8000 (A.B { cond = A.AL; link = true; offset = 0x100 })
  in
  check_int "target is pc+8+offset" (0x8000 + 8 + 0x100) o.E.next_pc;
  check_int "lr is return address" 0x8004 st.E.regs.(A.lr);
  (* 16-bit mode: FITS semantics *)
  let o2 = E.outcome () in
  E.execute ~isize:2 st ~pc:0x8000
    (A.B { cond = A.AL; link = true; offset = 0x100 })
    o2;
  check_int "fits target is pc+4+offset" (0x8000 + 4 + 0x100) o2.E.next_pc;
  check_int "fits lr is pc+2" 0x8002 st.E.regs.(A.lr)

let test_pc_reads_plus8 () =
  let st = fresh () in
  ignore (exec_one st ~pc:0x8000 (dp A.MOV 0 0 (A.Reg A.pc)));
  check_int "reading pc yields pc+8" 0x8008 st.E.regs.(0)

let test_dp_value_entry_point () =
  let st = fresh () in
  st.E.regs.(1) <- 10;
  let o = E.outcome () in
  E.execute_dp_value ~isize:2 st ~pc:0x8000 ~cond:A.AL ~op:A.ADD ~s:false
    ~rd:0 ~rn:1 ~value:0x12345678 o;
  check_int "dict operand applied" (0x12345678 + 10) st.E.regs.(0);
  check_int "falls through by 2" 0x8002 o.E.next_pc;
  (* flags with s *)
  E.execute_dp_value ~isize:2 st ~pc:0x8000 ~cond:A.AL ~op:A.SUB ~s:true
    ~rd:0 ~rn:1 ~value:10 o;
  check_bool "Z from dict sub" true st.E.zf

let test_swi_output () =
  let st = fresh () in
  st.E.regs.(0) <- 0xFFFFFFFF;
  ignore (exec_one st ~pc:0x8000 (A.Swi { cond = A.AL; number = 1 }));
  st.E.regs.(0) <- Char.code 'x';
  ignore (exec_one st ~pc:0x8000 (A.Swi { cond = A.AL; number = 2 }));
  Alcotest.(check string) "print int then char" "-1\nx" (E.output st);
  ignore (exec_one st ~pc:0x8000 (A.Swi { cond = A.AL; number = 0 }));
  check_bool "swi 0 halts" true st.E.halted

let test_scratch_register () =
  let st = fresh () in
  ignore (exec_one st ~pc:0x8000 (dp A.MOV 16 0 (imm 77)));
  check_int "r16 exists" 77 st.E.regs.(16);
  ignore (exec_one st ~pc:0x8000 (dp A.ADD 0 16 (A.Reg 16)));
  check_int "r16 readable" 154 st.E.regs.(0)

let test_run_halts_on_sentinel () =
  (* mov r0, #7; swi 1; bx lr -> prints then returns to the sentinel *)
  let st =
    state_of
      [
        dp A.MOV 0 0 (imm 7);
        A.Swi { cond = A.AL; number = 1 };
        A.Bx { cond = A.AL; rm = A.lr };
      ]
  in
  E.run st ~on_step:(fun _ ~pc:_ _ _ -> ());
  Alcotest.(check string) "ran to sentinel" "7\n" (E.output st);
  check_int "three instructions" 3 st.E.steps

let test_step_budget () =
  (* b . -> infinite loop; the budget must trip *)
  let st = state_of [ A.B { cond = A.AL; link = false; offset = -8 } ] in
  check_bool "budget exhausts" true
    (try
       E.run ~max_steps:1000 st ~on_step:(fun _ ~pc:_ _ _ -> ());
       false
     with
       Pf_util.Sim_error.Error
         { kind = Pf_util.Sim_error.Watchdog_timeout; _ } ->
         true)

(* ---- paged memory == flat memory -------------------------------------- *)

(* The reference: one flat [Bytes.t] of [mem_size] bytes, loaded from the
   image word by word and checked in the same order as [Exec], raising
   the same errors. *)
module Flat = struct
  let fault fmt =
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Memory_fault ~where:"arm.exec"
      fmt

  let of_image (image : Pf_arm.Image.t) =
    let m = Bytes.make image.mem_size '\000' in
    let poke addr w =
      Bytes.set_int32_le m addr (Int32.of_int (Pf_util.Bits.u32 w))
    in
    Array.iteri (fun i w -> poke (image.code_base + (i * 4)) w) image.words;
    List.iter
      (fun (addr, ws) -> Array.iteri (fun i w -> poke (addr + (i * 4)) w) ws)
      image.data_init;
    m

  let checked m what ~align addr len =
    if addr land (align - 1) <> 0 then
      fault "unaligned %s: 0x%x" what addr;
    if addr < 0 || addr + len > Bytes.length m then
      fault "memory access out of range: 0x%x" addr

  let load m (w : A.mem_width) addr =
    match w with
    | Byte ->
        checked m "byte load" ~align:1 addr 1;
        Char.code (Bytes.get m addr)
    | Half ->
        checked m "half load" ~align:2 addr 2;
        Bytes.get_uint16_le m addr
    | Word ->
        checked m "word load" ~align:4 addr 4;
        Int32.to_int (Bytes.get_int32_le m addr) land 0xFFFF_FFFF

  let store m (w : A.mem_width) addr v =
    match w with
    | Byte ->
        checked m "byte store" ~align:1 addr 1;
        Bytes.set m addr (Char.chr (v land 0xFF))
    | Half ->
        checked m "half store" ~align:2 addr 2;
        Bytes.set_uint16_le m addr (v land 0xFFFF)
    | Word ->
        checked m "word store" ~align:4 addr 4;
        Bytes.set_int32_le m addr (Int32.of_int (Pf_util.Bits.u32 v))
end

let paged_load st (w : A.mem_width) addr =
  match w with
  | Byte -> E.load_byte st addr
  | Half -> E.load_half st addr
  | Word -> E.load_word st addr

let paged_store st (w : A.mem_width) addr v =
  match w with
  | Byte -> E.store_byte st addr v
  | Half -> E.store_half st addr v
  | Word -> E.store_word st addr v

(* A value, or a fault's kind, [where] and message. *)
let attempt f =
  match f () with
  | v -> Ok v
  | exception Pf_util.Sim_error.Error e -> Error (e.kind, e.where, e.detail)

let code = Array.init 8 (fun _ -> Pf_arm.Encode.encode nop)

(* The default 8 MB layout, and a small one whose [mem_size] is odd and a
   multiple of no page size, with a data blob that is unaligned and
   straddles a 4 KB boundary. *)
let mem_images =
  [|
    Pf_arm.Image.make ~entry:0x8000
      ~data_init:[ (0x10_0000, [| 0xdeadbeef; 0x01020304 |]) ]
      code;
    Pf_arm.Image.make ~code_base:0x100 ~data_base:0x2000
      ~mem_size:(0x5000 + 13) ~entry:0x100
      ~data_init:[ (0x2000, [| 0xcafebabe |]);
                   (0x2ffe, [| 0x11223344; 0x55667788 |]) ]
      code;
  |]

type mem_op = { store : bool; width : A.mem_width; addr : int; value : int }

let width_name : A.mem_width -> string = function
  | Byte -> "byte" | Half -> "half" | Word -> "word"

let print_case (img, ops) =
  Printf.sprintf "image %d: %s" img
    (String.concat "; "
       (List.map
          (fun o ->
            Printf.sprintf "%s %s 0x%x%s"
              (if o.store then "store" else "load")
              (width_name o.width) o.addr
              (if o.store then Printf.sprintf " <- 0x%x" o.value else ""))
          ops))

(* Addresses cluster around page boundaries of either candidate size, the
   segments and the last bytes of memory, so stores and loads overlap and
   the edge checks fire; a share falls anywhere in range or below zero. *)
let addr_gen size =
  let open QCheck.Gen in
  let anchors =
    List.filter (fun a -> a <= size)
      [ 0; 0x100; 0x1000; 0x2000; 0x3000; 0x8000; 0x10000; 0x10_0000;
        size - 16; size ]
  in
  frequency
    [
      (6, map2 ( + ) (oneofl anchors) (int_range (-8) 8));
      (2, int_bound (size - 1));
      (1, oneofl [ -1; -2; -4; -4096; min_int / 2 ]);
    ]

let case_gen =
  let open QCheck.Gen in
  int_bound (Array.length mem_images - 1) >>= fun img ->
  let size = mem_images.(img).mem_size in
  let op =
    map4
      (fun store width addr value -> { store; width; addr; value })
      bool
      (oneofl [ A.Byte; A.Half; A.Word ])
      (addr_gen size) int
  in
  map (fun ops -> (img, ops)) (list_size (int_range 1 120) op)

let prop_paged_equals_flat =
  QCheck.Test.make ~name:"paged memory == flat memory" ~count:300
    (QCheck.make ~print:print_case case_gen)
    (fun (img, ops) ->
      let image = mem_images.(img) in
      let st = E.create image and flat = Flat.of_image image in
      let same what a b =
        if a <> b then
          QCheck.Test.fail_reportf "%s: paged and flat memories differ" what;
        true
      in
      List.for_all
        (fun o ->
          if o.store then
            same "store"
              (attempt (fun () -> paged_store st o.width o.addr o.value))
              (attempt (fun () -> Flat.store flat o.width o.addr o.value))
          else
            same "load"
              (attempt (fun () -> paged_load st o.width o.addr))
              (attempt (fun () -> Flat.load flat o.width o.addr)))
        ops
      (* then every byte near an access, and the whole small image *)
      && List.for_all
           (fun a ->
             same (Printf.sprintf "byte 0x%x" a)
               (attempt (fun () -> E.load_byte st a))
               (attempt (fun () -> Flat.load flat Byte a)))
           (if image.mem_size < 0x10000 then List.init image.mem_size Fun.id
            else
              List.concat_map
                (fun o -> List.init 16 (fun d -> o.addr - 8 + d))
                ops))

(* A first store to an unwritten page must not write the page every
   unwritten slot shares: neither another state nor a later one may see
   it. *)
let test_no_zero_page_aliasing () =
  let image = Pf_arm.Image.make ~entry:0x8000 code in
  let a = E.create image and b = E.create image in
  E.store_word a 0x40_0000 0xcafebabe;
  E.store_half a 0x50_0006 0xbeef;
  E.store_byte a 0x60_000b 0x5a;
  check_int "the writer reads its word" 0xcafebabe (E.load_word a 0x40_0000);
  check_int "the writer reads its half" 0xbeef (E.load_half a 0x50_0006);
  check_int "the writer reads its byte" 0x5a (E.load_byte a 0x60_000b);
  let unseen name st =
    check_int (name ^ ": word unseen") 0 (E.load_word st 0x40_0000);
    check_int (name ^ ": half unseen") 0 (E.load_half st 0x50_0006);
    check_int (name ^ ": byte unseen") 0 (E.load_byte st 0x60_000b)
  in
  unseen "sibling state" b;
  unseen "later state" (E.create image);
  check_int "an unwritten page of the writer stays zero" 0
    (E.load_word a 0x70_0000)

let tests =
  [
    Alcotest.test_case "add flags" `Quick test_add_flags;
    Alcotest.test_case "sub/cmp flags" `Quick test_sub_flags;
    Alcotest.test_case "all condition codes" `Quick test_conditions;
    Alcotest.test_case "barrel shifter" `Quick test_shifter_semantics;
    Alcotest.test_case "mul/mla" `Quick test_mul;
    Alcotest.test_case "memory widths" `Quick test_memory_widths;
    Alcotest.test_case "unaligned access faults" `Quick test_unaligned_faults;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "pop into pc" `Quick test_pop_pc_branches;
    Alcotest.test_case "branch and link, both isizes" `Quick
      test_branch_semantics;
    Alcotest.test_case "pc reads as pc+8" `Quick test_pc_reads_plus8;
    Alcotest.test_case "dictionary-operand entry point" `Quick
      test_dp_value_entry_point;
    Alcotest.test_case "swi output and halt" `Quick test_swi_output;
    Alcotest.test_case "over-provisioned r16" `Quick test_scratch_register;
    Alcotest.test_case "run halts on sentinel" `Quick
      test_run_halts_on_sentinel;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    QCheck_alcotest.to_alcotest prop_paged_equals_flat;
    Alcotest.test_case "no aliasing through the zero page" `Quick
      test_no_zero_page_aliasing;
  ]
