(* Micro-op compiler: predecode once, execute without allocating.

   [Exec.execute] re-derives per *dynamic* step facts that only depend on
   the *static* instruction: the rotated immediate and its carry mode, the
   shifter configuration, push/pop register lists (walked as OCaml lists,
   with [List.length] per execution), the branch target, the fall-through
   pc, and the pipeline metadata.  It also allocates on every step — the
   [(value, carry)] tuple of [operand2]/[shift_value_carry] and the
   [write_rd] closure built inside each [execute] call.

   This module compiles each static instruction once into a flat [uop]
   record of immediates (ints, constant constructors, one int array for
   register lists), then executes it with zero per-step heap allocation:
   the shifter returns value and carry packed into one tagged int (carry in
   bit 32, value in bits 0-31), and the destination write is a plain
   function call.  Flag and memory semantics are shared with [Exec]
   ([add_with_flags], [set_nz], the load/store helpers), and the
   differential tests assert bit-identical results against the reference
   interpreter on the full benchmark suite. *)

open Pf_util

let where = "arm.exec"

let decode_fault fmt = Sim_error.raisef Sim_error.Decode_fault ~where fmt

(* Dispatch codes, ordered roughly by dynamic frequency. *)
let k_dp_imm = 0       (* operand2 = resolved immediate *)
let k_dp_reg = 1       (* operand2 = register (incl. shift-by-0) *)
let k_dp_shift_imm = 2 (* operand2 = register, constant shift *)
let k_dp_shift_reg = 3 (* operand2 = register shifted by register *)
let k_mem = 4          (* load/store, immediate offset *)
let k_mem_reg = 5      (* load/store, shifted-register offset *)
let k_mul = 6
let k_push = 7
let k_pop = 8
let k_b = 9
let k_bx = 10
let k_swi = 11
let k_jalr = 12        (* FITS return-branch micro-op *)
let k_undef = 13
let code_undef = k_undef

(* Pipeline class codes; same numbering as [Pf_cpu.Trace.cls_code]. *)
let cls_alu = 0
let cls_mul = 1
let cls_load = 2
let cls_store = 3
let cls_branch = 4
let cls_system = 5

type uop = {
  code : int;
  cond : Insn.cond;
  op : Insn.dp_op;          (* DP only *)
  s : bool;
  rd : int;
  rn : int;
  rm : int;
  rs : int;
  kind : Insn.shift_kind;
  amount : int;             (* constant shift amount *)
  imm : int;                (* resolved DP immediate / mem offset / swi # *)
  carry : int;              (* DP immediate carry: -1 = keep C, else 0/1 *)
  load : bool;
  width : Insn.mem_width;
  signed : bool;
  writeback : bool;
  link : bool;
  acc : int;                (* MLA accumulator register, -1 = none *)
  rlist : int array;        (* push/pop registers *)
  nregs : int;
  target : int;             (* resolved B target (pc + 2*isize + offset) *)
  fall : int;               (* pc + isize *)
  pc8 : int;                (* u32 (pc + 8): the value r15 reads as *)
  lr_val : int;             (* return address stored by BL / JALR *)
  align : int;              (* lnot (isize - 1): pc alignment mask *)
  src_pc : int;
  (* static pipeline metadata (shared by the ARM and FITS runners) *)
  cls : int;
  reads : int;
  writes : int;
  backward : bool;
  why : string;             (* undef diagnostic *)
}

type program = {
  uops : uop array;
  code_base : int;
  entry : int;
}

(* ---- predecode --------------------------------------------------------- *)

let base ~isize ~pc =
  {
    code = k_undef; cond = Insn.AL; op = Insn.AND; s = false; rd = 0; rn = 0;
    rm = 0; rs = 0; kind = Insn.LSL; amount = 0; imm = 0; carry = -1;
    load = false; width = Insn.Word; signed = false; writeback = false;
    link = false; acc = -1; rlist = [||]; nregs = 0; target = 0;
    fall = pc + isize; pc8 = Bits.u32 (pc + 8); lr_val = Bits.u32 (pc + isize);
    align = lnot (isize - 1); src_pc = pc; cls = cls_alu; reads = 0;
    writes = 0; backward = false; why = "";
  }

let classify_code (i : Insn.t) =
  match i with
  | Insn.B _ | Insn.Bx _ -> cls_branch
  | Insn.Mul _ -> cls_mul
  | Insn.Mem { load = true; _ } | Insn.Pop _ -> cls_load
  | Insn.Mem { load = false; _ } | Insn.Push _ -> cls_store
  | Insn.Swi _ -> cls_system
  | Insn.Dp _ -> if Insn.writes_pc i then cls_branch else cls_alu

let of_insn ~isize ~pc (i : Insn.t) =
  let b = base ~isize ~pc in
  let u =
    match i with
    | Insn.Dp { cond; op; s; rd; rn; op2 } -> (
        let t = { b with cond; op; s; rd; rn } in
        match op2 with
        | Insn.Imm { value; rot } ->
            let v = Bits.rotate_right32 value (2 * rot) in
            (* rot = 0 keeps the current C flag; otherwise the carry-out
               is bit 31 of the rotated constant — resolved here, once *)
            let carry =
              if rot = 0 then -1
              else if v land 0x8000_0000 <> 0 then 1
              else 0
            in
            { t with code = k_dp_imm; imm = v; carry }
        | Insn.Reg r -> { t with code = k_dp_reg; rm = r }
        | Insn.Reg_shift (r, _, 0) ->
            (* shift by 0 is the identity with carry = C: a plain register *)
            { t with code = k_dp_reg; rm = r }
        | Insn.Reg_shift (r, kind, amount) ->
            { t with code = k_dp_shift_imm; rm = r; kind; amount }
        | Insn.Reg_shift_reg (r, kind, rs) ->
            { t with code = k_dp_shift_reg; rm = r; kind; rs })
    | Insn.Mul { cond; s; rd; rm; rs; acc } ->
        { b with code = k_mul; cond; s; rd; rm; rs;
          acc = (match acc with Some r -> r | None -> -1) }
    | Insn.Mem { cond; load; width; signed; rd; rn; offset; writeback } -> (
        let t = { b with cond; load; width; signed; rd; rn; writeback } in
        match offset with
        | Insn.Ofs_imm n -> { t with code = k_mem; imm = n }
        | Insn.Ofs_reg (r, kind, amount) ->
            { t with code = k_mem_reg; rm = r; kind; amount })
    | Insn.Push { cond; regs } ->
        { b with code = k_push; cond; rlist = Array.of_list regs;
          nregs = List.length regs }
    | Insn.Pop { cond; regs } ->
        { b with code = k_pop; cond; rlist = Array.of_list regs;
          nregs = List.length regs }
    | Insn.B { cond; link; offset } ->
        { b with code = k_b; cond; link;
          target = Bits.u32 (pc + (2 * isize) + offset) }
    | Insn.Bx { cond; rm } -> { b with code = k_bx; cond; rm }
    | Insn.Swi { cond; number } -> { b with code = k_swi; cond; imm = number }
  in
  { u with cls = classify_code i; reads = Insn.read_mask i;
    writes = Insn.write_mask i;
    backward = (match i with Insn.B { offset; _ } -> offset < 0 | _ -> false) }

(* FITS micro-op whose operand2 comes from the immediate dictionary:
   semantics of [Exec.execute_dp_value] (shifter carry = current C).
   Class and masks mirror the FITS runner's historical metadata: always
   [Alu], destination counted even for compare ops. *)
let dp_value ~isize ~pc ~cond ~op ~s ~rd ~rn ~value =
  { (base ~isize ~pc) with
    code = k_dp_imm; cond; op; s; rd; rn; imm = Bits.u32 value; carry = -1;
    cls = cls_alu;
    reads = (match op with Insn.MOV | Insn.MVN -> 0 | _ -> Insn.reg_bit rn);
    writes = Insn.reg_bit rd }

(* FITS expansion-group return branch: lr := pc + 2, pc := rm & ~1. *)
let jalr ~pc ~rm =
  { (base ~isize:2 ~pc) with
    code = k_jalr; rm; lr_val = pc + 2; cls = cls_branch;
    reads = Insn.reg_bit rm; writes = Insn.reg_bit Insn.lr }

let undef ~isize ~pc ~why = { (base ~isize ~pc) with code = k_undef; why }

let compile (image : Image.t) =
  let cb = image.Image.code_base in
  {
    uops =
      Array.mapi
        (fun idx mi ->
          let pc = cb + (4 * idx) in
          match mi with
          | Some i -> of_insn ~isize:4 ~pc i
          | None -> undef ~isize:4 ~pc ~why:"data word")
        image.Image.insns;
    code_base = cb;
    entry = image.Image.entry;
  }

(* ---- execution --------------------------------------------------------- *)

(* Barrel shifter with the carry packed into bit 32 of the result — the
   allocation-free equivalent of [Exec.shift_value_carry], branch for
   branch. *)
let cbit = 1 lsl 32

let[@inline] pack v c = if c then v lor cbit else v

let shift_pack cf x kind amount =
  if amount = 0 then pack x cf
  else
    match (kind : Insn.shift_kind) with
    | Insn.LSL ->
        if amount > 32 then 0
        else if amount = 32 then pack 0 (x land 1 = 1)
        else pack (Bits.u32 (x lsl amount)) (x land (1 lsl (32 - amount)) <> 0)
    | Insn.LSR ->
        if amount > 32 then 0
        else if amount = 32 then pack 0 (x land 0x8000_0000 <> 0)
        else pack (x lsr amount) (x land (1 lsl (amount - 1)) <> 0)
    | Insn.ASR ->
        let s = Bits.to_signed32 x in
        if amount >= 32 then pack (if s < 0 then 0xFFFF_FFFF else 0) (s < 0)
        else pack (Bits.u32 (s asr amount)) (x land (1 lsl (amount - 1)) <> 0)
    | Insn.ROR ->
        let amount = amount land 31 in
        if amount = 0 then pack x (x land 0x8000_0000 <> 0)
        else
          pack (Bits.rotate_right32 x amount)
            (x land (1 lsl (amount - 1)) <> 0)

let[@inline] shift_val x kind amount =
  shift_pack false x kind amount land 0xFFFF_FFFF

(* Reading r15 yields pc + 8, as in [Exec.read_reg]. *)
let[@inline] rr (st : Exec.t) u r =
  if r = 15 then u.pc8 else st.Exec.regs.(r)

(* Destination write: rd = pc redirects (aligned), like the [write_rd]
   closure [Exec.execute] builds per call — here a static function. *)
let[@inline] wr (st : Exec.t) (o : Exec.outcome) align rd v =
  if rd = 15 then begin
    o.Exec.branch_taken <- true;
    o.Exec.next_pc <- Bits.u32 v land align
  end
  else st.Exec.regs.(rd) <- Bits.u32 v

(* [Exec.dp_apply] with the write inlined (no closures). *)
let dp (st : Exec.t) (o : Exec.outcome) u a b sc =
  match u.op with
  | Insn.AND ->
      let r = a land b in
      if u.s then begin Exec.set_nz st r; st.Exec.cf <- sc end;
      wr st o u.align u.rd r
  | Insn.EOR ->
      let r = a lxor b in
      if u.s then begin Exec.set_nz st r; st.Exec.cf <- sc end;
      wr st o u.align u.rd r
  | Insn.ORR ->
      let r = a lor b in
      if u.s then begin Exec.set_nz st r; st.Exec.cf <- sc end;
      wr st o u.align u.rd r
  | Insn.BIC ->
      let r = a land lnot b land 0xFFFF_FFFF in
      if u.s then begin Exec.set_nz st r; st.Exec.cf <- sc end;
      wr st o u.align u.rd r
  | Insn.MOV ->
      if u.s then begin Exec.set_nz st b; st.Exec.cf <- sc end;
      wr st o u.align u.rd b
  | Insn.MVN ->
      let r = Bits.u32 (lnot b) in
      if u.s then begin Exec.set_nz st r; st.Exec.cf <- sc end;
      wr st o u.align u.rd r
  | Insn.ADD -> wr st o u.align u.rd (Exec.add_with_flags st ~set_flags:u.s a b 0)
  | Insn.ADC ->
      wr st o u.align u.rd
        (Exec.add_with_flags st ~set_flags:u.s a b (Bool.to_int st.Exec.cf))
  | Insn.SUB -> wr st o u.align u.rd (Exec.sub_with_flags st ~set_flags:u.s a b 1)
  | Insn.RSB -> wr st o u.align u.rd (Exec.sub_with_flags st ~set_flags:u.s b a 1)
  | Insn.SBC ->
      wr st o u.align u.rd
        (Exec.sub_with_flags st ~set_flags:u.s a b (Bool.to_int st.Exec.cf))
  | Insn.RSC ->
      wr st o u.align u.rd
        (Exec.sub_with_flags st ~set_flags:u.s b a (Bool.to_int st.Exec.cf))
  | Insn.TST ->
      let r = a land b in
      Exec.set_nz st r;
      st.Exec.cf <- sc
  | Insn.TEQ ->
      let r = a lxor b in
      Exec.set_nz st r;
      st.Exec.cf <- sc
  | Insn.CMP -> ignore (Exec.sub_with_flags st ~set_flags:true a b 1)
  | Insn.CMN -> ignore (Exec.add_with_flags st ~set_flags:true a b 0)

(* Flag-elided copy for the block compiler: same dispatch and register
   semantics minus the condition-flag writes.  Pipeline metadata
   (cls/reads/writes/backward) is deliberately untouched so the issued and
   recorded event stream is identical to the unelided instruction's.
   [uop] is private; this is the one sanctioned way to derive a variant. *)
let elide_flags u = { u with s = false }

(* DP-family execution specialized to the block compiler's [sh_dp] shape:
   unconditional (no [cond_passed] test) and never writing the pc (the
   caller proves rd <> 15 for writing forms), so the outcome record needs
   no resetting — control flow is straight-line by construction.  Flag and
   value semantics are [dp]'s, case for case. *)
let exec_dp_nr (st : Exec.t) (o : Exec.outcome) u =
  st.Exec.steps <- st.Exec.steps + 1;
  let code = u.code in
  if code = k_dp_imm then begin
    let a = rr st u u.rn in
    let sc = if u.carry < 0 then st.Exec.cf else u.carry = 1 in
    dp st o u a u.imm sc
  end
  else if code = k_dp_reg then dp st o u (rr st u u.rn) (rr st u u.rm) st.Exec.cf
  else if code = k_dp_shift_imm then begin
    let p = shift_pack st.Exec.cf (rr st u u.rm) u.kind u.amount in
    dp st o u (rr st u u.rn) (p land 0xFFFF_FFFF) (p land cbit <> 0)
  end
  else begin
    let amount = rr st u u.rs land 0xFF in
    let p = shift_pack st.Exec.cf (rr st u u.rm) u.kind amount in
    dp st o u (rr st u u.rn) (p land 0xFFFF_FFFF) (p land cbit <> 0)
  end

let exec (st : Exec.t) (o : Exec.outcome) u =
  o.Exec.executed <- false;
  o.Exec.branch_taken <- false;
  o.Exec.next_pc <- u.fall;
  o.Exec.mem_addr <- -1;
  o.Exec.mem_is_load <- false;
  o.Exec.mem_words <- 0;
  st.Exec.steps <- st.Exec.steps + 1;
  if Exec.cond_passed st u.cond then begin
    o.Exec.executed <- true;
    let code = u.code in
    if code = k_dp_imm then begin
      let a = rr st u u.rn in
      let sc = if u.carry < 0 then st.Exec.cf else u.carry = 1 in
      dp st o u a u.imm sc
    end
    else if code = k_dp_reg then dp st o u (rr st u u.rn) (rr st u u.rm) st.Exec.cf
    else if code = k_dp_shift_imm then begin
      let p = shift_pack st.Exec.cf (rr st u u.rm) u.kind u.amount in
      dp st o u (rr st u u.rn) (p land 0xFFFF_FFFF) (p land cbit <> 0)
    end
    else if code = k_dp_shift_reg then begin
      let amount = rr st u u.rs land 0xFF in
      let p = shift_pack st.Exec.cf (rr st u u.rm) u.kind amount in
      dp st o u (rr st u u.rn) (p land 0xFFFF_FFFF) (p land cbit <> 0)
    end
    else if code = k_mem || code = k_mem_reg then begin
      let basev = rr st u u.rn in
      let ofs =
        if code = k_mem then u.imm
        else shift_val (rr st u u.rm) u.kind u.amount
      in
      let addr = Bits.u32 (basev + ofs) in
      o.Exec.mem_addr <- addr;
      o.Exec.mem_is_load <- u.load;
      o.Exec.mem_words <- 1;
      if u.writeback then st.Exec.regs.(u.rn) <- addr;
      if u.load then begin
        let v =
          match u.width with
          | Insn.Word -> Exec.load_word st addr
          | Insn.Byte ->
              let v = Exec.load_byte st addr in
              if u.signed then Bits.u32 (Bits.sign_extend ~width:8 v) else v
          | Insn.Half ->
              let v = Exec.load_half st addr in
              if u.signed then Bits.u32 (Bits.sign_extend ~width:16 v) else v
        in
        wr st o u.align u.rd v
      end
      else begin
        let v = rr st u u.rd in
        match u.width with
        | Insn.Word -> Exec.store_word st addr v
        | Insn.Byte -> Exec.store_byte st addr v
        | Insn.Half -> Exec.store_half st addr v
      end
    end
    else if code = k_mul then begin
      let a = rr st u u.rm and b = rr st u u.rs in
      let acc = if u.acc >= 0 then rr st u u.acc else 0 in
      let r = Bits.u32 ((a * b) + acc) in
      if u.s then Exec.set_nz st r;
      wr st o u.align u.rd r
    end
    else if code = k_push then begin
      let n = u.nregs in
      let basev = st.Exec.regs.(13) - (4 * n) in
      o.Exec.mem_addr <- basev;
      o.Exec.mem_is_load <- false;
      o.Exec.mem_words <- n;
      for i = 0 to n - 1 do
        Exec.store_word st (basev + (4 * i)) (rr st u u.rlist.(i))
      done;
      st.Exec.regs.(13) <- basev
    end
    else if code = k_pop then begin
      let n = u.nregs in
      let basev = st.Exec.regs.(13) in
      o.Exec.mem_addr <- basev;
      o.Exec.mem_is_load <- true;
      o.Exec.mem_words <- n;
      st.Exec.regs.(13) <- basev + (4 * n);
      for i = 0 to n - 1 do
        let v = Exec.load_word st (basev + (4 * i)) in
        let r = u.rlist.(i) in
        if r = 15 then begin
          o.Exec.branch_taken <- true;
          o.Exec.next_pc <- v land u.align
        end
        else st.Exec.regs.(r) <- v
      done
    end
    else if code = k_b then begin
      if u.link then st.Exec.regs.(14) <- u.lr_val;
      o.Exec.branch_taken <- true;
      o.Exec.next_pc <- u.target
    end
    else if code = k_bx then begin
      o.Exec.branch_taken <- true;
      o.Exec.next_pc <- rr st u u.rm land u.align
    end
    else if code = k_swi then begin
      match u.imm with
      | 0 -> st.Exec.halted <- true
      | 1 ->
          Buffer.add_string st.Exec.out
            (string_of_int (Bits.to_signed32 st.Exec.regs.(0)));
          Buffer.add_char st.Exec.out '\n'
      | 2 -> Buffer.add_char st.Exec.out (Char.chr (st.Exec.regs.(0) land 0xFF))
      | 3 ->
          Buffer.add_string st.Exec.out
            (Printf.sprintf "%08x" st.Exec.regs.(0));
          Buffer.add_char st.Exec.out '\n'
      | n -> decode_fault "unknown swi #%d" n
    end
    else if code = k_jalr then begin
      st.Exec.regs.(14) <- u.lr_val;
      o.Exec.branch_taken <- true;
      o.Exec.next_pc <- st.Exec.regs.(u.rm) land lnot 1
    end
    else decode_fault "undecodable instruction fetch at 0x%x" u.src_pc
  end

(* ---- drivers ----------------------------------------------------------- *)

(* Same shell as [Exec.run] — same watchdog, deadline polling and fault
   conditions (including unaligned or out-of-code fetches) — minus the
   per-step callback. *)
let run ?(max_steps = 500_000_000) ?deadline (p : program) (st : Exec.t) =
  let o = Exec.outcome () in
  let uops = p.uops in
  let n = Array.length uops in
  let cb = p.code_base in
  while not st.Exec.halted do
    let pc = st.Exec.regs.(15) in
    if pc = Exec.halt_sentinel then st.Exec.halted <- true
    else begin
      if st.Exec.steps >= max_steps then
        Sim_error.raisef Sim_error.Watchdog_timeout ~where
          "step budget exhausted (%d)" max_steps;
      if st.Exec.steps land Exec.deadline_mask = 0 then
        Deadline.check ~where deadline;
      let off = pc - cb in
      let idx = off lsr 2 in
      if off < 0 || off land 3 <> 0 || idx >= n then
        decode_fault "undecodable instruction fetch at 0x%x" pc;
      let u = uops.(idx) in
      if u.code = k_undef then
        decode_fault "undecodable instruction fetch at 0x%x" pc;
      exec st o u;
      st.Exec.regs.(15) <- o.Exec.next_pc
    end
  done

(* [run] plus a per-site execution histogram — the profiling loop of
   [Synthesis.dyn_counts_of_run] and [Profile.profile_run]. *)
let run_counting ?(max_steps = 500_000_000) ?deadline (p : program)
    (st : Exec.t) ~counts =
  let o = Exec.outcome () in
  let uops = p.uops in
  let n = Array.length uops in
  let cb = p.code_base in
  while not st.Exec.halted do
    let pc = st.Exec.regs.(15) in
    if pc = Exec.halt_sentinel then st.Exec.halted <- true
    else begin
      if st.Exec.steps >= max_steps then
        Sim_error.raisef Sim_error.Watchdog_timeout ~where
          "step budget exhausted (%d)" max_steps;
      if st.Exec.steps land Exec.deadline_mask = 0 then
        Deadline.check ~where deadline;
      let off = pc - cb in
      let idx = off lsr 2 in
      if off < 0 || off land 3 <> 0 || idx >= n then
        decode_fault "undecodable instruction fetch at 0x%x" pc;
      let u = uops.(idx) in
      if u.code = k_undef then
        decode_fault "undecodable instruction fetch at 0x%x" pc;
      exec st o u;
      counts.(idx) <- counts.(idx) + 1;
      st.Exec.regs.(15) <- o.Exec.next_pc
    end
  done
