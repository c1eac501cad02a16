open Insn
open Pf_util

let where = "arm.exec"

let memory_fault fmt = Sim_error.raisef Sim_error.Memory_fault ~where fmt
let decode_fault fmt = Sim_error.raisef Sim_error.Decode_fault ~where fmt

(* Paged memory.  The address space is cut into [page_size]-byte pages,
   and every slot of a fresh state's page table points at [zero_page]:
   one shared page, never written.  A store to a slot that still holds it
   first swaps in a fresh page, so a state pays only for the pages it
   writes — a litmus core writes two of the 8 MB image's 2048 —
   and every read of an unwritten address still sees zero.  An access
   never straddles two pages: words and halves must be aligned, and the
   page size is a multiple of 4.  4 KB beat 64 KB on the litmus sweep
   (DESIGN.md). *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Read from every domain; [writable_page] never hands it out, so no
   state writes it. *)
let zero_page = Bytes.make page_size '\000'

type mem = Bytes.t array

type t = {
  regs : int array;
  mutable nf : bool;
  mutable zf : bool;
  mutable cf : bool;
  mutable vf : bool;
  mem : mem;
  image : Image.t;
  mutable halted : bool;
  out : Buffer.t;
  mutable steps : int;
}

let halt_sentinel = 0xFFFF_FFF0

type outcome = {
  mutable executed : bool;
  mutable branch_taken : bool;
  mutable next_pc : int;
  mutable mem_addr : int;
  mutable mem_is_load : bool;
  mutable mem_words : int;
}

let outcome () =
  { executed = false; branch_taken = false; next_pc = 0; mem_addr = -1;
    mem_is_load = false; mem_words = 0 }

let check_range t addr len =
  if addr < 0 || addr + len > t.image.Image.mem_size then
    memory_fault "memory access out of range: 0x%x" addr

let page t addr = t.mem.(addr lsr page_bits)

let writable_page t addr =
  let i = addr lsr page_bits in
  let p = t.mem.(i) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.mem.(i) <- p;
    p
  end

let load_word t addr =
  if addr land 3 <> 0 then memory_fault "unaligned word load: 0x%x" addr;
  check_range t addr 4;
  Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))
  land 0xFFFF_FFFF

let store_word t addr v =
  if addr land 3 <> 0 then memory_fault "unaligned word store: 0x%x" addr;
  check_range t addr 4;
  Bytes.set_int32_le (writable_page t addr) (addr land page_mask)
    (Int32.of_int (Bits.u32 v))

let load_byte t addr =
  check_range t addr 1;
  Char.code (Bytes.get (page t addr) (addr land page_mask))

let store_byte t addr v =
  check_range t addr 1;
  Bytes.set (writable_page t addr) (addr land page_mask)
    (Char.chr (v land 0xFF))

let load_half t addr =
  if addr land 1 <> 0 then memory_fault "unaligned half load: 0x%x" addr;
  check_range t addr 2;
  Bytes.get_uint16_le (page t addr) (addr land page_mask)

let store_half t addr v =
  if addr land 1 <> 0 then memory_fault "unaligned half store: 0x%x" addr;
  check_range t addr 2;
  Bytes.set_uint16_le (writable_page t addr) (addr land page_mask)
    (v land 0xFFFF)

let create (image : Image.t) =
  (* 17 registers: r0-r15 plus one over-provisioned scratch register used
     by FITS micro-operation expansions (never encodable, never named by
     compiled ARM code). *)
  let regs = Array.make 17 0 in
  regs.(sp) <- image.Image.mem_size - 16;
  regs.(lr) <- halt_sentinel;
  regs.(pc) <- image.Image.entry;
  let t =
    { regs; nf = false; zf = false; cf = false; vf = false;
      mem =
        Array.make ((image.Image.mem_size + page_mask) lsr page_bits)
          zero_page;
      image; halted = false; out = Buffer.create 64; steps = 0 }
  in
  (* [Image.make] keeps every segment in range but leaves data blobs
     unaligned if asked, and an unaligned word may straddle two pages. *)
  let poke addr w =
    if addr land 3 = 0 then store_word t addr w
    else for k = 0 to 3 do store_byte t (addr + k) (w lsr (8 * k)) done
  in
  Array.iteri
    (fun i w -> poke (image.Image.code_base + (i * 4)) w)
    image.Image.words;
  List.iter
    (fun (addr, ws) -> Array.iteri (fun i w -> poke (addr + (i * 4)) w) ws)
    image.Image.data_init;
  t

(* Reading r15 yields the address of the instruction plus 8, as on ARM. *)
let read_reg t ~pc r = if r = Insn.pc then Bits.u32 (pc + 8) else t.regs.(r)

let cond_passed t = function
  | AL -> true
  | EQ -> t.zf
  | NE -> not t.zf
  | CS -> t.cf
  | CC -> not t.cf
  | MI -> t.nf
  | PL -> not t.nf
  | VS -> t.vf
  | VC -> not t.vf
  | HI -> t.cf && not t.zf
  | LS -> (not t.cf) || t.zf
  | GE -> t.nf = t.vf
  | LT -> t.nf <> t.vf
  | GT -> (not t.zf) && t.nf = t.vf
  | LE -> t.zf || t.nf <> t.vf

(* Shifter: value and carry-out of an operand2, per ARM's barrel shifter. *)
let shift_value_carry t x kind amount =
  if amount = 0 then (x, t.cf)
  else
    match kind with
    | LSL ->
        if amount > 32 then (0, false)
        else if amount = 32 then (0, x land 1 = 1)
        else
          (Bits.u32 (x lsl amount), x land (1 lsl (32 - amount)) <> 0)
    | LSR ->
        if amount > 32 then (0, false)
        else if amount = 32 then (0, x land 0x8000_0000 <> 0)
        else (x lsr amount, x land (1 lsl (amount - 1)) <> 0)
    | ASR ->
        let s = Bits.to_signed32 x in
        if amount >= 32 then
          let v = if s < 0 then 0xFFFF_FFFF else 0 in
          (v, s < 0)
        else (Bits.u32 (s asr amount), x land (1 lsl (amount - 1)) <> 0)
    | ROR ->
        let amount = amount land 31 in
        if amount = 0 then (x, x land 0x8000_0000 <> 0)
        else (Bits.rotate_right32 x amount, x land (1 lsl (amount - 1)) <> 0)

let operand2 t ~pc = function
  | Imm { value; rot } ->
      let v = Bits.rotate_right32 value (2 * rot) in
      let carry = if rot = 0 then t.cf else v land 0x8000_0000 <> 0 in
      (v, carry)
  | Reg r -> (read_reg t ~pc r, t.cf)
  | Reg_shift (r, kind, amount) ->
      shift_value_carry t (read_reg t ~pc r) kind amount
  | Reg_shift_reg (r, kind, rs) ->
      let amount = read_reg t ~pc rs land 0xFF in
      shift_value_carry t (read_reg t ~pc r) kind amount

let set_nz t result =
  t.nf <- result land 0x8000_0000 <> 0;
  t.zf <- result = 0

(* a + b + cin with flag computation; inputs are u32. *)
let add_with_flags t ~set_flags a b cin =
  let sum = a + b + cin in
  let result = Bits.u32 sum in
  if set_flags then begin
    set_nz t result;
    t.cf <- sum > 0xFFFF_FFFF;
    t.vf <- lnot (a lxor b) land (a lxor result) land 0x8000_0000 <> 0
  end;
  result

let sub_with_flags t ~set_flags a b cin =
  (* a - b - (1 - cin), expressed as a + ~b + cin *)
  add_with_flags t ~set_flags a (Bits.u32 (lnot b)) cin

let mem_width_access t ~load ~width ~signed ~addr =
  match (load, width) with
  | true, Word -> load_word t addr
  | true, Byte ->
      let v = load_byte t addr in
      if signed then Bits.u32 (Bits.sign_extend ~width:8 v) else v
  | true, Half ->
      let v = load_half t addr in
      if signed then Bits.u32 (Bits.sign_extend ~width:16 v) else v
  | false, _ -> 0

(* Core data-processing semantics, shared by the ordinary operand2 path
   and the FITS dictionary-operand path. *)
let dp_apply t ~op ~s ~rd ~write_rd a b shifter_carry =
  let logical result =
    if s then begin
      set_nz t result;
      t.cf <- shifter_carry
    end;
    result
  in
  match (op : Insn.dp_op) with
  | AND -> write_rd rd (logical (a land b))
  | EOR -> write_rd rd (logical (a lxor b))
  | ORR -> write_rd rd (logical (a lor b))
  | BIC -> write_rd rd (logical (a land lnot b land 0xFFFF_FFFF))
  | MOV -> write_rd rd (logical b)
  | MVN -> write_rd rd (logical (Bits.u32 (lnot b)))
  | ADD -> write_rd rd (add_with_flags t ~set_flags:s a b 0)
  | ADC -> write_rd rd (add_with_flags t ~set_flags:s a b (Bool.to_int t.cf))
  | SUB -> write_rd rd (sub_with_flags t ~set_flags:s a b 1)
  | RSB -> write_rd rd (sub_with_flags t ~set_flags:s b a 1)
  | SBC -> write_rd rd (sub_with_flags t ~set_flags:s a b (Bool.to_int t.cf))
  | RSC -> write_rd rd (sub_with_flags t ~set_flags:s b a (Bool.to_int t.cf))
  | TST ->
      let r = a land b in
      set_nz t r;
      t.cf <- shifter_carry
  | TEQ ->
      let r = a lxor b in
      set_nz t r;
      t.cf <- shifter_carry
  | CMP -> ignore (sub_with_flags t ~set_flags:true a b 1)
  | CMN -> ignore (add_with_flags t ~set_flags:true a b 0)

let execute ?(isize = 4) t ~pc insn (o : outcome) =
  o.executed <- false;
  o.branch_taken <- false;
  o.next_pc <- pc + isize;
  o.mem_addr <- -1;
  o.mem_is_load <- false;
  o.mem_words <- 0;
  t.steps <- t.steps + 1;
  if not (cond_passed t (cond_of insn)) then ()
  else begin
    o.executed <- true;
    let write_rd rd v =
      if rd = Insn.pc then begin
        o.branch_taken <- true;
        o.next_pc <- Bits.u32 v land lnot (isize - 1)
      end
      else t.regs.(rd) <- Bits.u32 v
    in
    match insn with
    | Dp { op; s; rd; rn; op2; _ } ->
        let a = read_reg t ~pc rn in
        let b, shifter_carry = operand2 t ~pc op2 in
        dp_apply t ~op ~s ~rd ~write_rd a b shifter_carry
    | Mul { s; rd; rm; rs; acc; _ } ->
        let a = read_reg t ~pc rm and b = read_reg t ~pc rs in
        let base = match acc with Some rn -> read_reg t ~pc rn | None -> 0 in
        let result = Bits.u32 ((a * b) + base) in
        if s then set_nz t result;
        write_rd rd result
    | Mem { load; width; signed; rd; rn; offset; writeback; _ } ->
        let base = read_reg t ~pc rn in
        let ofs =
          match offset with
          | Ofs_imm n -> n
          | Ofs_reg (rm, kind, amount) ->
              fst (shift_value_carry t (read_reg t ~pc rm) kind amount)
        in
        let addr = Bits.u32 (base + ofs) in
        o.mem_addr <- addr;
        o.mem_is_load <- load;
        o.mem_words <- 1;
        if writeback then t.regs.(rn) <- addr;
        if load then write_rd rd (mem_width_access t ~load ~width ~signed ~addr)
        else begin
          let v = read_reg t ~pc rd in
          match width with
          | Word -> store_word t addr v
          | Byte -> store_byte t addr v
          | Half -> store_half t addr v
        end
    | Push { regs; _ } ->
        let n = List.length regs in
        let base = t.regs.(sp) - (4 * n) in
        o.mem_addr <- base;
        o.mem_is_load <- false;
        o.mem_words <- n;
        List.iteri
          (fun i r -> store_word t (base + (4 * i)) (read_reg t ~pc r))
          regs;
        t.regs.(sp) <- base
    | Pop { regs; _ } ->
        let n = List.length regs in
        let base = t.regs.(sp) in
        o.mem_addr <- base;
        o.mem_is_load <- true;
        o.mem_words <- n;
        t.regs.(sp) <- base + (4 * n);
        List.iteri
          (fun i r ->
            let v = load_word t (base + (4 * i)) in
            if r = Insn.pc then begin
              o.branch_taken <- true;
              o.next_pc <- v land lnot (isize - 1)
            end
            else t.regs.(r) <- v)
          regs
    | B { link; offset; _ } ->
        if link then t.regs.(lr) <- Bits.u32 (pc + isize);
        o.branch_taken <- true;
        (* branch base is two instruction slots ahead, as on ARM (pc+8) *)
        o.next_pc <- Bits.u32 (pc + (2 * isize) + offset)
    | Bx { rm; _ } ->
        o.branch_taken <- true;
        o.next_pc <- read_reg t ~pc rm land lnot (isize - 1)
    | Swi { number; _ } -> (
        match number with
        | 0 -> t.halted <- true
        | 1 ->
            Buffer.add_string t.out
              (string_of_int (Bits.to_signed32 t.regs.(0)));
            Buffer.add_char t.out '\n'
        | 2 -> Buffer.add_char t.out (Char.chr (t.regs.(0) land 0xFF))
        | 3 ->
            Buffer.add_string t.out (Printf.sprintf "%08x" t.regs.(0));
            Buffer.add_char t.out '\n'
        | n -> decode_fault "unknown swi #%d" n)
  end

let execute_dp_value ?(isize = 4) t ~pc ~cond ~op ~s ~rd ~rn ~value
    (o : outcome) =
  o.executed <- false;
  o.branch_taken <- false;
  o.next_pc <- pc + isize;
  o.mem_addr <- -1;
  o.mem_is_load <- false;
  o.mem_words <- 0;
  t.steps <- t.steps + 1;
  if cond_passed t cond then begin
    o.executed <- true;
    let write_rd rd v =
      if rd = Insn.pc then begin
        o.branch_taken <- true;
        o.next_pc <- Bits.u32 v land lnot (isize - 1)
      end
      else t.regs.(rd) <- Bits.u32 v
    in
    let a = read_reg t ~pc rn in
    dp_apply t ~op ~s ~rd ~write_rd a (Bits.u32 value) t.cf
  end

(* Poll the wall-clock deadline once every 64k instructions: frequent
   enough to cut off a runaway loop within milliseconds, rare enough that
   the clock read never shows up in a profile. *)
let deadline_mask = 0xFFFF

let run ?(max_steps = 500_000_000) ?deadline t ~on_step =
  let o = outcome () in
  while not t.halted do
    let pc = t.regs.(Insn.pc) in
    if pc = halt_sentinel then t.halted <- true
    else begin
      if t.steps >= max_steps then
        Sim_error.raisef Sim_error.Watchdog_timeout ~where
          "step budget exhausted (%d)" max_steps;
      if t.steps land deadline_mask = 0 then Deadline.check ~where deadline;
      match Image.insn_at t.image pc with
      | None -> decode_fault "undecodable instruction fetch at 0x%x" pc
      | Some insn ->
          execute t ~pc insn o;
          t.regs.(Insn.pc) <- o.next_pc;
          on_step t ~pc insn o
    end
  done

let output t = Buffer.contents t.out
