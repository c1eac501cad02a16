(* Basic-block compiler over predecoded micro-ops.

   A per-instruction loop ([Pexec.run], [Pf_cpu.Step.step]) pays a
   dispatch, an outcome reset, a condition test, a pc store and a
   bounds check for every dynamic instruction.  Straight-line code makes
   almost all of that constant: between one control transfer and the
   next, the pc advances by [isize], conditions are statically AL for the
   bulk of instructions, and most flag writes are overwritten before
   anything reads them.

   This module discovers basic blocks lazily — a block per entry pc, so
   indirect branches into the middle of an already-built block simply
   build a second (overlapping) block starting there — and compiles each
   into a flat superblock: the micro-op array slice plus a per-instruction
   *shape* that tells the driver how little work each step needs:

     [sh_nop]   a compare whose flag results are all dead within the
                block — executing it would change nothing observable, so
                the driver only counts the step and issues/records the
                (unchanged) pipeline event;
     [sh_dp]    unconditional DP-family op that cannot write the pc —
                executed by [Pexec.exec_dp_nr] (no cond test, no outcome
                resets), issued via the pipeline's Alu fast slot;
     [sh_gen]   anything else that does not end the block (conditional
                ops, memory, mul, push/pop) — full [Pexec.exec] + issue;
     [sh_term]  the block terminator — full execution, and the dynamic
                next-pc decides where the driver dispatches next.

   Dead-flag elision is a backward liveness walk per block: exits assume
   all flags live (the next block may read them), so architectural flag
   state is exact at every block boundary; within the block, a flag write
   wholly covered by later writes (with no intervening read) is dropped —
   compares become [sh_nop], S-suffixed register ops lose their [s] bit
   via [Pexec.elide_flags].  Pipeline metadata always comes from the
   original micro-op, so the issued/recorded event stream is bit-identical
   to the per-instruction path's.

   Legality fallback: blocks whose leader is an undef slot (data words,
   corrupted decoder entries) and any micro-op with an out-of-range
   dispatch code mark the block [fallback]; the driver then single-steps
   it through the per-instruction body ([Pf_cpu.Step.step]), reproducing
   its fault pcs and messages. *)

let sh_nop = 0
let sh_dp = 1
let sh_gen = 2
let sh_term = 3

(* Condition-flag bitmask: N, Z, C, V. *)
let f_n = 1
let f_z = 2
let f_c = 4
let f_v = 8
let f_all = 15

let dp_family (u : Pexec.uop) = u.Pexec.code <= Pexec.k_dp_shift_reg

let is_compare (u : Pexec.uop) =
  match u.Pexec.op with
  | Insn.TST | Insn.TEQ | Insn.CMP | Insn.CMN -> true
  | _ -> false

(* Which flags a micro-op writes.  Arithmetic S-ops and CMP/CMN set NZCV;
   logical S-ops and TST/TEQ set NZC (V untouched, C from the shifter);
   MULS sets NZ ([Exec.set_nz]).  Everything else writes none. *)
let flag_writes (u : Pexec.uop) =
  if dp_family u then
    match u.Pexec.op with
    | Insn.CMP | Insn.CMN -> f_all
    | Insn.TST | Insn.TEQ -> f_n lor f_z lor f_c
    | Insn.ADD | Insn.ADC | Insn.SUB | Insn.SBC | Insn.RSB | Insn.RSC ->
        if u.Pexec.s then f_all else 0
    | Insn.AND | Insn.EOR | Insn.ORR | Insn.BIC | Insn.MOV | Insn.MVN ->
        if u.Pexec.s then f_n lor f_z lor f_c else 0
  else if u.Pexec.code = Pexec.k_mul && u.Pexec.s then f_n lor f_z
  else 0

let cond_reads : Insn.cond -> int = function
  | Insn.EQ | Insn.NE -> f_z
  | Insn.CS | Insn.CC -> f_c
  | Insn.MI | Insn.PL -> f_n
  | Insn.VS | Insn.VC -> f_v
  | Insn.HI | Insn.LS -> f_c lor f_z
  | Insn.GE | Insn.LT -> f_n lor f_v
  | Insn.GT | Insn.LE -> f_n lor f_z lor f_v
  | Insn.AL -> 0

(* Which flags a micro-op reads: its condition, C as a data input
   (ADC/SBC/RSC), and C through the shifter when a logical S-op or
   TST/TEQ can propagate the *current* carry into the flags — possible
   for rot-0 immediates ([carry = -1]), plain registers (shift by 0) and
   register-specified shifts (a runtime amount of 0 keeps C).  Constant
   nonzero shifts always produce their own carry-out. *)
let flag_reads (u : Pexec.uop) =
  let r = cond_reads u.Pexec.cond in
  if dp_family u then
    let data_c =
      match u.Pexec.op with
      | Insn.ADC | Insn.SBC | Insn.RSC -> f_c
      | _ -> 0
    in
    let shifter_c =
      let wants_sc =
        match u.Pexec.op with
        | Insn.TST | Insn.TEQ -> true
        | Insn.AND | Insn.EOR | Insn.ORR | Insn.BIC | Insn.MOV | Insn.MVN ->
            u.Pexec.s
        | _ -> false
      in
      if
        wants_sc
        && (u.Pexec.code = Pexec.k_dp_reg
           || u.Pexec.code = Pexec.k_dp_shift_reg
           || (u.Pexec.code = Pexec.k_dp_imm && u.Pexec.carry < 0))
      then f_c
      else 0
    in
    r lor data_c lor shifter_c
  else r

(* Does executing this micro-op end the block?  Anything that can write
   the pc, plus SWI (halt / host-call side effects order against the
   fetch stream).  Conditional branches terminate too: whether they are
   taken is dynamic. *)
let terminates (u : Pexec.uop) =
  let c = u.Pexec.code in
  if c <= Pexec.k_dp_shift_reg then u.Pexec.rd = 15 && not (is_compare u)
  else
    c = Pexec.k_b || c = Pexec.k_bx || c = Pexec.k_jalr || c = Pexec.k_swi
    || (c = Pexec.k_mul && u.Pexec.rd = 15)
    || ((c = Pexec.k_mem || c = Pexec.k_mem_reg)
       && u.Pexec.load && u.Pexec.rd = 15)
    || (c = Pexec.k_pop && Array.exists (fun r -> r = 15) u.Pexec.rlist)

type block = {
  start : int;            (* leader index into the program's uop array *)
  len : int;
  xuops : Pexec.uop array; (* executed forms (possibly flag-elided) *)
  orig : Pexec.uop array;  (* original forms: metadata, fallback execution *)
  shapes : int array;
  has_term : bool;         (* false: capped block, falls through *)
  fallback : bool;         (* drive per-instruction (undef leader, bad code) *)
  mutable execs : int;     (* dynamic dispatch count (probe histograms) *)
}

type t = {
  uops : Pexec.uop array;
  blocks : block option array;  (* lazily built, indexed by leader *)
  mutable built : int;
}

(* block length cap: bounds the per-dispatch watchdog/deadline
   granularity adjustment *)
let max_len = 64

let create (uops : Pexec.uop array) =
  { uops; blocks = Array.make (Array.length uops) None; built = 0 }

let slots t = Array.length t.uops

let legal_code c = c >= 0 && c <= Pexec.code_undef

let build t s =
  let uops = t.uops in
  let n = Array.length uops in
  let leader = uops.(s) in
  if leader.Pexec.code = Pexec.code_undef then
    (* undef leader: the driver's per-instruction path raises the
       engine-specific decode fault at exactly this pc *)
    {
      start = s;
      len = 1;
      xuops = [| leader |];
      orig = [| leader |];
      shapes = [| sh_gen |];
      has_term = false;
      fallback = true;
      execs = 0;
    }
  else begin
    (* extend until a terminator, an undef slot, the code end, or the
       length cap; capped/cut blocks fall through to the next leader *)
    let e = ref s in
    let stop = ref false in
    while not !stop do
      let u = uops.(!e) in
      if terminates u then begin
        incr e;
        stop := true
      end
      else begin
        incr e;
        if
          !e >= n
          || !e - s >= max_len
          || uops.(!e).Pexec.code = Pexec.code_undef
        then stop := true
      end
    done;
    let len = !e - s in
    let orig = Array.sub uops s len in
    let xuops = Array.copy orig in
    let has_term = terminates orig.(len - 1) in
    let illegal = ref false in
    let shapes =
      Array.init len (fun i ->
          let u = orig.(i) in
          if not (legal_code u.Pexec.code) then illegal := true;
          if i = len - 1 && has_term then sh_term
          else if
            dp_family u
            && (match u.Pexec.cond with Insn.AL -> true | _ -> false)
            && (is_compare u || u.Pexec.rd <> 15)
          then sh_dp
          else sh_gen)
    in
    (* Backward flag-liveness walk; exits conservatively read all flags,
       so the terminator (processed against dead = 0) is never elided and
       architectural flags are exact at every block boundary.  A fully
       dead compare writes nothing observable whether its condition
       passes or not, so it skips execution entirely ([sh_nop]); a dead
       S-suffixed register op keeps its register write but drops the [s]
       bit. *)
    let dead = ref 0 in
    for i = len - 1 downto 0 do
      let u = orig.(i) in
      let fw = flag_writes u in
      let fr = flag_reads u in
      if fw <> 0 && fw land lnot !dead = 0 && shapes.(i) <> sh_term then
        if is_compare u then shapes.(i) <- sh_nop
        else xuops.(i) <- Pexec.elide_flags u;
      dead := (!dead lor fw) land lnot fr
    done;
    {
      start = s;
      len;
      xuops;
      orig;
      shapes;
      has_term;
      fallback = !illegal;
      execs = 0;
    }
  end

let block_at t s =
  match Array.unsafe_get t.blocks s with
  | Some b -> b
  | None ->
      let b = build t s in
      t.blocks.(s) <- Some b;
      t.built <- t.built + 1;
      b

let blocks_built t = t.built

let iter_built t f =
  Array.iter (function None -> () | Some b -> f b) t.blocks
