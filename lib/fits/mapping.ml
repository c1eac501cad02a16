module A = Pf_arm.Insn
open Pf_util

type oprd =
  | O_none
  | O_reg of int
  | O_lit of int
  | O_dictval of int
  | O_arg of int

type micro =
  | M_exec of A.t
  | M_dp32 of { op : A.dp_op; s : bool; rd : int; rn : int; value : int;
                cond : A.cond }
  | M_jalr of int
  | M_undef of string

type fdesc = {
  op : Spec.opdef;
  rc : int;
  ra : int;
  oprd : oprd;
  micro : micro;
}

type plan =
  | P_seq of fdesc list
  | P_branch of { cond : A.cond; link : bool; arm_target : int }

exception Unmappable of string

let unmappable fmt = Format.kasprintf (fun s -> raise (Unmappable s)) fmt

let internal fmt = Sim_error.raisef Sim_error.Internal ~where:"fits.mapping" fmt

let tr = Spec.temp_reg

(* ---- coverage ---------------------------------------------------------- *)

let lit_fits ~scale v = v >= 0 && v land ((1 lsl scale) - 1) = 0
                        && v lsr scale <= 15

let dict_head_index spec v =
  match Spec.dict_index spec v with
  | Some i when i < 16 -> Some i
  | Some _ | None -> None

(* Does opdef [od] cover [insn] one-to-one? *)
let op_covers spec (od : Spec.opdef) (insn : A.t) =
  match od.Spec.key with
  | None -> false
  | Some okey -> (
      let pk = Opkey.of_insn insn in
      if od.Spec.cond <> pk.Opkey.cond then false
      else
        match (okey, insn) with
        | Opkey.K_dp { op = kop; shape = kshape; s = ks; two_op = ktwo },
          A.Dp { op; s; rd; op2; _ } -> (
            if kop <> op || ks <> s then false
            else
              let two_op_insn =
                match pk.Opkey.key with
                | Opkey.K_dp { two_op; _ } -> two_op
                | _ -> false
              in
              if ktwo && not two_op_insn then false
              else
                (* destructive shift sub-ops additionally need rd = rm *)
                (* A two-operand MOV-class shift is destructive (rd = rm)
                   only when the amount occupies the literal field; with
                   the amount baked into the sub-opcode both fields are
                   free, and shift-by-register always needs rd = rm (three
                   registers cannot fit two fields). *)
                let destructive_src_ok rm =
                  (not ktwo)
                  ||
                  match op with
                  | A.MOV | A.MVN -> (
                      match kshape with
                      | Opkey.Sh_shift_imm _ ->
                          (match od.Spec.imm with
                          | Spec.Imm_lit _ -> rd = rm
                          | Spec.Imm_none | Spec.Imm_dict -> true)
                      | Opkey.Sh_shift_reg _ -> rd = rm
                      | Opkey.Sh_reg | Opkey.Sh_imm -> true)
                  | _ -> true
                in
                match (kshape, op2) with
                | Opkey.Sh_reg, A.Reg _ -> true
                | Opkey.Sh_imm, A.Imm _ -> (
                    let v =
                      match A.operand2_value op2 with
                      | Some v -> v
                      | None -> internal "Sh_imm key over non-immediate op2"
                    in
                    match od.Spec.imm with
                    | Spec.Imm_lit { scale } -> lit_fits ~scale v
                    | Spec.Imm_dict -> dict_head_index spec v <> None
                    | Spec.Imm_none -> false)
                | Opkey.Sh_shift_imm (k1, amt), A.Reg_shift (rm, k2, n) ->
                    k1 = k2
                    && (if amt = Spec.shift_amount_wildcard then n <= 15
                        else amt = n)
                    && destructive_src_ok rm
                | Opkey.Sh_shift_reg k1, A.Reg_shift_reg (rm, k2, _) ->
                    k1 = k2 && destructive_src_ok rm
                | (Opkey.Sh_reg | Opkey.Sh_imm | Opkey.Sh_shift_imm _
                  | Opkey.Sh_shift_reg _), _ ->
                    false)
        | Opkey.K_mul { acc = kacc }, A.Mul { rd; rm; rs; acc; _ } -> (
            match (kacc, acc) with
            | false, None ->
                if od.Spec.fmt = Spec.Fmt_operate2 then rd = rm || rd = rs
                else true
            | true, Some rn -> rn = rd
            | false, Some _ | true, None -> false)
        | Opkey.K_mem { load = kload; width = kwidth; signed = ksigned;
                        mode = kmode; writeback = kwb },
          A.Mem { load; width; signed; offset; writeback; _ } -> (
            kload = load && kwidth = width && ksigned = signed
            && kwb = writeback
            &&
            match (kmode, offset) with
            | Opkey.M_imm, A.Ofs_imm ofs -> (
                match od.Spec.imm with
                | Spec.Imm_lit { scale } -> lit_fits ~scale ofs
                | Spec.Imm_dict -> dict_head_index spec ofs <> None
                | Spec.Imm_none -> false)
            | Opkey.M_reg, A.Ofs_reg (_, A.LSL, 0) -> true
            | Opkey.M_reg_shift k, A.Ofs_reg (_, A.LSL, n) -> k = n && n > 0
            | (Opkey.M_imm | Opkey.M_reg | Opkey.M_reg_shift _), _ -> false)
        | Opkey.K_push, A.Push { regs; _ } | Opkey.K_pop, A.Pop { regs; _ }
          ->
            Spec.reglist_index spec regs <> None
        | Opkey.K_bx, A.Bx _ -> true
        | Opkey.K_swi, A.Swi { number; _ } -> number <= 0xFF
        | Opkey.K_branch { cond = kcond; link = klink }, A.B { cond; link; _ }
          ->
            kcond = cond && klink = link
        | ( ( Opkey.K_dp _ | Opkey.K_mul _ | Opkey.K_mem _ | Opkey.K_push
            | Opkey.K_pop | Opkey.K_branch _ | Opkey.K_bx | Opkey.K_swi ),
            _ ) ->
            false)

let covered spec insn =
  let n = Array.length spec.Spec.ops in
  let rec go i =
    if i >= n then None
    else if op_covers spec spec.Spec.ops.(i) insn then Some spec.Spec.ops.(i)
    else go (i + 1)
  in
  go 0

(* ---- direct (one-to-one) fdesc construction --------------------------- *)

let direct spec (od : Spec.opdef) (insn : A.t) =
  let fd rc ra oprd = { op = od; rc; ra; oprd; micro = M_exec insn } in
  match insn with
  | A.Dp { op; rd; rn; op2; _ } -> (
      let dest =
        match op with
        | A.TST | A.TEQ | A.CMP | A.CMN -> rn
        | _ -> rd
      in
      let commutative =
        match op with A.ADD | A.AND | A.ORR | A.EOR -> true | _ -> false
      in
      let oprd =
        match op2 with
        | A.Reg rm ->
            (* destructive commutative form reads the other source *)
            if commutative && rm = rd && rd <> rn
               && od.Spec.fmt = Spec.Fmt_operate2
            then O_reg rn
            else O_reg rm
        | A.Imm _ -> (
            let v = Option.get (A.operand2_value op2) in
            match od.Spec.imm with
            | Spec.Imm_lit { scale } -> O_lit (v lsr scale)
            | Spec.Imm_dict -> O_dictval v
            | Spec.Imm_none -> internal "immediate operand on Imm_none opdef")
        | A.Reg_shift (rm, _, n) -> (
            match od.Spec.imm with
            | Spec.Imm_lit _ -> O_lit n (* amount in the field *)
            | Spec.Imm_none | Spec.Imm_dict -> O_reg rm)
        | A.Reg_shift_reg (_, _, rs) -> O_reg rs
      in
      match od.Spec.fmt with
      | Spec.Fmt_operate2 -> fd dest 0 oprd
      | Spec.Fmt_operate3 -> (
          match op2 with
          | A.Reg_shift (rm, _, _) when od.Spec.imm <> Spec.Imm_none ->
              (* amount in oprd, rm in ra *)
              fd dest rm oprd
          | _ -> fd dest rn oprd)
      | Spec.Fmt_memory | Spec.Fmt_branch12 | Spec.Fmt_bcc | Spec.Fmt_movd
      | Spec.Fmt_system ->
          internal "data-processing mapped to a non-operate format")
  | A.Mul { rd; rm; rs; acc; _ } -> (
      match od.Spec.fmt with
      | Spec.Fmt_operate2 -> fd rd 0 (O_reg (if rd = rm then rs else rm))
      | Spec.Fmt_operate3 ->
          ignore acc;
          fd rd rm (O_reg rs)
      | _ -> internal "multiply mapped to a non-operate format")
  | A.Mem { rd; rn; offset; _ } -> (
      match offset with
      | A.Ofs_imm ofs -> (
          match od.Spec.imm with
          | Spec.Imm_lit { scale } -> fd rd rn (O_lit (ofs lsr scale))
          | Spec.Imm_dict -> fd rd rn (O_dictval ofs)
          | Spec.Imm_none -> internal "memory displacement on Imm_none opdef")
      | A.Ofs_reg (rx, _, _) -> fd rd rn (O_reg rx))
  | A.Push { regs; _ } | A.Pop { regs; _ } -> (
      match Spec.reglist_index spec regs with
      | Some idx -> fd 0 0 (O_arg idx)
      | None -> internal "register list vanished from the table")
  | A.Bx { rm; _ } -> fd 0 0 (O_arg rm)
  | A.Swi { number; _ } -> fd 0 0 (O_arg number)
  | A.B _ -> internal "direct mapping requested for a branch"

(* ---- expansion building blocks ---------------------------------------- *)

let sis spec = spec.Spec.sis

let step op ~rc ?(ra = 0) ~oprd micro = { op; rc; ra; oprd; micro }

let mov_rr spec ~rd ~rm =
  step (sis spec).Spec.mov_rr ~rc:rd ~oprd:(O_reg rm)
    (M_exec (A.Dp { cond = A.AL; op = A.MOV; s = false; rd; rn = 0;
                    op2 = A.Reg rm }))

let seq_materialize spec ~reg v =
  let v = Bits.u32 v in
  if v <= 15 then
    step (sis spec).Spec.mov_ri ~rc:reg ~oprd:(O_lit v)
      (M_exec
         (A.Dp { cond = A.AL; op = A.MOV; s = false; rd = reg; rn = 0;
                 op2 = A.Imm { value = v; rot = 0 } }))
  else
    step (sis spec).Spec.movd8 ~rc:reg ~oprd:(O_dictval v)
      (M_dp32 { op = A.MOV; s = false; rd = reg; rn = 0; value = v;
                cond = A.AL })

let shift2i spec ~rd kind n =
  let od =
    match kind with
    | A.LSL -> (sis spec).Spec.lsl2i
    | A.LSR -> (sis spec).Spec.lsr2i
    | A.ASR -> (sis spec).Spec.asr2i
    | A.ROR -> (sis spec).Spec.ror2i
  in
  step od ~rc:rd ~oprd:(O_lit n)
    (M_exec (A.Dp { cond = A.AL; op = A.MOV; s = false; rd; rn = 0;
                    op2 = A.Reg_shift (rd, kind, n) }))

let shift2r spec ~rd kind rs =
  let od =
    match kind with
    | A.LSL -> (sis spec).Spec.lsl2r
    | A.LSR -> (sis spec).Spec.lsr2r
    | A.ASR -> (sis spec).Spec.asr2r
    | A.ROR -> (sis spec).Spec.ror2r
  in
  step od ~rc:rd ~oprd:(O_reg rs)
    (M_exec (A.Dp { cond = A.AL; op = A.MOV; s = false; rd; rn = 0;
                    op2 = A.Reg_shift_reg (rd, kind, rs) }))

let add2 spec ~rd ~rm =
  step (sis spec).Spec.add2 ~rc:rd ~oprd:(O_reg rm)
    (M_exec (A.Dp { cond = A.AL; op = A.ADD; s = false; rd; rn = rd;
                    op2 = A.Reg rm }))

(* Compute the value of [op2] into register [dst] (assumed distinct from
   the shift-source registers unless it equals the base register itself). *)
let operand_into spec ~dst (op2 : A.operand2) =
  match op2 with
  | A.Reg rm -> if rm = dst then [] else [ mov_rr spec ~rd:dst ~rm ]
  | A.Imm _ ->
      [ seq_materialize spec ~reg:dst (Option.get (A.operand2_value op2)) ]
  | A.Reg_shift (rm, k, n) ->
      let m = if rm = dst then [] else [ mov_rr spec ~rd:dst ~rm ] in
      if n = 0 then m
      else if n <= 15 then m @ [ shift2i spec ~rd:dst k n ]
      else m @ [ shift2i spec ~rd:dst k 15; shift2i spec ~rd:dst k (n - 15) ]
  | A.Reg_shift_reg (rm, k, rs) ->
      let m = if rm = dst then [] else [ mov_rr spec ~rd:dst ~rm ] in
      m @ [ shift2r spec ~rd:dst k rs ]

let cond_code = Pf_arm.Encode.cond_code

let seq_skip spec ~cond ~count =
  if count > 15 then unmappable "skip of %d instructions" count;
  let inv =
    match cond with
    | A.AL -> unmappable "skip with AL condition"
    | c -> (
        (* invert *)
        match c with
        | A.EQ -> A.NE | A.NE -> A.EQ | A.CS -> A.CC | A.CC -> A.CS
        | A.MI -> A.PL | A.PL -> A.MI | A.VS -> A.VC | A.VC -> A.VS
        | A.HI -> A.LS | A.LS -> A.HI | A.GE -> A.LT | A.LT -> A.GE
        | A.GT -> A.LE | A.LE -> A.GT | A.AL -> internal "cannot invert AL")
  in
  step (sis spec).Spec.skip ~rc:0
    ~oprd:(O_arg ((cond_code inv lsl 4) lor count))
    (M_exec (A.B { cond = inv; link = false; offset = (2 * count) - 2 }))

(* ---- expansion of uncovered instructions ------------------------------ *)

let two_op_dp (od_pick : A.dp_op -> Spec.opdef) ~op ~s ~rd ~x =
  (* rd := rd OP x, with the original flag behaviour *)
  step (od_pick op) ~rc:rd ~oprd:(O_reg x)
    (M_exec (A.Dp { cond = A.AL; op; s; rd; rn = rd; op2 = A.Reg x }))

let arith_sub2op spec op =
  let s = sis spec in
  match op with
  | A.AND -> s.Spec.and2
  | A.EOR -> s.Spec.eor2
  | A.SUB -> s.Spec.sub2
  | A.ADD -> s.Spec.add2
  | A.ADC -> s.Spec.adc2
  | A.SBC -> s.Spec.sbc2
  | A.ORR -> s.Spec.orr2
  | A.BIC -> s.Spec.bic2
  | A.RSB | A.RSC -> s.Spec.sub2 (* representatives; micro is exact *)
  | A.TST -> s.Spec.tst_rr
  | A.TEQ -> s.Spec.tst_rr
  | A.CMP -> s.Spec.cmp_rr
  | A.CMN -> s.Spec.cmn_rr
  | A.MOV -> s.Spec.mov_rr
  | A.MVN -> s.Spec.mvn_rr

let expand_dp spec ~op ~s ~rd ~rn ~op2 =
  let pick = arith_sub2op spec in
  match op with
  | A.MOV when (not s) && (match op2 with A.Imm _ -> true | _ -> false) ->
      (* constant move: one dictionary load *)
      [ seq_materialize spec ~reg:rd (Option.get (A.operand2_value op2)) ]
  | A.MOV
    when (not s)
         && (match op2 with
            | A.Reg_shift_reg (_, _, rs) -> rs <> rd
            | A.Reg _ | A.Imm _ | A.Reg_shift _ -> true) ->
      (* build the operand straight into the destination *)
      let steps = operand_into spec ~dst:rd op2 in
      if steps = [] then [ mov_rr spec ~rd ~rm:rd ] else steps
  | A.MOV | A.MVN ->
      (* compute (possibly shifted/immediate) operand, then move *)
      let pre = operand_into spec ~dst:tr op2 in
      pre
      @ [ step (pick op) ~rc:rd ~oprd:(O_reg tr)
            (M_exec (A.Dp { cond = A.AL; op; s; rd; rn = 0; op2 = A.Reg tr }))
        ]
  | A.TST | A.TEQ | A.CMP | A.CMN ->
      let pre = operand_into spec ~dst:tr op2 in
      pre
      @ [ step (pick op) ~rc:rn ~oprd:(O_reg tr)
            (M_exec
               (A.Dp { cond = A.AL; op; s = true; rd = 0; rn;
                       op2 = A.Reg tr }))
        ]
  | A.RSB | A.RSC ->
      (* rd := x - rn (- borrow): compute x into a temp, subtract rn *)
      let pre = operand_into spec ~dst:tr op2 in
      let sub_op = if op = A.RSB then A.SUB else A.SBC in
      pre
      @ [ step (pick op) ~rc:tr ~oprd:(O_reg rn)
            (M_exec
               (A.Dp { cond = A.AL; op = sub_op; s; rd = tr; rn = tr;
                       op2 = A.Reg rn }));
          mov_rr spec ~rd ~rm:tr
        ]
  | A.AND | A.EOR | A.SUB | A.ADD | A.ADC | A.SBC | A.ORR | A.BIC -> (
      let commutative =
        match op with A.ADD | A.AND | A.ORR | A.EOR -> true | _ -> false
      in
      (* commutative destructive form: swap so rd = rn *)
      let rn, op2 =
        match op2 with
        | A.Reg rm when commutative && rd = rm && rd <> rn -> (rm, A.Reg rn)
        | _ -> (rn, op2)
      in
      let x_plain = match op2 with A.Reg rm -> Some rm | _ -> None in
      match x_plain with
      | Some x when rd = rn ->
          [ two_op_dp pick ~op ~s ~rd ~x ]
      | Some x when rd <> x ->
          [ mov_rr spec ~rd ~rm:rn; two_op_dp pick ~op ~s ~rd ~x ]
      | Some x ->
          (* rd = x <> rn: stash the operand first *)
          [ mov_rr spec ~rd:tr ~rm:x;
            mov_rr spec ~rd ~rm:rn;
            two_op_dp pick ~op ~s ~rd ~x:tr ]
      | None ->
          let pre = operand_into spec ~dst:tr op2 in
          if rd = rn then pre @ [ two_op_dp pick ~op ~s ~rd ~x:tr ]
          else
            pre
            @ [ mov_rr spec ~rd ~rm:rn; two_op_dp pick ~op ~s ~rd ~x:tr ])

let mem_via_temp spec ~load ~width ~signed ~rd =
  (* the effective address is in [tr]; emit the access itself *)
  let s = sis spec in
  let mem od ~dest ~base ~ofs w =
    step od ~rc:dest ~ra:base ~oprd:(O_lit ofs)
      (M_exec
         (A.Mem { cond = A.AL; load; width = w; signed = false; rd = dest;
                  rn = base; offset = A.Ofs_imm ofs; writeback = false }))
  in
  match (load, width, signed) with
  | true, A.Word, _ -> [ mem s.Spec.ldrw ~dest:rd ~base:tr ~ofs:0 A.Word ]
  | false, A.Word, _ -> [ mem s.Spec.strw ~dest:rd ~base:tr ~ofs:0 A.Word ]
  | true, A.Byte, false -> [ mem s.Spec.ldrb ~dest:rd ~base:tr ~ofs:0 A.Byte ]
  | false, A.Byte, _ -> [ mem s.Spec.strb ~dest:rd ~base:tr ~ofs:0 A.Byte ]
  | true, A.Byte, true ->
      [ mem s.Spec.ldrb ~dest:rd ~base:tr ~ofs:0 A.Byte;
        shift2i spec ~rd A.LSL 24;
        shift2i spec ~rd A.ASR 24 ]
  | true, A.Half, false ->
      (* high byte first, then reuse tr for the low byte *)
      [ mem s.Spec.ldrb ~dest:rd ~base:tr ~ofs:1 A.Byte;
        shift2i spec ~rd A.LSL 8;
        mem s.Spec.ldrb ~dest:tr ~base:tr ~ofs:0 A.Byte;
        step s.Spec.orr2 ~rc:rd ~oprd:(O_reg tr)
          (M_exec
             (A.Dp { cond = A.AL; op = A.ORR; s = false; rd; rn = rd;
                     op2 = A.Reg tr })) ]
  | true, A.Half, true ->
      [ mem s.Spec.ldrb ~dest:rd ~base:tr ~ofs:1 A.Byte;
        shift2i spec ~rd A.LSL 8;
        mem s.Spec.ldrb ~dest:tr ~base:tr ~ofs:0 A.Byte;
        step s.Spec.orr2 ~rc:rd ~oprd:(O_reg tr)
          (M_exec
             (A.Dp { cond = A.AL; op = A.ORR; s = false; rd; rn = rd;
                     op2 = A.Reg tr }));
        shift2i spec ~rd A.LSL 16;
        shift2i spec ~rd A.ASR 16 ]
  | false, A.Half, _ ->
      (* store low byte, rotate to expose the high byte, restore *)
      [ mem s.Spec.strb ~dest:rd ~base:tr ~ofs:0 A.Byte;
        shift2i spec ~rd A.ROR 8;
        mem s.Spec.strb ~dest:rd ~base:tr ~ofs:1 A.Byte;
        shift2i spec ~rd A.ROR 24 ]

let expand_mem spec ~load ~width ~signed ~rd ~rn ~offset ~writeback =
  (* compute the effective address into tr *)
  let addr =
    match offset with
    | A.Ofs_imm ofs ->
        [ seq_materialize spec ~reg:tr ofs; add2 spec ~rd:tr ~rm:rn ]
    | A.Ofs_reg (rx, k, n) ->
        operand_into spec ~dst:tr (if n = 0 then A.Reg rx
                                   else A.Reg_shift (rx, k, n))
        @ [ add2 spec ~rd:tr ~rm:rn ]
  in
  let wb = if writeback then [ mov_rr spec ~rd:rn ~rm:tr ] else [] in
  addr @ wb @ mem_via_temp spec ~load ~width ~signed ~rd

let expand_mul spec ~rd ~rm ~rs ~acc ~s =
  let sgroup = sis spec in
  let mul2 ~dest ~other =
    step sgroup.Spec.mul2 ~rc:dest ~oprd:(O_reg other)
      (M_exec (A.Mul { cond = A.AL; s; rd = dest; rm = dest; rs = other;
                       acc = None }))
  in
  match acc with
  | None ->
      if rd = rm then [ mul2 ~dest:rd ~other:rs ]
      else if rd = rs then [ mul2 ~dest:rd ~other:rm ]
      else [ mov_rr spec ~rd ~rm; mul2 ~dest:rd ~other:rs ]
  | Some rn ->
      (* rd := rm*rs + rn using the scratch register *)
      [ mov_rr spec ~rd:tr ~rm;
        mul2 ~dest:tr ~other:rs;
        add2 spec ~rd:tr ~rm:rn;
        mov_rr spec ~rd ~rm:tr ]

let strip_cond (insn : A.t) : A.t =
  match insn with
  | A.Dp d -> A.Dp { d with cond = A.AL }
  | A.Mul m -> A.Mul { m with cond = A.AL }
  | A.Mem m -> A.Mem { m with cond = A.AL }
  | A.Push p -> A.Push { p with cond = A.AL }
  | A.Pop p -> A.Pop { p with cond = A.AL }
  | A.B b -> A.B { b with cond = A.AL }
  | A.Bx b -> A.Bx { b with cond = A.AL }
  | A.Swi s -> A.Swi { s with cond = A.AL }

let expand spec (insn : A.t) =
  match insn with
  | A.Dp { op; s; rd; rn; op2; _ } -> expand_dp spec ~op ~s ~rd ~rn ~op2
  | A.Mul { s; rd; rm; rs; acc; _ } -> expand_mul spec ~rd ~rm ~rs ~acc ~s
  | A.Mem { load; width; signed; rd; rn; offset; writeback; _ } ->
      expand_mem spec ~load ~width ~signed ~rd ~rn ~offset ~writeback
  | A.Push _ | A.Pop _ ->
      unmappable "register-list table overflow (more than 256 lists)"
  | A.Bx _ | A.Swi _ | A.B _ ->
      unmappable "unexpected expansion request for %s" (A.to_string insn)

let plan spec ~pc (insn : A.t) =
  match insn with
  | A.B { cond; link; offset } ->
      P_branch { cond; link; arm_target = pc + 8 + offset }
  | _ -> (
      match covered spec insn with
      | Some od -> P_seq [ direct spec od insn ]
      | None ->
          let cond = A.cond_of insn in
          if cond <> A.AL then begin
            let base = strip_cond insn in
            let inner =
              match covered spec base with
              | Some od -> [ direct spec od base ]
              | None -> expand spec base
            in
            P_seq (seq_skip spec ~cond ~count:(List.length inner) :: inner)
          end
          else P_seq (expand spec insn))

let plan_length = function
  | P_seq l -> List.length l
  | P_branch _ -> 1

let may_change_plan spec (od : Spec.opdef) (insn : A.t) =
  op_covers spec od insn
  || (A.cond_of insn <> A.AL && op_covers spec od (strip_cond insn))

(* PC-relative literal-pool loads are the one place ARM code reads its own
   code segment.  FITS replaces the pool with the immediate dictionary
   (paper §3.3): the load becomes a single MovD carrying the pool's value,
   so it is resolved against the image here. *)
let pool_load (image : Pf_arm.Image.t) ~pc (insn : A.t) =
  match insn with
  | A.Mem { cond = A.AL; load = true; width = A.Word; signed = false; rd;
            rn = 15; offset = A.Ofs_imm ofs; writeback = false } ->
      Some (rd, Pf_arm.Image.word_at image (pc + 8 + ofs))
  | _ -> None

let plan_in_image spec image ~pc insn =
  match pool_load image ~pc insn with
  | Some (rd, value) -> P_seq [ seq_materialize spec ~reg:rd value ]
  | None -> plan spec ~pc insn
