module A = Pf_arm.Insn
open Pf_util

type t = {
  static_keys : (Opkey.predicated, int) Hashtbl.t;
  dyn_keys : (Opkey.predicated, int) Hashtbl.t;
  imm_op_static : Stats.histogram;
  imm_op_dyn : Stats.histogram;
  mem_ofs_static : Stats.histogram;
  mem_ofs_dyn : Stats.histogram;
  branch_disp_static : Stats.histogram;
  reg_static : Stats.histogram;
  reg_dyn : Stats.histogram;
  mutable static_insns : int;
  mutable dyn_insns : int;
}

let create () =
  {
    static_keys = Hashtbl.create 128;
    dyn_keys = Hashtbl.create 128;
    imm_op_static = Stats.histogram ();
    imm_op_dyn = Stats.histogram ();
    mem_ofs_static = Stats.histogram ();
    mem_ofs_dyn = Stats.histogram ();
    branch_disp_static = Stats.histogram ();
    reg_static = Stats.histogram ();
    reg_dyn = Stats.histogram ();
    static_insns = 0;
    dyn_insns = 0;
  }

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some c -> Hashtbl.replace tbl key (c + n)
  | None -> Hashtbl.add tbl key n

let add t ?(dyn_weight = 0) (i : A.t) =
  let pk = Opkey.of_insn i in
  t.static_insns <- t.static_insns + 1;
  t.dyn_insns <- t.dyn_insns + dyn_weight;
  bump t.static_keys pk 1;
  if dyn_weight > 0 then bump t.dyn_keys pk dyn_weight;
  (* immediate fields, by category *)
  (match i with
  | A.Dp { op2 = A.Imm _ as op2; _ } -> (
      match A.operand2_value op2 with
      | Some v ->
          Stats.add t.imm_op_static v;
          if dyn_weight > 0 then Stats.add t.imm_op_dyn ~weight:dyn_weight v
      | None -> ())
  | A.Mem { offset = A.Ofs_imm ofs; _ } ->
      Stats.add t.mem_ofs_static ofs;
      if dyn_weight > 0 then Stats.add t.mem_ofs_dyn ~weight:dyn_weight ofs
  | A.B { offset; _ } -> Stats.add t.branch_disp_static offset
  | A.Dp _ | A.Mem _ | A.Mul _ | A.Push _ | A.Pop _ | A.Bx _ | A.Swi _ -> ());
  (* register pressure *)
  let regs = A.regs_read i @ A.regs_written i in
  List.iter
    (fun r ->
      Stats.add t.reg_static r;
      if dyn_weight > 0 then Stats.add t.reg_dyn ~weight:dyn_weight r)
    regs

let of_image (image : Pf_arm.Image.t) =
  let t = create () in
  Array.iter
    (function Some i -> add t i | None -> ())
    image.Pf_arm.Image.insns;
  t

let of_image_counts (image : Pf_arm.Image.t) ~counts =
  let t = create () in
  Array.iteri
    (fun idx insn ->
      match insn with
      | Some i -> add t ~dyn_weight:counts.(idx) i
      | None -> ())
    image.Pf_arm.Image.insns;
  t

(* ---- the profile algebra ------------------------------------------------ *)

(* Merging is plain integer addition on every component, so it is
   commutative and associative up to the semantic equality below, and
   [create ()] is its unit — the laws the multi-program synthesis relies
   on (and test/test_multi.ml checks with QCheck). *)

let hist_merge_into dst src =
  List.iter (fun (k, w) -> Stats.add dst ~weight:w k) (Stats.sorted_desc src)

let tbl_merge_into dst src = Hashtbl.iter (fun k n -> bump dst k n) src

let merge a b =
  let t = create () in
  tbl_merge_into t.static_keys a.static_keys;
  tbl_merge_into t.static_keys b.static_keys;
  tbl_merge_into t.dyn_keys a.dyn_keys;
  tbl_merge_into t.dyn_keys b.dyn_keys;
  hist_merge_into t.imm_op_static a.imm_op_static;
  hist_merge_into t.imm_op_static b.imm_op_static;
  hist_merge_into t.imm_op_dyn a.imm_op_dyn;
  hist_merge_into t.imm_op_dyn b.imm_op_dyn;
  hist_merge_into t.mem_ofs_static a.mem_ofs_static;
  hist_merge_into t.mem_ofs_static b.mem_ofs_static;
  hist_merge_into t.mem_ofs_dyn a.mem_ofs_dyn;
  hist_merge_into t.mem_ofs_dyn b.mem_ofs_dyn;
  hist_merge_into t.branch_disp_static a.branch_disp_static;
  hist_merge_into t.branch_disp_static b.branch_disp_static;
  hist_merge_into t.reg_static a.reg_static;
  hist_merge_into t.reg_static b.reg_static;
  hist_merge_into t.reg_dyn a.reg_dyn;
  hist_merge_into t.reg_dyn b.reg_dyn;
  t.static_insns <- a.static_insns + b.static_insns;
  t.dyn_insns <- a.dyn_insns + b.dyn_insns;
  t

let merge_all ps = List.fold_left merge (create ()) ps

let scale t k =
  if k < 0 then
    Sim_error.raisef Sim_error.Invalid_config ~where:"fits.profile"
      "Profile.scale: negative factor %d" k;
  let r = create () in
  tbl_merge_into r.static_keys t.static_keys;
  Hashtbl.iter (fun key n -> bump r.dyn_keys key (n * k)) t.dyn_keys;
  hist_merge_into r.imm_op_static t.imm_op_static;
  hist_merge_into r.mem_ofs_static t.mem_ofs_static;
  hist_merge_into r.branch_disp_static t.branch_disp_static;
  hist_merge_into r.reg_static t.reg_static;
  List.iter
    (fun (key, w) -> Stats.add r.imm_op_dyn ~weight:(w * k) key)
    (Stats.sorted_desc t.imm_op_dyn);
  List.iter
    (fun (key, w) -> Stats.add r.mem_ofs_dyn ~weight:(w * k) key)
    (Stats.sorted_desc t.mem_ofs_dyn);
  List.iter
    (fun (key, w) -> Stats.add r.reg_dyn ~weight:(w * k) key)
    (Stats.sorted_desc t.reg_dyn);
  r.static_insns <- t.static_insns;
  r.dyn_insns <- t.dyn_insns * k;
  r

(* Semantic equality: hashtable/histogram internals (insertion order,
   zero-weight residue) must not distinguish profiles, so everything is
   compared through a canonical sorted view that drops zero entries. *)
let equal a b =
  let canon_tbl tbl =
    Hashtbl.fold (fun k n acc -> if n = 0 then acc else (k, n) :: acc) tbl []
    |> List.sort compare
  in
  let canon_hist h =
    List.filter (fun (_, w) -> w <> 0) (Stats.sorted_desc h)
    |> List.sort compare
  in
  a.static_insns = b.static_insns
  && a.dyn_insns = b.dyn_insns
  && canon_tbl a.static_keys = canon_tbl b.static_keys
  && canon_tbl a.dyn_keys = canon_tbl b.dyn_keys
  && canon_hist a.imm_op_static = canon_hist b.imm_op_static
  && canon_hist a.imm_op_dyn = canon_hist b.imm_op_dyn
  && canon_hist a.mem_ofs_static = canon_hist b.mem_ofs_static
  && canon_hist a.mem_ofs_dyn = canon_hist b.mem_ofs_dyn
  && canon_hist a.branch_disp_static = canon_hist b.branch_disp_static
  && canon_hist a.reg_static = canon_hist b.reg_static
  && canon_hist a.reg_dyn = canon_hist b.reg_dyn

let dyn_key_count t pk =
  match Hashtbl.find_opt t.dyn_keys pk with Some c -> c | None -> 0

let static_key_count t pk =
  match Hashtbl.find_opt t.static_keys pk with Some c -> c | None -> 0

let keys_by_dyn_weight t =
  let all = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace all k ()) t.static_keys;
  Hashtbl.iter (fun k _ -> Hashtbl.replace all k ()) t.dyn_keys;
  Hashtbl.fold (fun k () acc -> (k, dyn_key_count t k) :: acc) all []
  |> List.sort (fun (k1, w1) (k2, w2) ->
         if w1 <> w2 then compare w2 w1 else compare k1 k2)

let registers_by_use t =
  List.init 16 Fun.id
  |> List.sort (fun a b ->
         compare (Stats.count t.reg_dyn b) (Stats.count t.reg_dyn a))

let summary t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "static instructions: %d\n" t.static_insns;
  Printf.bprintf buf "dynamic instructions: %d\n" t.dyn_insns;
  Printf.bprintf buf "distinct operation keys: %d\n"
    (Hashtbl.length t.static_keys);
  Printf.bprintf buf "top keys by dynamic weight:\n";
  List.iteri
    (fun i (pk, w) ->
      if i < 15 then
        Printf.bprintf buf "  %-14s%s  dyn=%-10d static=%d\n"
          (Opkey.to_string pk.Opkey.key)
          (match pk.Opkey.cond with
          | A.AL -> ""
          | c -> "?" ^ A.cond_suffix c)
          w (static_key_count t pk))
    (keys_by_dyn_weight t);
  Printf.bprintf buf "distinct operate immediates: %d (static)\n"
    (Stats.distinct t.imm_op_static);
  Printf.bprintf buf "distinct memory offsets: %d (static)\n"
    (Stats.distinct t.mem_ofs_static);
  Buffer.contents buf
