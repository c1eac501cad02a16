module A = Pf_arm.Insn
open Pf_util

let log_src = Logs.Src.create "pf.fits.synthesis" ~doc:"FITS ISA synthesis"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  spec : Spec.t;
  ais : Spec.opdef list;
  candidates_considered : int;
  datapath_off : float;
  dict_spilled : int;
}

type program = {
  p_image : Pf_arm.Image.t;
  p_dyn_counts : int array;
  p_mult : int;
}

let dyn_counts_of_run ?max_steps ?deadline (image : Pf_arm.Image.t) =
  let counts = Array.make (Array.length image.Pf_arm.Image.words) 0 in
  let st = Pf_arm.Exec.create image in
  Pf_arm.Pexec.run ?max_steps ?deadline ~counts (Pf_arm.Pexec.compile image)
    st;
  (counts, Pf_arm.Exec.output st)

let mem_scale_of (w : A.mem_width) =
  match w with A.Word -> 2 | A.Half -> 1 | A.Byte -> 0

(* One static instruction with its address, dynamic weight, and owning
   image (multi-program synthesis mixes sites from several images; every
   mapping query must resolve literal pools against the right one). *)
type site = { img : Pf_arm.Image.t; pc : int; insn : A.t; dyn : int }

let sites_of_program { p_image = image; p_dyn_counts; p_mult } =
  if p_mult < 1 then
    Sim_error.raisef Sim_error.Invalid_config ~where:"fits.synthesis"
      "program weight multiplier must be >= 1 (got %d)" p_mult;
  let out = ref [] in
  Array.iteri
    (fun idx insn ->
      match insn with
      | Some insn ->
          let pc = image.Pf_arm.Image.code_base + (idx * 4) in
          out :=
            { img = image; pc; insn; dyn = p_mult * p_dyn_counts.(idx) }
            :: !out
      | None -> ())
    image.Pf_arm.Image.insns;
  Array.of_list (List.rev !out)

let sites_of_suite programs =
  Array.concat (List.map sites_of_program programs)

let sites_of image ~dyn_counts =
  sites_of_program { p_image = image; p_dyn_counts = dyn_counts; p_mult = 1 }

(* ---- dictionary head and register lists -------------------------------- *)

let dict_head_of sites =
  let h = Stats.histogram () in
  Array.iter
    (fun { insn; dyn; _ } ->
      match insn with
      | A.Dp { op2 = A.Imm _ as op2; _ } -> (
          match A.operand2_value op2 with
          | Some v when v > 15 -> Stats.add h ~weight:(dyn + 1) v
          | Some _ | None -> ())
      | A.Mem { offset = A.Ofs_imm ofs; width; rn; _ } ->
          (* displacements beyond the direct field also compete for the
             dictionary head (S3.3: category-based immediate synthesis) *)
          let scale = mem_scale_of width in
          if rn <> 15 && not (ofs >= 0 && ofs lsr scale <= 15
                              && ofs land ((1 lsl scale) - 1) = 0)
          then Stats.add h ~weight:(dyn + 1) ofs
      | _ -> ())
    sites;
  Stats.top h 16 |> List.map fst |> Array.of_list

let reglists_of sites =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun { insn; _ } ->
      match insn with
      | A.Push { regs; _ } | A.Pop { regs; _ } ->
          if not (Hashtbl.mem seen regs) then begin
            Hashtbl.add seen regs ();
            out := regs :: !out
          end
      | _ -> ())
    sites;
  Array.of_list (List.rev !out)

(* ---- candidate generation ---------------------------------------------- *)

type cand = {
  name : string;
  key : Opkey.t;
  cond : A.cond;
  imm : Spec.imm_policy;
  fmt : Spec.format;
}

let mem_scale = mem_scale_of

(* Candidates that could cover [insn] one-to-one if allocated. *)
let candidates_for (insn : A.t) : cand list =
  let cond = A.cond_of insn in
  let dp_name op s two shape_str imm =
    Printf.sprintf "%s%s%s.%s%s" (A.dp_name op)
      (if s then "s" else "")
      (if two then "2" else "3")
      shape_str
      (match (imm : Spec.imm_policy) with
      | Spec.Imm_dict -> "d"
      | Spec.Imm_lit _ | Spec.Imm_none -> "")
    ^ (match cond with A.AL -> "" | c -> "?" ^ A.cond_suffix c)
  in
  match insn with
  | A.Dp { op; s; rd; rn; op2; _ } -> (
      let two_op =
        match op with
        | A.MOV | A.MVN | A.TST | A.TEQ | A.CMP | A.CMN -> true
        | _ -> rd = rn
      in
      let mk ?(two = false) shape shape_str imm =
        {
          name = dp_name op s two shape_str imm;
          key = Opkey.K_dp { op; shape; s; two_op = two };
          cond;
          imm;
          fmt = (if two then Spec.Fmt_operate2 else Spec.Fmt_operate3);
        }
      in
      match op2 with
      | A.Reg _ ->
          [ mk Opkey.Sh_reg "rr" Spec.Imm_none ]
          @ (if two_op then [ mk ~two:true Opkey.Sh_reg "rr" Spec.Imm_none ]
             else [])
      | A.Imm _ -> (
          match A.operand2_value op2 with
          | Some v ->
              (if v <= 15 then
                 [ mk Opkey.Sh_imm "ri" (Spec.Imm_lit { scale = 0 }) ]
                 @ (if two_op then
                      [ mk ~two:true Opkey.Sh_imm "ri"
                          (Spec.Imm_lit { scale = 0 }) ]
                    else [])
               else [])
              @ [ mk Opkey.Sh_imm "ri" Spec.Imm_dict ]
              @ (if two_op then
                   [ mk ~two:true Opkey.Sh_imm "ri" Spec.Imm_dict ]
                 else [])
          | None -> [])
      | A.Reg_shift (_, k, n) ->
          let kname = String.lowercase_ascii (A.shift_name k) in
          (* amount baked into the opcode: a three-operand form *)
          [ mk (Opkey.Sh_shift_imm (k, n))
              (Printf.sprintf "r%s%d" kname n)
              Spec.Imm_none ]
          (* destructive form: the amount bakes into a cheap sub-op *)
          @ (if two_op then
               [ mk ~two:true
                   (Opkey.Sh_shift_imm (k, n))
                   (Printf.sprintf "r%s%d" kname n)
                   Spec.Imm_none ]
             else [])
          @
          (* for moves: generic shift-by-literal (amount in the field) *)
          (match op with
          | A.MOV | A.MVN when n <= 15 ->
              [ mk
                  (Opkey.Sh_shift_imm (k, Spec.shift_amount_wildcard))
                  (kname ^ "i")
                  (Spec.Imm_lit { scale = 0 }) ]
          | _ -> [])
      | A.Reg_shift_reg (_, k, _) ->
          let kname = String.lowercase_ascii (A.shift_name k) in
          [ mk (Opkey.Sh_shift_reg k) ("r" ^ kname ^ "r") Spec.Imm_none ]
          @ (if two_op then
               [ mk ~two:true (Opkey.Sh_shift_reg k) ("r" ^ kname ^ "r")
                   Spec.Imm_none ]
             else []))
  | A.Mul { acc; _ } ->
      [
        {
          name = (if acc = None then "mul3" else "mla3");
          key = Opkey.K_mul { acc = acc <> None };
          cond;
          imm = Spec.Imm_none;
          fmt = Spec.Fmt_operate3;
        };
      ]
  | A.Mem { load; width; signed; offset; writeback; _ } ->
      let mode, imm, suffix =
        match offset with
        | A.Ofs_imm _ ->
            ( Opkey.M_imm,
              Spec.Imm_lit { scale = mem_scale width },
              "+i" )
        | A.Ofs_reg (_, A.LSL, 0) -> (Opkey.M_reg, Spec.Imm_none, "+r")
        | A.Ofs_reg (_, A.LSL, n) ->
            (Opkey.M_reg_shift n, Spec.Imm_none, Printf.sprintf "+r<<%d" n)
        | A.Ofs_reg (_, (A.LSR | A.ASR | A.ROR), _) ->
            (Opkey.M_reg, Spec.Imm_none, "+r")
      in
      let base_name policy_suffix =
        Printf.sprintf "%s.%s%s%s%s"
          (if load then "ldr" else "str")
          (Opkey.width_str width signed)
          suffix policy_suffix
          (if writeback then "!" else "")
      in
      (match offset with
      | A.Ofs_reg (_, (A.LSR | A.ASR | A.ROR), _) -> []
      | _ ->
          [
            {
              name = base_name "";
              key = Opkey.K_mem { load; width; signed; mode; writeback };
              cond;
              imm;
              fmt = Spec.Fmt_memory;
            };
          ]
          @
          (* dictionary-displacement variant for immediate addressing *)
          (match offset with
          | A.Ofs_imm _ ->
              [
                {
                  name = base_name "d";
                  key = Opkey.K_mem { load; width; signed; mode; writeback };
                  cond;
                  imm = Spec.Imm_dict;
                  fmt = Spec.Fmt_memory;
                };
              ]
          | _ -> []))
  | A.Push _ | A.Pop _ | A.B _ | A.Bx _ | A.Swi _ -> []

(* ---- allocation --------------------------------------------------------- *)

(* Free encoding space of the base spec: groups 11-15 and the spare
   operate2/system sub-slots (group 1 subs 11-15; group 10 subs 6-15). *)
type space = {
  mutable free_groups : int list;
  mutable free_slots : (int * int) list;
}

let base_space ?(ais_groups = 5) () =
  {
    free_groups =
      List.filteri (fun i _ -> i < ais_groups) [ 11; 12; 13; 14; 15 ];
    free_slots =
      List.map (fun s -> (1, s)) [ 11; 12; 13; 14; 15 ]
      @ List.map (fun s -> (10, s)) [ 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ];
  }

let take_group sp =
  match sp.free_groups with
  | g :: tl ->
      sp.free_groups <- tl;
      Some g
  | [] -> None

let take_slot sp =
  match sp.free_slots with
  | gs :: tl ->
      sp.free_slots <- tl;
      Some gs
  | [] -> (
      (* open a fresh operate2 group: 16 new sub-slots *)
      match take_group sp with
      | Some g ->
          sp.free_slots <- List.map (fun s -> (g, s)) (List.init 15 (fun i -> i + 1));
          Some (g, 0)
      | None -> None)

let opdef_of_cand ~id ~group ~sub (c : cand) : Spec.opdef =
  {
    Spec.id;
    name = c.name;
    key = Some c.key;
    cond = c.cond;
    imm = c.imm;
    fmt = c.fmt;
    group;
    sub;
    sys = None;
  }

let data_plane (image : Pf_arm.Image.t) ~dyn_counts =
  let sites = sites_of image ~dyn_counts in
  (dict_head_of sites, reglists_of sites)

let synthesize_suite ?(static_weight = 1.0) ?(ais_groups = 5)
    ?(dict_head = 16) ?(allow_two_op_ais = true) ?dict_budget
    (programs : program list) =
  let sites = sites_of_suite programs in
  let total_dyn = Array.fold_left (fun a s -> a + s.dyn) 0 sites in
  let avg_dyn =
    if Array.length sites = 0 then 1.0
    else float_of_int total_dyn /. float_of_int (Array.length sites)
  in
  let weight s = float_of_int s.dyn +. (static_weight *. avg_dyn) in
  let dict_head_vals = dict_head_of sites in
  let dict_head_vals =
    Array.sub dict_head_vals 0 (min dict_head (Array.length dict_head_vals))
  in
  let reglists = reglists_of sites in
  let base = Spec.base ~dict_head:dict_head_vals ~reglists in
  (* current mapping length per site under the evolving spec *)
  let len = Array.make (Array.length sites) 1 in
  let replan spec i =
    let s = sites.(i) in
    len.(i) <-
      Mapping.plan_length (Mapping.plan_in_image spec s.img ~pc:s.pc s.insn)
  in
  Array.iteri (fun i _ -> replan base i) sites;
  (* candidate pool with per-site coverage lists *)
  let cand_tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      if len.(i) > 1 then
        List.iter
          (fun c ->
            let cell =
              match Hashtbl.find_opt cand_tbl (c.key, c.cond, c.imm, c.fmt)
              with
              | Some cell -> cell
              | None ->
                  let cell = (c, ref []) in
                  Hashtbl.add cand_tbl (c.key, c.cond, c.imm, c.fmt) cell;
                  cell
            in
            let _, sites_ref = cell in
            sites_ref := i :: !sites_ref)
          (candidates_for s.insn))
    sites;
  let candidates =
    Hashtbl.fold (fun _ (c, sr) acc -> (c, !sr) :: acc) cand_tbl []
    |> List.filter (fun ((c : cand), _) ->
           allow_two_op_ais || c.fmt <> Spec.Fmt_operate2)
  in
  let candidates_considered = List.length candidates in
  (* Keep each candidate's sites that a trial opdef covers exactly.
     Coverage reads the spec only through its dictionary and register
     lists, which allocation never changes, so one test against [base]
     holds for the whole loop; the kept sites stay in list order. *)
  let candidates =
    List.map
      (fun (c, site_idxs) ->
        let od = opdef_of_cand ~id:(-1) ~group:0 ~sub:0 c in
        (c, List.filter (fun i -> Mapping.op_covers base od sites.(i).insn)
              site_idxs))
      candidates
  in
  (* sites whose plan is still longer than one instruction; a length-1
     plan never changes again *)
  let open_sites =
    ref (List.filter (fun i -> len.(i) > 1)
           (List.init (Array.length sites) Fun.id))
  in
  let sp = base_space ~ais_groups () in
  let ais = ref [] in
  let next_id = ref (Array.length base.Spec.ops) in
  let spec = ref base in
  let remaining = ref candidates in
  let continue_alloc = ref true in
  while !continue_alloc do
    (* benefit of each remaining candidate under current lens *)
    let scored =
      List.filter_map
        (fun (c, covered) ->
          let b =
            List.fold_left
              (fun acc i ->
                if len.(i) > 1 then
                  acc +. (weight sites.(i) *. float_of_int (len.(i) - 1))
                else acc)
              0.0 covered
          in
          if b > 0.0 then Some (c, b) else None)
        !remaining
    in
    let sorted =
      List.sort (fun (_, b1) (_, b2) -> compare b2 b1) scored
    in
    (* place the most beneficial candidate that still fits; skipping an
       unplaceable operate3/memory candidate must not strand cheaper
       sub-op candidates further down the list *)
    let rec place_first = function
      | [] -> None
      | (c, _) :: tl -> (
          let placed =
            match c.fmt with
            | Spec.Fmt_operate2 -> take_slot sp
            | _ -> ( match take_group sp with
                     | Some g -> Some (g, 0)
                     | None -> None)
          in
          match placed with
          | Some (group, sub) -> Some (c, group, sub)
          | None -> place_first tl)
    in
    (match place_first sorted with
    | None -> continue_alloc := false
    | Some (best, group, sub) ->
        let od = opdef_of_cand ~id:!next_id ~group ~sub best in
        Log.debug (fun m ->
            m "AIS pick: %s -> slot %d.%d" best.name group sub);
        incr next_id;
        ais := od :: !ais;
        spec := Spec.with_ais !spec [ od ];
        (* re-plan only the sites the new opcode can reach
           ({!Mapping.may_change_plan}) *)
        open_sites :=
          List.filter
            (fun i ->
              if Mapping.may_change_plan !spec od sites.(i).insn then
                replan !spec i;
              len.(i) > 1)
            !open_sites;
        remaining := List.filter (fun (c, _) -> c <> best) !remaining);
    if !remaining = [] then continue_alloc := false
  done;
  let spec = !spec in
  (* extend the dictionary with every value final plans require *)
  let needed = Stats.histogram () in
  Array.iter
    (fun s ->
      match Mapping.plan_in_image spec s.img ~pc:s.pc s.insn with
      | Mapping.P_seq fds ->
          List.iter
            (fun (fd : Mapping.fdesc) ->
              match fd.Mapping.oprd with
              | Mapping.O_dictval v -> Stats.add needed ~weight:(s.dyn + 1) v
              | _ -> ())
            fds
      | Mapping.P_branch _ -> ())
    sites;
  let head = Array.to_list spec.Spec.dict in
  let extra =
    Stats.sorted_desc needed
    |> List.map fst
    |> List.filter (fun v -> not (List.mem v head))
  in
  let total = List.length head + List.length extra in
  (* Without a [dict_budget] the union of required values must fit outright
     (per-application synthesis: overflow is a capacity bug).  With one, a
     suite whose union exceeds the budget keeps the hottest values and
     spills the rest — a spilled value simply stays per-program: translate
     appends it to the reloadable dictionary tail of any program that
     needs it (the §3.1 data-plane upgrade path). *)
  let dict, dict_spilled =
    match dict_budget with
    | None ->
        if total > Spec.dict_capacity then
          raise
            (Mapping.Unmappable
               (Printf.sprintf "dictionary overflow: %d values" total));
        (head @ extra, 0)
    | Some b ->
        let budget = min b Spec.dict_capacity in
        if total <= budget then (head @ extra, 0)
        else
          let keep = max 0 (budget - List.length head) in
          ( head @ List.filteri (fun i _ -> i < keep) extra,
            List.length extra - keep )
  in
  let spec = { spec with Spec.dict = Array.of_list dict } in
  (* datapath deactivation: units never named by the synthesized ISA can be
     powered off.  Units = the 16 dp ops + multiplier + each memory width
     on each port + the barrel shifter's four modes. *)
  let used = Hashtbl.create 32 in
  let mark u = Hashtbl.replace used u () in
  Array.iter
    (fun (od : Spec.opdef) ->
      match od.Spec.key with
      | Some (Opkey.K_dp { op; shape; _ }) ->
          mark (`Dp op);
          (match shape with
          | Opkey.Sh_shift_imm (k, _) | Opkey.Sh_shift_reg k -> mark (`Shift k)
          | Opkey.Sh_reg | Opkey.Sh_imm -> ())
      | Some (Opkey.K_mul { acc }) -> mark (if acc then `Mla else `Mul)
      | Some (Opkey.K_mem { load; width; _ }) -> mark (`Mem (load, width))
      | Some (Opkey.K_push | Opkey.K_pop) -> mark `Stack
      | Some (Opkey.K_branch _ | Opkey.K_bx | Opkey.K_swi) | None -> ())
    spec.Spec.ops;
  let total_units = 16 + 2 + 6 + 4 + 1 in
  let used_units = Hashtbl.length used in
  let off_fraction =
    float_of_int (total_units - used_units) /. float_of_int total_units
  in
  (* the datapath is a modest slice of non-cache chip power *)
  let datapath_off = 0.12 *. off_fraction in
  Log.info (fun m ->
      m "synthesized %d AIS opcodes from %d candidates; dictionary %d          entries; datapath-off estimate %.3f"
        (List.length !ais) candidates_considered
        (Array.length spec.Spec.dict) datapath_off);
  {
    spec;
    ais = List.rev !ais;
    candidates_considered;
    datapath_off;
    dict_spilled;
  }

let synthesize ?static_weight ?ais_groups ?dict_head ?allow_two_op_ais
    (image : Pf_arm.Image.t) ~dyn_counts =
  synthesize_suite ?static_weight ?ais_groups ?dict_head ?allow_two_op_ais
    [ { p_image = image; p_dyn_counts = dyn_counts; p_mult = 1 } ]

type flow = { syn : result; tr : Translate.t; output : string }

let flow ?max_steps ?deadline image =
  let dyn_counts, output = dyn_counts_of_run ?max_steps ?deadline image in
  let syn = synthesize image ~dyn_counts in
  { syn; tr = Translate.translate syn.spec image; output }
