(* Synthesis pins: MD5s of canonical renders of Pf_fits.Synthesis results
   over two input sets, so any change to the allocation loop that moves a
   pick, a dictionary entry or the datapath estimate fails here.

   (a) The 21 registry benchmarks and 64 generated programs (seed 42),
       per application at the default knobs, [~ais_groups:2] and
       [~allow_two_op_ais:false], plus one suite synthesis over each set.
   (b) 2000 seeded straight-line images of data-processing instructions
       under AL/EQ/NE conditions.  A predicated site shrinks, without
       being covered itself, when an AL opcode covers its condition-
       stripped base.  A loop that misses that case still passes set (a),
       but changes the render of 830 of these 2000 images. *)

module A = Pf_arm.Insn
module Syn = Pf_fits.Synthesis

let render (r : Syn.result) =
  let b = Buffer.create 512 in
  List.iter
    (fun (od : Pf_fits.Spec.opdef) ->
      Printf.bprintf b "%s %d.%d\n" od.Pf_fits.Spec.name od.Pf_fits.Spec.group
        od.Pf_fits.Spec.sub)
    r.Syn.ais;
  Array.iter (Printf.bprintf b "%d ") r.Syn.spec.Pf_fits.Spec.dict;
  Printf.bprintf b "\ncands=%d off=%.17g spilled=%d\n"
    r.Syn.candidates_considered r.Syn.datapath_off r.Syn.dict_spilled;
  Buffer.contents b

(* a result, or the error a synthesis raised, as one line of text *)
let render_or_error f =
  match f () with
  | r -> render r
  | exception Pf_fits.Mapping.Unmappable msg -> "unmappable: " ^ msg ^ "\n"

let md5 s = Digest.to_hex (Digest.string s)

(* ---- (a) registry and generated programs ------------------------------ *)

let prepare (b : Pf_mibench.Registry.benchmark) =
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
      (b.Pf_mibench.Registry.program ~scale:1)
  in
  let dyn_counts, _ = Syn.dyn_counts_of_run image in
  { Syn.p_image = image; p_dyn_counts = dyn_counts; p_mult = 1 }

let registry = lazy (List.map prepare Pf_mibench.Registry.all)

let generated =
  lazy
    (let model = Pf_workgen.Calibrate.reference () in
     List.init 64 (fun index ->
         prepare
           (Pf_mibench.Registry.of_program ~category:"generated"
              (Pf_workgen.Generate.name ~index)
              (Pf_workgen.Generate.program ~model ~seed:42 ~index))))

let per_app (p : Syn.program) =
  let image = p.Syn.p_image and dyn_counts = p.Syn.p_dyn_counts in
  String.concat ""
    [
      render_or_error (fun () -> Syn.synthesize image ~dyn_counts);
      render_or_error (fun () ->
          Syn.synthesize ~ais_groups:2 image ~dyn_counts);
      render_or_error (fun () ->
          Syn.synthesize ~allow_two_op_ais:false image ~dyn_counts);
    ]

let test_pins_programs () =
  let reg = Lazy.force registry and gen = Lazy.force generated in
  Alcotest.(check string)
    "registry per-app" "52e10fb386acf338f79e90f63baa3654"
    (md5 (String.concat "" (List.map per_app reg)));
  Alcotest.(check string)
    "generated per-app" "7c2c4a2821be8b108ef2bc2dcb898bed"
    (md5 (String.concat "" (List.map per_app gen)));
  Alcotest.(check string)
    "registry suite" "41cdae4c7196085100594cb2b1092099"
    (md5 (render (Syn.synthesize_suite ~dict_budget:128 reg)));
  Alcotest.(check string)
    "generated suite" "f42dd3af479d9b91b2c18016d2bb347c"
    (md5 (render (Syn.synthesize_suite ~dict_budget:64 gen)))

(* ---- (b) straight-line images ----------------------------------------- *)

let dp_ops =
  [| A.AND; A.EOR; A.SUB; A.RSB; A.ADD; A.ADC; A.SBC; A.RSC; A.TST; A.TEQ;
     A.CMP; A.CMN; A.ORR; A.MOV; A.BIC; A.MVN |]

let shifts = [| A.LSL; A.LSR; A.ASR; A.ROR |]

(* immediates: literal-sized, a few shared wide values (dictionary head
   competition) and the odd unique one *)
let imm_values = [| 0; 1; 7; 15; 16; 255; 1020; 0xFF00; 0x3FC |]

let pick rng a = a.(Pf_util.Rng.int rng (Array.length a))

(* a data-processing instruction, awaiting its condition *)
let random_dp rng =
  let pick a = pick rng a in
  (* four registers make rd = rn and rd = rm frequent *)
  let reg () = Pf_util.Rng.int rng 4 in
  let op = pick dp_ops in
  let s =
    match op with
    | A.TST | A.TEQ | A.CMP | A.CMN -> true
    | _ -> Pf_util.Rng.int rng 4 = 0
  in
  let rd = reg () in
  let rn = reg () in
  let op2 =
    match Pf_util.Rng.int rng 4 with
    | 0 -> A.Reg (reg ())
    | 1 -> Option.get (A.encode_imm_operand (pick imm_values))
    | 2 ->
        let rm = reg () in
        A.Reg_shift (rm, pick shifts, 1 + Pf_util.Rng.int rng 31)
    | _ ->
        let rm = reg () in
        let k = pick shifts in
        A.Reg_shift_reg (rm, k, reg ())
  in
  fun cond -> A.Dp { cond; op; s; rd; rn; op2 }

(* Sites repeat a few instructions under AL, EQ and NE, so an AL opcode
   often covers the stripped base of a predicated site. *)
let straight_line rng =
  let templates =
    Array.init (1 + Pf_util.Rng.int rng 6) (fun _ -> random_dp rng)
  in
  let site () =
    let dp = pick rng templates in
    dp (pick rng [| A.AL; A.AL; A.EQ; A.NE |])
  in
  let n = 2 + Pf_util.Rng.int rng 24 in
  let words = Array.init n (fun _ -> Pf_arm.Encode.encode (site ())) in
  let dyn_counts =
    Array.init n (fun _ ->
        if Pf_util.Rng.int rng 5 = 0 then 0 else Pf_util.Rng.int rng 1000)
  in
  (Pf_arm.Image.make ~entry:0x8000 words, dyn_counts)

let straight_line_corpus () =
  let rng = Pf_util.Rng.create 2005 in
  List.init 2000 (fun _ -> straight_line rng)

let test_pins_straight_line () =
  let renders =
    List.map
      (fun (image, dyn_counts) ->
        render_or_error (fun () -> Syn.synthesize image ~dyn_counts))
      (straight_line_corpus ())
  in
  Alcotest.(check string)
    "2000 straight-line images" "e24d9cef624b24183869492a0a7b4fa1"
    (md5 (String.concat "" renders))

let tests =
  [
    Alcotest.test_case "pins: registry and generated programs" `Slow
      test_pins_programs;
    Alcotest.test_case "pins: 2000 straight-line images" `Quick
      test_pins_straight_line;
  ]
