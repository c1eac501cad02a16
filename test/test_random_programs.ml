(* Differential testing with random programs.

   A generator produces small, always-terminating KIR programs with
   arithmetic, shifts, comparisons, memory traffic, conditionals, bounded
   loops and helper calls.  Every generated program is run three ways —
   reference evaluator, compiled ARM simulation, FITS-synthesized 16-bit
   simulation — and all three printed outputs must agree exactly.  This is
   the deepest invariant in the repository: instruction selection, linking,
   literal pools, unrolling, ISA synthesis, fallback expansion and the
   programmable-decoder semantics all sit under it. *)

open Pf_kir.Ast

let vars = [ "x"; "y"; "z"; "w" ]

let interesting_consts =
  [ 0; 1; 2; 7; 15; 16; 31; 255; 256; 4095; 0xFFFF; 0x10000; 0x12345678;
    0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; -1; -256 ]

let gen_const =
  QCheck.Gen.oneof
    [
      QCheck.Gen.oneofl interesting_consts;
      QCheck.Gen.int_bound 1000;
      QCheck.Gen.map (fun x -> x land 0xFFFFFFFF) QCheck.Gen.int;
    ]

let gen_var = QCheck.Gen.oneofl vars

(* depth-bounded expression generator; all memory addresses are masked
   into the global arrays so no access can fault.  [allow_call] is off
   inside the helper's own body — a helper that calls itself would never
   terminate. *)
let rec gen_expr ?(allow_call = true) depth st =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun c -> Int c) gen_const; map (fun x -> Var x) gen_var ]
  in
  if depth = 0 then leaf st
  else
    let sub = gen_expr ~allow_call (depth - 1) in
    let binops =
      [ Add; Sub; Mul; Div; Rem; Udiv; Urem; And; Or; Xor; Shl; Shr; Sar ]
    in
    let cmps = [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ] in
    let gens =
      [
        leaf;
        map3 (fun op a b -> Binop (op, a, b)) (oneofl binops) sub sub;
        map3 (fun op a b -> Cmp (op, a, b)) (oneofl cmps) sub sub;
        map (fun a -> Unop (Neg, a)) sub;
        map (fun a -> Unop (Bnot, a)) sub;
        (* masked word load from g[0..31] *)
        map
          (fun idx ->
            Load
              { scale = W32; signed = false;
                addr =
                  Binop
                    ( Add,
                      Global_addr "g",
                      Binop (Shl, Binop (And, idx, Int 31), Int 2) ) })
          sub;
        (* masked byte load from gb[0..63], signed or not *)
        map2
          (fun idx signed ->
            Load
              { scale = W8; signed;
                addr = Binop (Add, Global_addr "gb", Binop (And, idx, Int 63))
              })
          sub bool;
      ]
      @ (if allow_call then
           [ map2
               (fun a b -> Call ("helper", [ a; b; Var "z"; Var "w" ]))
               sub sub ]
         else [])
    in
    oneof gens st

let rec gen_stmt depth st =
  let open QCheck.Gen in
  let expr = gen_expr 2 in
  let simple =
    oneof
      [
        map2 (fun x e -> Assign (x, e)) gen_var expr;
        map2
          (fun idx value ->
            Store
              { scale = W32;
                addr =
                  Binop
                    ( Add,
                      Global_addr "g",
                      Binop (Shl, Binop (And, idx, Int 31), Int 2) );
                value })
          expr expr;
        map2
          (fun idx value ->
            Store
              { scale = W8;
                addr = Binop (Add, Global_addr "gb", Binop (And, idx, Int 63));
                value })
          expr expr;
        map (fun e -> Print_int e) expr;
      ]
  in
  if depth = 0 then simple st
  else
    let block n = list_size (int_range 1 n) (gen_stmt (depth - 1)) in
    oneof
      [
        simple;
        map3 (fun c t e -> If (c, t, e)) expr (block 3) (block 2);
        (* bounded loop; the induction name is unique per nesting depth —
           nested loops sharing one name would reset each other forever *)
        map2
          (fun trips body ->
            For ("k" ^ string_of_int depth, Int 0, Int trips, body))
          (int_range 1 8) (block 3);
      ]
      st

let gen_program =
  let open QCheck.Gen in
  let* helper_body = gen_expr ~allow_call:false 2 in
  let* stmts = list_size (int_range 3 10) (gen_stmt 2) in
  let inits = List.map (fun x -> Let (x, Int 0)) vars in
  let final_prints =
    List.map (fun x -> Print_int (Var x)) vars
    @ [
        (* order-sensitive checksum of the word array *)
        Let ("sum", Int 0);
        For
          ( "fin",
            Int 0,
            Int 32,
            [
              Assign
                ( "sum",
                  Binop
                    ( Xor,
                      Binop (Mul, Var "sum", Int 31),
                      Load
                        { scale = W32; signed = false;
                          addr =
                            Binop
                              ( Add,
                                Global_addr "g",
                                Binop (Shl, Var "fin", Int 2) ) } ) );
            ] );
        Print_int (Var "sum");
      ]
  in
  return
    {
      globals =
        [
          { gname = "g"; gscale = W32; length = 32; init = None };
          { gname = "gb"; gscale = W8; length = 64;
            init = Some (Array.init 64 (fun k -> (k * 37) land 0xFF)) };
        ];
      funcs =
        [
          { name = "helper"; params = vars;
            body = [ Return (Some helper_body) ] };
          { name = "main"; params = []; body = inits @ stmts @ final_prints };
        ];
    }

let arbitrary_program =
  QCheck.make gen_program
    ~print:(fun p ->
      Printf.sprintf "<program with %d main statements>"
        (List.length (List.nth p.funcs 1).body))

let run_all_ways ?(unroll = 1) p =
  (* generated programs are tiny; a tight budget turns any accidental
     divergence into a fast failure instead of a hang *)
  let expected = (Pf_kir.Eval.run ~max_steps:2_000_000 p).Pf_kir.Eval.output in
  let image = Pf_armgen.Compile.program ~unroll p in
  let dyn_counts, arm_out =
    Pf_fits.Synthesis.dyn_counts_of_run ~max_steps:20_000_000 image
  in
  if arm_out <> expected then
    QCheck.Test.fail_reportf "ARM output differs:\n eval: %S\n arm:  %S"
      expected arm_out;
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let fits = Pf_fits.Run.run ~max_steps:20_000_000 tr in
  if fits.Pf_fits.Run.output <> expected then
    QCheck.Test.fail_reportf "FITS output differs:\n eval: %S\n fits: %S"
      expected fits.Pf_fits.Run.output;
  (tr, fits)

let prop_differential =
  QCheck.Test.make ~name:"random program: eval = ARM = FITS" ~count:60
    arbitrary_program
    (fun p ->
      ignore (run_all_ways p);
      true)

let prop_differential_unrolled =
  QCheck.Test.make ~name:"random program survives unrolling" ~count:25
    arbitrary_program
    (fun p ->
      ignore (run_all_ways ~unroll:4 p);
      true)

let prop_mapping_sane =
  QCheck.Test.make ~name:"mapping statistics stay in range" ~count:25
    arbitrary_program
    (fun p ->
      let tr, fits = run_all_ways p in
      let s = Pf_fits.Translate.static_mapping_rate tr in
      let d = fits.Pf_fits.Run.dyn_one_to_one_pct in
      s >= 0.0 && s <= 100.0 && d >= 0.0 && d <= 100.0
      && tr.Pf_fits.Translate.stats.Pf_fits.Translate.fits_insns
         >= tr.Pf_fits.Translate.stats.Pf_fits.Translate.arm_insns)

let prop_code_always_smaller =
  QCheck.Test.make ~name:"FITS code never larger than ARM code" ~count:25
    arbitrary_program
    (fun p ->
      let tr, _ = run_all_ways p in
      tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits
      <= tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_arm)

let prop_spec_wellformed =
  QCheck.Test.make ~name:"synthesized specs stay within capacity" ~count:25
    arbitrary_program
    (fun p ->
      let image = Pf_armgen.Compile.program p in
      let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
      let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
      let spec = syn.Pf_fits.Synthesis.spec in
      let slots = Hashtbl.create 64 in
      Array.iter
        (fun (od : Pf_fits.Spec.opdef) ->
          let key = (od.Pf_fits.Spec.group, od.Pf_fits.Spec.sub) in
          if Hashtbl.mem slots key then
            QCheck.Test.fail_reportf "duplicate encoding slot %d.%d"
              (fst key) (snd key);
          Hashtbl.add slots key ())
        spec.Pf_fits.Spec.ops;
      spec.Pf_fits.Spec.groups_used <= Pf_fits.Spec.max_groups
      && Array.length spec.Pf_fits.Spec.dict <= Pf_fits.Spec.dict_capacity)

(* The execution-engine invariant under adversarial inputs: every random
   program run by both engines and by the bare per-instruction [Step]
   loop must produce the SAME result record — instructions, cycles, every
   power float — and a step cutoff landing anywhere (including mid basic
   block) must stop each at exactly the same retired instruction:
   identical structured error, identical recorded trace prefix.  This is
   what licenses defaulting harness, bench and CLI to the compiled
   engine. *)
let engines = [ Pf_cpu.Arm_run.Reference; Pf_cpu.Arm_run.Compiled ]

let arm_runs =
  List.map
    (fun engine ~max_steps ~trace image ->
      Pf_cpu.Arm_run.run ~engine ~max_steps ?trace image)
    engines
  @ [ (fun ~max_steps ~trace image -> Stepped.arm ~max_steps ?trace image) ]

let fits_runs =
  List.map
    (fun engine ~max_steps ~trace tr ->
      Pf_fits.Run.run ~engine ~max_steps ?trace tr)
    engines
  @ [ (fun ~max_steps ~trace tr -> Stepped.fits ~max_steps ?trace tr) ]

let trace_sig t =
  let b = Buffer.create 4096 in
  Pf_cpu.Trace.iter t (fun addr meta -> Printf.bprintf b "%x.%x;" addr meta);
  (Pf_cpu.Trace.length t, Digest.string (Buffer.contents b))

let check_all_equal what = function
  | [] | [ _ ] -> ()
  | x :: rest ->
      List.iteri
        (fun i y ->
          if y <> x then
            QCheck.Test.fail_reportf "%s: engine %d diverges from reference"
              what (i + 1))
        rest

let prop_engines_agree =
  QCheck.Test.make
    ~name:"three engines bit-identical, incl. mid-block max-steps cutoffs"
    ~count:20
    QCheck.(pair arbitrary_program (int_range 0 1_000_000))
    (fun (p, salt) ->
      let image = Pf_armgen.Compile.program p in
      let arm_full =
        List.map
          (fun run -> run ~max_steps:20_000_000 ~trace:None image)
          arm_runs
      in
      check_all_equal "ARM full-run result" arm_full;
      (* a budget strictly inside the run: every engine must trip the
         watchdog after exactly the same retired prefix *)
      let arm_cut =
        let total = (List.hd arm_full).Pf_cpu.Arm_run.instructions in
        let cut = 1 + (salt mod max 1 (total - 1)) in
        List.map
          (fun run ->
            let trace = Pf_cpu.Trace.create ~isize:4 () in
            let out =
              Pf_util.Sim_error.protect ~where:"test" (fun () ->
                  ignore (run ~max_steps:cut ~trace:(Some trace) image))
            in
            (match out with
            | Error e when e.Pf_util.Sim_error.kind
                           = Pf_util.Sim_error.Watchdog_timeout -> ()
            | Error e ->
                QCheck.Test.fail_reportf "ARM cutoff raised %s"
                  (Pf_util.Sim_error.to_string e)
            | Ok () ->
                QCheck.Test.fail_reportf
                  "ARM cutoff at %d of %d did not trip" cut total);
            ( (match out with Error e -> e.Pf_util.Sim_error.detail | Ok () -> ""),
              trace_sig trace ))
          arm_runs
      in
      check_all_equal "ARM cutoff (error, trace prefix)" arm_cut;
      (* same invariant on the FITS side, through synthesis + translation *)
      let dyn_counts, _ =
        Pf_fits.Synthesis.dyn_counts_of_run ~max_steps:20_000_000 image
      in
      let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
      let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
      let fits_full =
        List.map
          (fun run -> run ~max_steps:20_000_000 ~trace:None tr)
          fits_runs
      in
      check_all_equal "FITS full-run result" fits_full;
      let fits_cut =
        let total = (List.hd fits_full).Pf_fits.Run.fits_instructions in
        let cut = 1 + (salt mod max 1 (total - 1)) in
        List.map
          (fun run ->
            let trace = Pf_cpu.Trace.create ~isize:2 () in
            let out =
              Pf_util.Sim_error.protect ~where:"test" (fun () ->
                  ignore (run ~max_steps:cut ~trace:(Some trace) tr))
            in
            (match out with
            | Error e when e.Pf_util.Sim_error.kind
                           = Pf_util.Sim_error.Watchdog_timeout -> ()
            | Error e ->
                QCheck.Test.fail_reportf "FITS cutoff raised %s"
                  (Pf_util.Sim_error.to_string e)
            | Ok () ->
                QCheck.Test.fail_reportf
                  "FITS cutoff at %d of %d did not trip" cut total);
            ( (match out with Error e -> e.Pf_util.Sim_error.detail | Ok () -> ""),
              trace_sig trace ))
          fits_runs
      in
      check_all_equal "FITS cutoff (error, trace prefix)" fits_cut;
      true)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_engines_agree;
    QCheck_alcotest.to_alcotest prop_differential_unrolled;
    QCheck_alcotest.to_alcotest prop_mapping_sane;
    QCheck_alcotest.to_alcotest prop_code_always_smaller;
    QCheck_alcotest.to_alcotest prop_spec_wellformed;
  ]
