(* Source lint for the library tree.

   Every failure path in lib/ must go through Pf_util.Sim_error so callers
   (the experiment harness, the fault campaigns, the CLI) can classify and
   isolate it.  A bare [failwith] or [assert false] bypasses that contract:
   it surfaces as an anonymous Failure/Assert_failure with no kind, no
   location tag, and no exit-code mapping.  This lint fails the build when
   one sneaks back in.

   Signal-based watchdogs ([Sys.signal], [Unix.setitimer]/ITIMER) are
   forbidden in lib/ for a different reason: POSIX delivers signals to the
   main domain only, so they silently stop working inside Pool worker
   domains.  Wall-clock budgets must use the monotonic Pf_util.Deadline,
   which any domain can poll.

   Deliberate exceptions go in [allowlist] as (path-suffix, line-substring)
   pairs with a justification comment.

   Allocation discipline is NOT a lint: whether a step loop allocates is a
   property of the generated code (tuple returns, closure captures, boxed
   optional arguments, float stores into mixed records), not of any
   greppable source pattern.  The guard for it is behavioural —
   test/test_alloc.ml measures [Gc.minor_words] deltas over ~100k-step
   runs of the per-instruction [Step] loop and the ARM and FITS block
   driver and fails if a per-step allocation creeps back in.  Keep that
   test in sync when adding fields to the hot structs in
   lib/arm/pexec.ml or lib/cpu/pipeline.ml. *)

let allowlist : (string * string) list =
  [ (* currently empty: lib/ is fully converted to Sim_error *) ]

let sim_error_reason =
  "raise a structured Pf_util.Sim_error instead (or extend the lint \
   allowlist with a justification)"

let domain_safe_reason =
  "signals only reach the main domain; use the monotonic Pf_util.Deadline \
   watchdog, which works inside Pool worker domains"

(* Everything random in lib/ must flow from explicit seeded state
   (Pf_util.Rng): the population digests, the workload generator, the
   fault campaigns and the loadgen plans all promise bit-identical
   replay from a seed, and one stray draw from stdlib Random's global,
   per-domain state silently breaks that for every jobs count. *)
let seeded_rng_reason =
  "unseeded global RNG; thread explicit Pf_util.Rng state from a seed so \
   results replay bit-identically at any --jobs"

let forbidden =
  [
    ("failwith", sim_error_reason);
    ("assert false", sim_error_reason);
    ("Sys.signal", domain_safe_reason);
    ("Sys.set_signal", domain_safe_reason);
    ("setitimer", domain_safe_reason);
    ("ITIMER", domain_safe_reason);
    ("Random.self_init", seeded_rng_reason);
    ("Random.int", seeded_rng_reason);
    ("Random.bits", seeded_rng_reason);
    ("Random.float", seeded_rng_reason);
  ]

(* Tree-scoped rules: (path substring, pattern, reason).  The serve
   stack promises crash safety — every byte it persists must flow
   through Pf_util.Atomic_file (temp + rename + CRC), so a bare
   [open_out] would reintroduce torn writes; and a daemon library must
   never [exit], it reports structured errors and lets bin/ decide the
   process's fate (the injected-crash hook exits from bin/powerfits.ml
   for exactly that reason). *)
let scoped_forbidden =
  [
    ( "lib/serve/",
      "open_out",
      "persist through Pf_util.Atomic_file — bare open_out can tear on crash"
    );
    ( "lib/serve/",
      "exit ",
      "lib/serve must not terminate the process; return a structured error \
       and let bin/ decide" );
  ]
  (* The multicore machine is an INTERLEAVING simulator, not a threaded
     program: determinism (bit-identical runs per scheduler seed, at any
     --jobs) holds only because exactly one core advances per slice on a
     single domain.  Spawning real domains or threads inside lib/mc
     would reintroduce host-machine nondeterminism into the very layer
     whose job is to model concurrency deterministically.  Fan-out
     across seeds/configs goes through Pf_util.Pool, outside the
     machine.  Mutexes are banned for the same reason: nothing in lib/mc
     may need one — shared state is owned by the single-domain machine
     loop, and a Mutex would be a smell that real parallelism leaked
     in. *)
  @ List.concat_map
      (fun pat ->
        [
          ( "lib/mc/",
            pat,
            "lib/mc is a single-domain interleaving engine; one core \
             advances per Sched slice, so runs replay bit-identically \
             from a seed.  Parallelize across machines with \
             Pf_util.Pool, never inside one" );
        ])
      [ "Domain.spawn"; "Thread.create"; "Mutex."; "Condition." ]
  (* The block-compilation engine (basic-block discovery in bexec, the
     block-dispatch driver in cexec) stakes its correctness on closures
     whose captured micro-op arrays the type checker has fully vetted —
     an [Obj.magic] there would let a representation confusion ride into
     every engine and corrupt the bit-identity contract silently.
     Legality failures must fall back to the interpreter via the typed
     fallback path, never "fix" a type with a cast. *)
  @ List.concat_map
      (fun scope ->
        [
          ( scope,
            "Obj.magic",
            "the compiled engine must stay representation-honest; make the \
             block illegal and fall back to the interpreter instead" );
          ( scope,
            "Obj.repr",
            "the compiled engine must stay representation-honest; make the \
             block illegal and fall back to the interpreter instead" );
        ])
      [ "lib/arm/bexec"; "lib/cpu/cexec" ]

let allowed file line =
  List.exists
    (fun (suffix, sub) ->
      Filename.check_suffix file suffix
      && String.length sub <= String.length line
      &&
      let n = String.length sub and m = String.length line in
      let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
      go 0)
    allowlist

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Owner table: functions in lib/ that only some files may call.  A row
   names the module by its library path, the owned functions, the files
   allowed to call them and why.  A call counts however it is spelled:
   qualified ([Pf_cpu.Arm_run.run] or [Arm_run.run]) or through a module
   alias ([module A = Pf_cpu.Arm_run] ... [A.run]); a local open of the
   module is refused outright, since the calls under it are bare. *)
type owned = {
  path : string;
  fns : string list;
  owners : string list;
  reason : string;
}

let flow_reason =
  "the timed program flow has one product, Pf_dse.Explore's recording; \
   read its ARM half (record_arm) instead of running or profiling the \
   program again"

let owned =
  [
    (* One copy of the loop body.  [Pf_cpu.Step.step] is the only
       per-instruction body of a fast run and [Pf_cpu.Cexec.run] the
       only block driver; they are where micro-ops execute.  A call
       anywhere else is a second copy of the loop, whose watchdog, faults
       and pipeline issue would drift from the first with only tests to
       notice.  The reference interpreters execute through [Exec], not
       [Pexec], and stay independent by construction. *)
    {
      path = "Pf_arm.Pexec";
      fns = [ "exec"; "exec_dp_nr" ];
      owners = [ "lib/arm/pexec.ml"; "lib/cpu/step.ml"; "lib/cpu/cexec.ml" ];
      reason =
        "micro-ops execute only in Pf_cpu.Step (per instruction) and \
         Pf_cpu.Cexec (per block); drive a Step.t instead of writing \
         another loop body";
    };
    (* One program flow.  A timed ARM run and a profile taken from its
       trace are the recording's ARM half; any other copy is the hand-
       written compile -> profile -> run chain coming back. *)
    {
      path = "Pf_cpu.Arm_run";
      fns = [ "run" ];
      owners = [ "lib/dse/explore.ml" ];
      reason = flow_reason;
    };
    {
      path = "Pf_cpu.Trace";
      fns = [ "exec_counts" ];
      owners = [ "lib/dse/explore.ml" ];
      reason = flow_reason;
    };
    (* One multi-program campaign.  A timed FITS run is a recording's
       FITS half, a campaign cell or a fault trial; a population or a
       suite that runs FITS itself is a second campaign. *)
    {
      path = "Pf_fits.Run";
      fns = [ "run" ];
      owners =
        [ "lib/dse/explore.ml"; "lib/multi/eval.ml"; "lib/fault/campaign.ml" ];
      reason =
        "a timed FITS run is a recording's FITS half (Pf_dse.Explore), a \
         campaign cell (Pf_multi.Eval.eval_cell) or a fault trial; \
         evaluate through one of those";
    };
  ]

(* Blank out comments, keeping newlines so line numbers survive: the
   exec rule reads code, and documentation may name [Pexec.exec]. *)
let strip_comments s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let depth = ref 0 and i = ref 0 in
  while !i < n do
    let c = Bytes.get b !i in
    let next = if !i + 1 < n then Bytes.get b (!i + 1) else ' ' in
    if c = '(' && next = '*' then begin
      incr depth;
      Bytes.set b !i ' ';
      Bytes.set b (!i + 1) ' ';
      i := !i + 2
    end
    else if !depth > 0 && c = '*' && next = ')' then begin
      decr depth;
      Bytes.set b !i ' ';
      Bytes.set b (!i + 1) ' ';
      i := !i + 2
    end
    else if !depth = 0 && c = '"' then begin
      (* skip a string literal, so "(*" inside one opens nothing *)
      incr i;
      while !i < n && Bytes.get b !i <> '"' do
        if Bytes.get b !i = '\\' then incr i;
        incr i
      done;
      incr i
    end
    else if !depth = 0 && c = '\'' && !i + 2 < n && Bytes.get b (!i + 2) = '\''
    then (* a character literal such as '"' *)
      i := !i + 3
    else if !depth = 0 && c = '\'' && next = '\\' then begin
      (* an escaped character literal: '\'', '\n', '\123' *)
      i := !i + 3;
      while !i < n && Bytes.get b !i <> '\'' do
        incr i
      done;
      incr i
    end
    else begin
      if !depth > 0 && c <> '\n' then Bytes.set b !i ' ';
      incr i
    end
  done;
  Bytes.to_string b

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [sub] occurs in [s] as a whole token: where [sub] starts or ends with
   an identifier character, no identifier character touches it there. *)
let has_token ~sub s =
  let n = String.length sub and m = String.length s in
  let edge i = i < 0 || i >= m || not (is_ident_char s.[i]) in
  let rec go i =
    i + n <= m
    && (String.sub s i n = sub
        && ((not (is_ident_char sub.[0])) || edge (i - 1))
        && ((not (is_ident_char sub.[n - 1])) || edge (i + n))
       || go (i + 1))
  in
  go 0

(* The names [code] can reach module [path] by: its own name, plus any
   module alias bound to it (e.g. [module Px = Pf_arm.Pexec]). *)
let module_names ~path code =
  let own = List.hd (List.rev (String.split_on_char '.' path)) in
  own
  :: List.filter_map
       (fun line ->
         Scanf.sscanf_opt line " module %s@= %s" (fun m rhs ->
             if rhs = path || rhs = own then Some (String.trim m) else None)
         |> Option.join)
       code

let check_owners root files violations =
  List.iter
    (fun file ->
      if Filename.check_suffix file ".ml" then begin
        let code =
          lazy
            (In_channel.with_open_text (Filename.concat root file)
               In_channel.input_all
            |> strip_comments |> String.split_on_char '\n')
        in
        List.iter
          (fun row ->
            if
              not
                (List.exists (fun o -> Filename.check_suffix file o) row.owners)
            then begin
              let code = Lazy.force code in
              let names = module_names ~path:row.path code in
              let own = List.hd names in
              let patterns =
                [ "open " ^ row.path; "open " ^ own; own ^ ".(" ]
                @ List.concat_map
                    (fun m -> List.map (fun f -> m ^ "." ^ f) row.fns)
                    names
              in
              List.iteri
                (fun i line ->
                  match
                    List.find_opt (fun sub -> has_token ~sub line) patterns
                  with
                  | Some pat ->
                      Printf.eprintf "%s:%d: `%s' — %s\n" file (i + 1) pat
                        row.reason;
                      incr violations
                  | None -> ())
                code
            end)
          owned
      end)
    files

let rec source_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then source_files path
         else if
           Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
         then [ path ]
         else [])

(* Every module under lib/ must publish an interface: a missing .mli
   exposes every helper and invites callers to depend on internals the
   module never promised (it also silences the unused-value warnings an
   interface would raise).  The multi-program subsystem was added under
   this rule; keep it that way. *)
let check_interfaces root files violations =
  List.iter
    (fun file ->
      if
        Filename.check_suffix file ".ml"
        && not (Sys.file_exists (Filename.concat root (file ^ "i")))
      then begin
        Printf.eprintf
          "%s: no interface — every module under lib/ needs a .mli\n" file;
        incr violations
      end)
    files

let () =
  let root =
    (* run from the repo root or from anywhere inside _build *)
    if Sys.file_exists "lib" then "."
    else if Sys.file_exists "../../lib" then "../.."
    else (
      prerr_endline "lint: cannot locate the lib/ tree";
      exit 2)
  in
  let violations = ref 0 in
  let lib_files = source_files (Filename.concat root "lib") in
  check_interfaces root lib_files violations;
  check_owners root lib_files violations;
  List.iter
    (fun file ->
      let ic = open_in (Filename.concat root file) in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           List.iter
             (fun (pat, reason) ->
               if has_sub ~sub:pat line && not (allowed file line) then begin
                 Printf.eprintf "%s:%d: `%s' in lib/ — %s\n" file !lineno pat
                   reason;
                 incr violations
               end)
             forbidden;
           List.iter
             (fun (scope, pat, reason) ->
               if
                 has_sub ~sub:scope file && has_sub ~sub:pat line
                 && not (allowed file line)
               then begin
                 Printf.eprintf "%s:%d: `%s' in %s — %s\n" file !lineno pat
                   scope reason;
                 incr violations
               end)
             scoped_forbidden
         done
       with End_of_file -> ());
      close_in ic)
    lib_files;
  if !violations > 0 then begin
    Printf.eprintf "lint: %d violation(s)\n" !violations;
    exit 1
  end
  else print_endline "lint: lib/ error-handling and interface discipline OK"
