open Ast

type error = { where : string; what : string }

let check (p : program) =
  let errors = ref [] in
  let err where fmt =
    Format.kasprintf (fun what -> errors := { where; what } :: !errors) fmt
  in
  let arity = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem arity f.name then
        err f.name "duplicate function definition"
      else Hashtbl.add arity f.name (List.length f.params);
      if List.length f.params > 4 then
        err f.name "more than 4 parameters (ABI passes args in r0-r3)")
    p.funcs;
  let globals = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if Hashtbl.mem globals g.gname then
        err g.gname "duplicate global definition"
      else Hashtbl.add globals g.gname g;
      if g.length <= 0 then err g.gname "global with non-positive length";
      match g.init with
      | Some a when Array.length a > g.length ->
          err g.gname "initializer longer than the array"
      | Some _ | None -> ())
    p.globals;
  (match Hashtbl.find_opt arity entry_name with
  | None -> err entry_name "missing entry function"
  | Some 0 -> ()
  | Some _ -> err entry_name "entry function must take no parameters");
  let check_func f =
    let where = f.name in
    let declared = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace declared x ()) f.params;
    let rec expr = function
      | Int _ -> ()
      | Var x ->
          if not (Hashtbl.mem declared x) then
            err where "use of undeclared variable %s" x
      | Global_addr g ->
          if not (Hashtbl.mem globals g) then
            err where "use of undeclared global %s" g
      | Load { addr; _ } -> expr addr
      | Binop (_, a, b) | Cmp (_, a, b) ->
          expr a;
          expr b
      | Unop (_, a) -> expr a
      | Call (fn, args) ->
          (match Hashtbl.find_opt arity fn with
          | None -> err where "call to undefined function %s" fn
          | Some n ->
              if n <> List.length args then
                err where "call to %s with %d args (expects %d)" fn
                  (List.length args) n);
          List.iter expr args
    in
    let rec stmt ~in_loop = function
      | Let (x, e) ->
          expr e;
          Hashtbl.replace declared x ()
      | Assign (x, e) ->
          expr e;
          if not (Hashtbl.mem declared x) then
            err where "assignment to undeclared variable %s" x
      | Store { addr; value; _ } ->
          expr addr;
          expr value
      | If (c, t, e) ->
          expr c;
          List.iter (stmt ~in_loop) t;
          List.iter (stmt ~in_loop) e
      | While (c, body) ->
          expr c;
          List.iter (stmt ~in_loop:true) body
      | For (x, lo, hi, body) ->
          expr lo;
          expr hi;
          Hashtbl.replace declared x ();
          List.iter (stmt ~in_loop:true) body
      | Expr e | Print_int e | Print_char e -> expr e
      | Return (Some e) -> expr e
      | Return None -> ()
      | Break | Continue ->
          if not in_loop then err where "break/continue outside a loop"
    in
    List.iter (stmt ~in_loop:false) f.body
  in
  List.iter check_func p.funcs;
  match !errors with [] -> Ok () | l -> Error (List.rev l)

(* An ill-formed program is bad input (inline KIR reaches here from
   serve clients and workgen alike), so it fails as a structured
   Invalid_config listing every problem, never as a bare exception. *)
let check_exn p =
  match check p with
  | Ok () -> ()
  | Error errs ->
      Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
        ~where:"kir.validate" "ill-formed program: %s"
        (String.concat "; "
           (List.map (fun { where; what } -> where ^ ": " ^ what) errs))
