open Pf_kir.Ast

let is_simple = function
  | Int _ | Var _ | Global_addr _ -> true
  | Load _ | Binop _ | Unop _ | Cmp _ | Call _ -> false

let rec contains_call = function
  | Int _ | Var _ | Global_addr _ -> false
  | Load { addr; _ } -> contains_call addr
  | Binop (_, a, b) | Cmp (_, a, b) -> contains_call a || contains_call b
  | Unop (_, a) -> contains_call a
  | Call _ -> true

let rec reads_memory = function
  | Int _ | Var _ | Global_addr _ -> false
  | Load _ | Call _ -> true
  | Binop (_, a, b) | Cmp (_, a, b) -> reads_memory a || reads_memory b
  | Unop (_, a) -> reads_memory a

type ctx = { mutable fresh : int }

let fresh_var ctx =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "$t%d" ctx.fresh

(* Operands evaluate left to right, as in [Pf_kir.Eval]: an operand is
   rewritten (and its calls hoisted) before the next one.  A hoisted call
   runs ahead of the whole statement, so when a later operand contains a
   call, an earlier operand that still reads memory is pinned in a temp
   first — otherwise it would see the call's stores. *)
let pin ctx emit ~before e =
  if contains_call before && reads_memory e then begin
    let t = fresh_var ctx in
    emit (Let (t, e));
    Var t
  end
  else e

(* Rewrite [e], emitting hoisted statements through [emit].  When [top] is
   true the expression is the full right-hand side of a Let/Assign/Expr, so
   a call may remain in place. *)
let rec rw_expr ctx emit ~top e =
  match e with
  | Int _ | Var _ | Global_addr _ -> e
  | Load l -> Load { l with addr = rw_expr ctx emit ~top:false l.addr }
  | Binop (op, a, b) ->
      let a = rw_pair ctx emit a ~before:b in
      Binop (op, a, rw_expr ctx emit ~top:false b)
  | Unop (op, a) -> Unop (op, rw_expr ctx emit ~top:false a)
  | Cmp (op, a, b) ->
      let a = rw_pair ctx emit a ~before:b in
      Cmp (op, a, rw_expr ctx emit ~top:false b)
  | Call (f, args) ->
      let args =
        List.map
          (fun a ->
            let a = rw_expr ctx emit ~top:false a in
            if is_simple a then a
            else begin
              let t = fresh_var ctx in
              emit (Let (t, a));
              Var t
            end)
          args
      in
      let call = Call (f, args) in
      if top then call
      else begin
        let t = fresh_var ctx in
        emit (Let (t, call));
        Var t
      end

(* The first operand of a pair, rewritten and pinned against [before]. *)
and rw_pair ctx emit a ~before =
  pin ctx emit ~before (rw_expr ctx emit ~top:false a)

let rw_top ctx emit e = rw_expr ctx emit ~top:true e
let rw_sub ctx emit e = rw_expr ctx emit ~top:false e

let rec rw_stmt ctx s =
  let hoisted = ref [] in
  let emit s = hoisted := s :: !hoisted in
  let finish s = List.rev (s :: !hoisted) in
  match s with
  | Let (x, e) -> finish (Let (x, rw_top ctx emit e))
  | Assign (x, e) -> finish (Assign (x, rw_top ctx emit e))
  | Store { scale; addr; value } ->
      let addr = pin ctx emit ~before:value (rw_sub ctx emit addr) in
      let value = rw_sub ctx emit value in
      finish (Store { scale; addr; value })
  | If (c, t, e) ->
      let c = rw_sub ctx emit c in
      finish (If (c, rw_block ctx t, rw_block ctx e))
  | While (c, body) ->
      let body = rw_block ctx body in
      if contains_call c then begin
        (* The condition must be re-evaluated each iteration, so its call
           hoisting has to live inside the loop. *)
        let pre = ref [] in
        let emit_in s = pre := s :: !pre in
        let c = rw_sub ctx emit_in c in
        let test = If (Cmp (Eq, c, Int 0), [ Break ], []) in
        finish (While (Int 1, List.rev !pre @ [ test ] @ body))
      end
      else finish (While (c, body))
  | For (x, lo, hi, body) ->
      let lo = rw_sub ctx emit lo in
      let hi = rw_sub ctx emit hi in
      let hi =
        if is_simple hi then hi
        else begin
          (* the bound is evaluated once; keep it in a temp *)
          let t = fresh_var ctx in
          emit (Let (t, hi));
          Var t
        end
      in
      finish (For (x, lo, hi, rw_block ctx body))
  | Expr e -> finish (Expr (rw_top ctx emit e))
  | Return (Some e) -> finish (Return (Some (rw_sub ctx emit e)))
  | Return None | Break | Continue -> finish s
  | Print_int e -> finish (Print_int (rw_sub ctx emit e))
  | Print_char e -> finish (Print_char (rw_sub ctx emit e))

and rw_block ctx stmts =
  List.concat_map
    (fun s ->
      (* temps never live across statements: reuse their names (and thus
         their register/slot homes) statement by statement *)
      ctx.fresh <- 0;
      rw_stmt ctx s)
    stmts

let program (p : program) =
  let funcs =
    List.map
      (fun f ->
        let ctx = { fresh = 0 } in
        { f with body = rw_block ctx f.body })
      p.funcs
  in
  { p with funcs }
