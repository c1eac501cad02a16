(** Call normalization (A-normal form for calls).

    After this pass, every [Call] appears only as the immediate right-hand
    side of a [Let]/[Assign] or as a standalone [Expr], and every call
    argument is simple (a constant, variable, or global address).  The code
    generator relies on this: at a call site the expression scratch stack
    is empty and arguments can be moved straight into r0-r3.

    Hoisting keeps {!Pf_kir.Eval}'s left-to-right operand order: calls
    are hoisted in operand order, and an operand that reads memory ahead
    of a later operand's call is hoisted into a temp too, so it does not
    observe that call's stores. *)

val program : Pf_kir.Ast.program -> Pf_kir.Ast.program
