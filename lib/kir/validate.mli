(** Static well-formedness checks for KIR programs.

    Run before compilation or evaluation; catches undefined
    variables/functions/globals, arity errors (including the four-argument
    ABI limit), duplicate definitions, and misplaced [Break]/[Continue]. *)

type error = { where : string; what : string }

val check : Ast.program -> (unit, error list) result

val check_exn : Ast.program -> unit
(** Raises a [Pf_util.Sim_error] of kind [Invalid_config] (at
    ["kir.validate"]) listing {e every} error {!check} finds. *)
