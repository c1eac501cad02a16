(** The benchmark suite: 21 MiBench-workalike programs (paper §5).

    Categories follow MiBench: automotive, consumer, network, office,
    security, telecomm.  The power study uses 19 of them — [basicmath]
    and [gsm.encode] are dropped and [gsm.decode] is renamed to [gsm],
    exactly as the paper describes. *)

type benchmark = {
  name : string;
  result_name : string;
      (** name under which results are reported in the power figures;
          equal to [name] for every benchmark except [gsm.decode], which
          the paper reports as plain ["gsm"] *)
  category : string;
  program : scale:int -> Pf_kir.Ast.program;
  power_study : bool;   (** member of the 19-benchmark power suite *)
  unroll : int;
      (** loop-unroll factor used when compiling this benchmark — larger
          for the codec-class programs whose real binaries carry big
          unrolled loops (jpeg, lame, gsm, sha, rijndael) *)
}

val of_program :
  ?unroll:int -> category:string -> string -> Pf_kir.Ast.program -> benchmark
(** A one-off program as a benchmark: the same program at every scale,
    outside the power study, [unroll] defaulting to 1. *)

val all : benchmark list
(** The full 21-benchmark suite, grouped by category.  Benchmark names and
    result-name aliases are asserted unique at module init (a duplicate
    raises an [Invalid_config] {!Pf_util.Sim_error.Error}). *)

val power_suite : benchmark list
(** The 19 benchmarks of the power figures; [gsm.decode] appears under the
    name ["gsm"]. *)

val names : string list
(** Every benchmark [name], in suite order. *)

val find_opt : string -> benchmark option
(** Look up by [name] or [result_name] ([find_opt "gsm"] resolves via the
    alias). *)

val find_exn : string -> benchmark
(** Like {!find_opt} but raises a structured [Invalid_config]
    {!Pf_util.Sim_error.Error} for unknown names, whose detail lists every
    valid name — the lookup the CLI and the multi-program harness use. *)

val find : string -> benchmark
(** @raise Not_found for unknown names (legacy interface; prefer
    {!find_exn}). *)
