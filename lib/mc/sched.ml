(* Deterministic core interleaving.

   The multicore machine is a single-domain simulator: exactly one core
   advances per slice, chosen here.  Both policies are pure functions of
   (seed, query history), so a machine run — including every per-core
   trace recording — is bit-identical for a given seed no matter how many
   worker domains a surrounding sweep uses ([--jobs] parallelizes across
   seeds, never inside a machine). *)

type policy = Round_robin | Seeded_random

let policy_of_string = function
  | "rr" | "round-robin" -> Some Round_robin
  | "random" | "seeded-random" -> Some Seeded_random
  | _ -> None

let policy_to_string = function
  | Round_robin -> "rr"
  | Seeded_random -> "random"

type t = {
  policy : policy;
  ncores : int;
  rng : Pf_util.Rng.t;
  mutable cursor : int;
}

let where = "mc.sched"

let create ?(policy = Round_robin) ~ncores seed =
  if ncores < 1 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where
      "machine needs at least one core (got %d)" ncores;
  { policy; ncores; rng = Pf_util.Rng.create seed; cursor = 0 }

let ncores t = t.ncores

(* Loops over refs rather than a local recursive function, which would
   be a closure allocated per call. *)
let next t ~runnable =
  match t.policy with
  | Round_robin ->
      (* scan from the cursor so halted cores are skipped fairly *)
      let k = ref 0 and res = ref (-1) in
      while !res < 0 && !k < t.ncores do
        let c = (t.cursor + !k) mod t.ncores in
        if runnable c then begin
          t.cursor <- (c + 1) mod t.ncores;
          res := c
        end;
        incr k
      done;
      !res
  | Seeded_random ->
      let n = ref 0 in
      for c = 0 to t.ncores - 1 do
        if runnable c then incr n
      done;
      if !n = 0 then -1
      else begin
        (* pick the k-th runnable core: one rng draw per slice, so the
           draw sequence depends only on how many slices ran, keeping
           replays aligned even as cores halt *)
        let k = Pf_util.Rng.int t.rng !n in
        let c = ref 0 and seen = ref 0 and res = ref (-1) in
        while !res < 0 do
          if runnable !c then
            if !seen = k then res := !c else incr seen;
          incr c
        done;
        !res
      end
