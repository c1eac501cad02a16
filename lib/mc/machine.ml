(* The multicore machine: N per-core steppers ({!Pf_cpu.Step}), one
   deterministic scheduler, an optional coherence layer over the shared
   data window.

   The machine itself is strictly single-domain — one core advances per
   slice, picked by [Sched] — so a run (including every per-core trace
   recording) is a pure function of the construction arguments and the
   scheduler seed.  Sweeps parallelize ACROSS machines (seeds, configs)
   with [Pf_util.Pool], never inside one.

   Power: each core carries its own PowerFITS I-cache account; the
   machine report sums the energy components (energies are additive) and
   takes the max of the per-core cycle counts (cores run concurrently,
   one slice = one core-cycle of progress attributed to that core).  The
   summed peak is an upper bound on machine peak power — per-core peak
   windows need not coincide in time. *)

type core = { label : string; step : Pf_cpu.Step.t }

type shared = { base : int; limit : int; sync_addr : int }

type t = {
  cores : core array;
  sched : Sched.t;
  coherence : Coherence.t option;
  mutable slices : int;
}

type power = {
  switching : float;
  internal : float;
  leakage : float;
  total : float;
  peak_power : float;
}

type report = {
  cores : (string * Pf_cpu.Step.result) array;
  instructions : int;
  src_instructions : int;
  cycles : int;
  slices : int;
  power : power;
  coherence : Coherence.stats option;
}

let where = "mc.machine"

let create ?shared ~sched cores =
  if Array.length cores = 0 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where
      "machine needs at least one core";
  if Sched.ncores sched <> Array.length cores then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where
      "scheduler is for %d cores, machine has %d" (Sched.ncores sched)
      (Array.length cores);
  let cores =
    Array.map (fun (label, step) -> { label; step }) cores
  in
  let coherence =
    match shared with
    | None -> None
    | Some { base; limit; sync_addr } ->
        Some
          (Coherence.create ~sync_addr ~base ~limit
             ~states:(Array.map (fun c -> Pf_cpu.Step.state c.step) cores)
             ~dcaches:(Array.map (fun c -> Pf_cpu.Step.dcache c.step) cores)
             ())
  in
  { cores; sched; coherence; slices = 0 }

let ncores (t : t) = Array.length t.cores
let core (t : t) i = t.cores.(i).step
let label (t : t) i = t.cores.(i).label
let slices (t : t) = t.slices

let all_halted (t : t) =
  Array.for_all (fun c -> Pf_cpu.Step.halted c.step) t.cores

let step (t : t) =
  let runnable c = not (Pf_cpu.Step.halted t.cores.(c).step) in
  match Sched.next t.sched ~runnable with
  | None -> false
  | Some c ->
      let s = t.cores.(c).step in
      Pf_cpu.Step.step s;
      t.slices <- t.slices + 1;
      (match t.coherence with
      | Some coh ->
          let a = Pf_cpu.Step.stored_addr s in
          if a >= 0 then
            Coherence.post_store coh ~core:c ~addr:a
              ~words:(Pf_cpu.Step.stored_words s)
      | None -> ());
      true

let run t = while step t do () done

let report (t : t) =
  let results =
    Array.map (fun c -> (c.label, Pf_cpu.Step.result c.step)) t.cores
  in
  let sum f = Array.fold_left (fun a (_, r) -> a +. f r) 0.0 results in
  let sumi f = Array.fold_left (fun a (_, r) -> a + f r) 0 results in
  let maxi f = Array.fold_left (fun a (_, r) -> max a (f r)) 0 results in
  {
    cores = results;
    instructions = sumi (fun r -> r.Pf_cpu.Step.instructions);
    src_instructions = sumi (fun r -> r.Pf_cpu.Step.src_instructions);
    cycles = maxi (fun r -> r.Pf_cpu.Step.cycles);
    slices = t.slices;
    power =
      {
        switching =
          sum (fun r -> r.Pf_cpu.Step.power.Pf_power.Account.switching);
        internal =
          sum (fun r -> r.Pf_cpu.Step.power.Pf_power.Account.internal);
        leakage = sum (fun r -> r.Pf_cpu.Step.power.Pf_power.Account.leakage);
        total = sum (fun r -> r.Pf_cpu.Step.power.Pf_power.Account.total);
        peak_power =
          sum (fun r -> r.Pf_cpu.Step.power.Pf_power.Account.peak_power);
      };
    coherence = Option.map Coherence.stats t.coherence;
  }

(* Core builders over the existing engine front ends. *)

let arm_core ?max_steps ?deadline ?trace image =
  Pf_cpu.Step.of_image ?max_steps ?deadline ?trace image

let fits_core ?max_steps ?deadline ?trace image =
  (* per-core application-specific synthesis: profile the ARM image,
     synthesize its FITS spec, translate — the sequential FITS flow, one
     decoder configuration per core *)
  let dyn_counts, _ =
    Pf_fits.Synthesis.dyn_counts_of_run ?max_steps ?deadline image
  in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  Pf_fits.Run.stepper ?max_steps ?deadline ?trace tr
