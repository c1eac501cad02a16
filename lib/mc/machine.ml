(* The multicore machine: N per-core steppers ({!Pf_cpu.Step}), one
   deterministic scheduler, an optional coherence layer over the shared
   data window.

   The machine itself is strictly single-domain — one core advances per
   slice, picked by [Sched] — so a run (including every per-core trace
   recording) is a pure function of the construction arguments and the
   scheduler seed.  Sweeps parallelize ACROSS machines (seeds, configs)
   with [Pf_util.Pool], never inside one.

   A machine without a shared window runs its cores one after another
   ([run_private]): no core reads anything another writes, so every
   per-core state, and the slice total, is the same under any schedule.
   [step] keeps the interleaving semantics and is that path's oracle.

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
  runnable : int -> bool;  (* built once: [step] must not allocate *)
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
  let runnable c = not (Pf_cpu.Step.halted cores.(c).step) in
  { cores; sched; coherence; runnable; slices = 0 }

let ncores (t : t) = Array.length t.cores
let core (t : t) i = t.cores.(i).step
let label (t : t) i = t.cores.(i).label
let slices (t : t) = t.slices

let all_halted (t : t) =
  Array.for_all (fun c -> Pf_cpu.Step.halted c.step) t.cores

let step (t : t) =
  let c = Sched.next t.sched ~runnable:t.runnable in
  if c < 0 then false
  else begin
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
  end

(* Each core to halt, in index order, with the plain [Step.step] loop.
   A core that raises stops there; the others still run to their own
   end, so the replay below knows every core's slice count. *)
let run_private (t : t) =
  let n = Array.length t.cores in
  let counts = Array.make n 0 in
  let faults = Array.make n None in
  Array.iteri
    (fun c { step = s; _ } ->
      let k = ref 0 in
      (try
         while not (Pf_cpu.Step.halted s) do
           Pf_cpu.Step.step s;
           incr k
         done
       with e -> faults.(c) <- Some (e, Printexc.get_raw_backtrace ()));
      counts.(c) <- !k)
    t.cores;
  if Array.for_all Option.is_none faults then
    t.slices <- t.slices + Array.fold_left ( + ) 0 counts
  else begin
    (* Replay the scheduler's picks over the slice counts, executing
       nothing: the interleaved machine raises at the first pick of a
       faulted core past its count, with the slices counted so far. *)
    let replayed = Array.make n 0 in
    let runnable c = replayed.(c) < counts.(c) || Option.is_some faults.(c) in
    let rec replay () =
      let c = Sched.next t.sched ~runnable in
      if c >= 0 then
        if replayed.(c) < counts.(c) then begin
          replayed.(c) <- replayed.(c) + 1;
          t.slices <- t.slices + 1;
          replay ()
        end
        else
          Option.iter
            (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
            faults.(c)
    in
    (* a faulted core stays runnable, so [replay] always ends in a raise *)
    replay ()
  end

let run (t : t) =
  match t.coherence with
  | None -> run_private t
  | Some _ -> while step t do () done

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
  let f = Pf_fits.Synthesis.flow ?max_steps ?deadline image in
  Pf_fits.Run.stepper ?max_steps ?deadline ?trace f.Pf_fits.Synthesis.tr
