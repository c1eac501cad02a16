(* Recorded-trace sharing across the service's requests.

   Evaluate and explore-point read a program's recorded executions and
   then evaluate ONE geometry from them, and synthesize needs only the
   ARM run's execution counts — so a client asking a program's usual
   questions would pay several recordings unless the daemon remembers
   them.  This table memoizes {!Pf_dse.Explore.recording} halves under
   keys the service builds from exactly what determines one: program
   content (scale-specialized), unroll and effective max_steps for an
   ARM half, plus the dictionary budget and synthesis weighting for a
   FITS half — and geometry deliberately not, so grid walks share.

   Everything is computed once, single-flight: a key's first caller
   leaves a pending cell in the table and computes outside the lock;
   later callers find the cell and wait on the table's condition until
   it is filled.  A computation that raises removes its cell and wakes
   the waiters, who look again and find the key free — one of them
   computes afresh under its own deadline, so no request inherits
   another's timeout.  Pending cells are never evicted, so a waiter's
   cell stays until it is filled or dropped.

   A half keeps what is derived from it in memos of the same kind: the
   ARM half's execution counts and each half's results at a geometry.
   They are bounded per half and go when the half is no longer
   reachable, so they are evicted with it.  A FITS half points at the
   ARM half it was built on, so explore-point's ARM side and an ARM
   evaluate share one replay per geometry.  All values are immutable
   once filled, so concurrent worker domains read them freely. *)

module X = Pf_dse.Explore

(* A computed-once value: [None] while its first caller computes it. *)
type 'a cell = { mutable value : 'a option; mutable stamp : int }

(* What a memo's events count in [stats]. *)
type kind = Halves | Counts | Results

type 'a memo = {
  kind : kind;
  cells : (string, 'a cell) Hashtbl.t;
  capacity : int;
}

type half = {
  recording : X.recording;
  arm : half option;  (* a FITS half's ARM half; [None] on an ARM half *)
  counts : int array memo;  (* one key; used on ARM halves *)
  arm_results : Pf_cpu.Arm_run.result memo;  (* used on ARM halves *)
  fits_results : Pf_fits.Run.result memo;  (* used on FITS halves *)
}

type t = {
  m : Mutex.t;
  filled : Condition.t;  (* broadcast when any cell is filled or dropped *)
  halves : half memo;
  mutable tick : int;  (* recency clock for LRU eviction *)
  mutable shared : int;
  mutable waits : int;
  mutable recordings : int;
  mutable recorded : int;
  mutable replays : int;
  mutable replays_shared : int;
}

let default_capacity = 8
let results_per_half = 16

let memo kind capacity = { kind; cells = Hashtbl.create 4; capacity }

let create ?(capacity = default_capacity) () =
  if capacity < 1 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
      ~where:"serve.trace_share" "capacity must be >= 1 (got %d)" capacity;
  {
    m = Mutex.create ();
    filled = Condition.create ();
    halves = memo Halves capacity;
    tick = 0;
    shared = 0;
    waits = 0;
    recordings = 0;
    recorded = 0;
    replays = 0;
    replays_shared = 0;
  }

(* ---- single flight (every function below runs with [t.m] held) ---- *)

type event = Hit | Join | Lead | Fill

let note t kind event =
  match (kind, event) with
  | Halves, Hit -> t.shared <- t.shared + 1
  | Halves, Join -> t.waits <- t.waits + 1
  | Halves, Lead -> t.recordings <- t.recordings + 1
  | Halves, Fill -> t.recorded <- t.recorded + 1
  | Results, (Hit | Join) -> t.replays_shared <- t.replays_shared + 1
  | Results, Lead -> t.replays <- t.replays + 1
  | Results, Fill | Counts, _ -> ()

let touch t c =
  t.tick <- t.tick + 1;
  c.stamp <- t.tick

(* Past capacity, drop the least recently used filled cell. *)
let evict memo =
  if Hashtbl.length memo.cells > memo.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun key c ->
        match (c.value, !victim) with
        | None, _ -> ()
        | Some _, Some (_, stamp) when stamp <= c.stamp -> ()
        | Some _, _ -> victim := Some (key, c.stamp))
      memo.cells;
    Option.iter (fun (key, _) -> Hashtbl.remove memo.cells key) !victim
  end

(* The value under [key], once any computation of it in progress has
   filled it; [None] if the key is free. *)
let rec look t memo key ~joined =
  match Hashtbl.find_opt memo.cells key with
  | Some ({ value = Some v; _ } as c) ->
      touch t c;
      if not joined then note t memo.kind Hit;
      Some v
  | Some { value = None; _ } ->
      if not joined then note t memo.kind Join;
      Condition.wait t.filled t.m;
      look t memo key ~joined:true
  | None -> None

(* The value under [key] and whether another caller computed it. *)
let once t memo key compute =
  Mutex.lock t.m;
  match look t memo key ~joined:false with
  | Some v ->
      Mutex.unlock t.m;
      (v, true)
  | None -> (
      let cell = { value = None; stamp = 0 } in
      Hashtbl.replace memo.cells key cell;
      note t memo.kind Lead;
      Mutex.unlock t.m;
      match compute () with
      | v ->
          Mutex.lock t.m;
          cell.value <- Some v;
          touch t cell;
          note t memo.kind Fill;
          evict memo;
          Condition.broadcast t.filled;
          Mutex.unlock t.m;
          (v, false)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.m;
          Hashtbl.remove memo.cells key;
          Condition.broadcast t.filled;
          Mutex.unlock t.m;
          Printexc.raise_with_backtrace e bt)

(* ---- halves ---- *)

let recording h = h.recording

let half ?arm recording =
  {
    recording;
    arm;
    counts = memo Counts 1;
    arm_results = memo Results results_per_half;
    fits_results = memo Results results_per_half;
  }

let arm_half t ~key record = once t t.halves key (fun () -> half (record ()))

let fits_half t ~key ~arm record =
  once t t.halves key (fun () ->
      let a = arm () in
      half ~arm:a (record a))

let find t ~key =
  Mutex.lock t.m;
  let h = look t t.halves key ~joined:false in
  Mutex.unlock t.m;
  h

(* ---- derived results ---- *)

let arm_of h = Option.value h.arm ~default:h

let counts t h =
  let a = arm_of h in
  fst (once t a.counts "" (fun () -> X.dyn_counts a.recording))

(* Every field of the geometry: results differ in each. *)
let geometry_key (g : Pf_cache.Icache.config) =
  Printf.sprintf "%d/%d/%d" g.Pf_cache.Icache.size_bytes
    g.Pf_cache.Icache.block_bytes g.Pf_cache.Icache.assoc

let arm_result t h g =
  let a = arm_of h in
  let r = a.recording.X.arm in
  if g = Pf_dse.Space.recording_point then r.X.arm_result
  else
    fst
      (once t a.arm_results (geometry_key g) (fun () ->
           Pf_cpu.Arm_run.replay ~cache_cfg:g
             ~output:r.X.arm_result.Pf_cpu.Arm_run.output r.X.image
             r.X.arm_trace))

let fits_result t h g =
  match h.recording.X.fits with
  | [] ->
      Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
        ~where:"serve.trace_share" "an ARM half has no FITS results"
  | f :: _ ->
      if g = Pf_dse.Space.recording_point then f.X.fits_result
      else
        fst
          (once t h.fits_results (geometry_key g) (fun () ->
               Pf_fits.Run.replay ~cache_cfg:g ~like:f.X.fits_result
                 f.X.translation f.X.fits_trace))

(* ---- stats ---- *)

type stats = {
  shared : int;
  waits : int;
  recordings : int;
  recorded : int;
  entries : int;
  replays : int;
  replays_shared : int;
}

let stats (t : t) =
  Mutex.lock t.m;
  let s =
    {
      shared = t.shared;
      waits = t.waits;
      recordings = t.recordings;
      recorded = t.recorded;
      entries = Hashtbl.length t.halves.cells;
      replays = t.replays;
      replays_shared = t.replays_shared;
    }
  in
  Mutex.unlock t.m;
  s
