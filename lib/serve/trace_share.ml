(* Recorded-trace sharing across evaluate and explore-point requests.

   Both actions read a program's recorded executions and then evaluate
   ONE geometry from them — so a client walking a geometry grid pays the
   recording once per point unless the daemon remembers it.  This table
   memoizes {!Pf_dse.Explore.recording}s under keys the service builds
   from exactly what determines one: program content (scale-specialized),
   unroll and effective max_steps for an ARM half, plus the dictionary
   budget and synthesis weighting for a FITS half — and geometry
   deliberately not, so grid walks share.

   Recordings are immutable once built and sweeping only reads them, so
   one recording can serve concurrent worker domains; the table itself is
   mutex-protected.  The recording computation runs OUTSIDE the lock:
   two workers racing on the same fresh key may both record (the results
   are bit-identical; the first insert wins and both use it), which
   wastes at most one recording and never serializes unrelated
   requests.  Bounded by LRU eviction — traces are the largest objects
   the daemon holds. *)

type entry = {
  recording : Pf_dse.Explore.recording;
  mutable stamp : int; (* recency tick for LRU eviction *)
}

type t = {
  m : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable shared : int;
  mutable recorded : int;
}

let default_capacity = 8

let create ?(capacity = default_capacity) () =
  if capacity < 1 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
      ~where:"serve.trace_share" "capacity must be >= 1 (got %d)" capacity;
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 16;
    capacity;
    tick = 0;
    shared = 0;
    recorded = 0;
  }

let evict_lru t =
  if Hashtbl.length t.tbl > t.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        match !victim with
        | Some (_, stamp) when stamp <= e.stamp -> ()
        | _ -> victim := Some (key, e.stamp))
      t.tbl;
    match !victim with
    | Some (key, _) -> Hashtbl.remove t.tbl key
    | None -> ()
  end

let find_or_record t ~key f =
  Mutex.lock t.m;
  t.tick <- t.tick + 1;
  let hit =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
        e.stamp <- t.tick;
        t.shared <- t.shared + 1;
        Some e.recording
    | None -> None
  in
  Mutex.unlock t.m;
  match hit with
  | Some recording -> (recording, true)
  | None ->
      let recording = f () in
      Mutex.lock t.m;
      t.tick <- t.tick + 1;
      let winner =
        (* a racing worker may have inserted the same key while we were
           recording; its recording is bit-identical — use it and drop
           ours so the table never holds duplicates *)
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
            e.stamp <- t.tick;
            e.recording
        | None ->
            Hashtbl.replace t.tbl key { recording; stamp = t.tick };
            t.recorded <- t.recorded + 1;
            evict_lru t;
            recording
      in
      Mutex.unlock t.m;
      (winner, false)

let stats t =
  Mutex.lock t.m;
  let s = (t.shared, t.recorded, Hashtbl.length t.tbl) in
  Mutex.unlock t.m;
  s
