(* The long-running synthesis service.

   One listening Unix-domain socket; one request/response exchange per
   connection.  The accept loop stays on the calling domain and does only
   cheap work: read the frame, decode it through the memo below, answer
   [status]/[shutdown] inline, and hand compute requests to a bounded
   {!Pf_util.Pool.Service} — whose refusal when full is the backpressure
   signal, returned to the client as a structured [overloaded] reply
   rather than an unbounded queue or a dropped connection.

   Every failure mode a connection can produce — unreadable frame,
   malformed JSON, invalid request, simulation error, worker exception —
   is confined to that connection: the handler wraps everything in
   {!Pf_util.Sim_error.protect} and the worker pool isolates task
   exceptions, so the daemon itself only exits on [shutdown] (or
   [max_requests], the test harness's self-stop).  A client that hangs
   up before its reply costs an [EPIPE] on the write, which is swallowed;
   the signal that write would raise is the embedding process's to
   ignore. *)

module SE = Pf_util.Sim_error

type config = {
  socket_path : string;
  store_dir : string option;
  jobs : int;
  queue_capacity : int;
  budget_s : float option;
  default_max_steps : int option;
  fsync : bool;
  crash : (Pf_util.Atomic_file.crash_point -> bool) option;
  max_requests : int option;
}

let default_config =
  {
    socket_path = "/tmp/powerfits-serve.sock";
    store_dir = None;
    jobs = 2;
    queue_capacity = 64;
    budget_s = None;
    default_max_steps = None;
    fsync = true;
    crash = None;
    max_requests = None;
  }

(* ---- decode memo ---- *)

module Memo = struct
  (* A client asks the same questions again and again, so the accept
     loop keeps each distinct compute frame's decoded request, with the
     key a worker computes for it, keyed by the frame's exact bytes: a
     repeated frame then costs one hash and one compare instead of a
     parse here and a key encode (a canonical KIR print and an MD5, for
     an inline program) on a worker.  Only the accept loop touches the
     table, so it takes no lock.  The budget counts frame bytes; an
     insert past it clears the table. *)
  let budget = 16 * 1024 * 1024

  type t = {
    table : (string, Service.keyed) Hashtbl.t;
    mutable bytes : int;
    mutable hits : int;
    mutable misses : int;
  }

  type stats = { hits : int; misses : int; entries : int; bytes : int }

  let create () = { table = Hashtbl.create 64; bytes = 0; hits = 0; misses = 0 }

  let stats (t : t) =
    {
      hits = t.hits;
      misses = t.misses;
      entries = Hashtbl.length t.table;
      bytes = t.bytes;
    }

  let parse frame =
    SE.protect ~where:"serve.daemon" (fun () ->
        match Json.of_string frame with
        | Error msg ->
            SE.raisef SE.Invalid_config ~where:"serve.daemon"
              "malformed request JSON: %s" msg
        | Ok j -> Service.keyed (Proto.request_of_json j))

  let computable k =
    match (Service.request k).Proto.action with
    | Proto.Synthesize | Proto.Evaluate | Proto.Explore_point -> true
    | Proto.Status | Proto.Shutdown -> false

  (* A parse error, [status] and [shutdown] are never stored.  An entry
     whose key raised stays as a marker: its frame is parsed afresh on
     every arrival and never stored again. *)
  let decode t frame =
    match Hashtbl.find_opt t.table frame with
    | Some k when not (Service.unkeyable k) ->
        t.hits <- t.hits + 1;
        Ok k
    | found ->
        let parsed = parse frame in
        (match parsed with
        | Ok k when computable k ->
            t.misses <- t.misses + 1;
            let n = String.length frame in
            if Option.is_none found && n <= budget then begin
              if t.bytes + n > budget then begin
                Hashtbl.reset t.table;
                t.bytes <- 0
              end;
              Hashtbl.add t.table frame k;
              t.bytes <- t.bytes + n
            end
        | _ -> ());
        parsed
end

type counters = {
  m : Mutex.t;
  mutable served : int;  (* responses written, any status *)
  mutable hits : int;
  mutable computed : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable degraded : int;
}

let send_response fd resp =
  try Proto.write_frame fd (Json.to_string (Proto.response_to_json resp))
  with Unix.Unix_error _ | SE.Error _ -> ()
(* the client may be gone; its reply is not worth the daemon *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let count_response c resp =
  Mutex.lock c.m;
  c.served <- c.served + 1;
  (match resp with
  | Proto.Ok_reply { cached; degraded; _ } ->
      if cached then c.hits <- c.hits + 1 else c.computed <- c.computed + 1;
      if degraded then c.degraded <- c.degraded + 1
  | Proto.Error_reply _ -> c.errors <- c.errors + 1
  | Proto.Overloaded _ -> c.overloaded <- c.overloaded + 1);
  Mutex.unlock c.m

let run ?(log = prerr_endline) (cfg : config) =
  let store, recovery =
    match cfg.store_dir with
    | None -> (None, None)
    | Some dir ->
        let s, r =
          Store.open_ ~fsync:cfg.fsync ?crash:cfg.crash ~log dir
        in
        (Some s, Some r)
  in
  (match recovery with
  | Some r ->
      log
        (Printf.sprintf
           "serve: store recovered entries=%d quarantined=%d swept_temps=%d"
           r.Store.entries r.Store.recovered_quarantined r.Store.swept_temps)
  | None -> log "serve: no artifact store (computing everything)");
  let c =
    {
      m = Mutex.create ();
      served = 0;
      hits = 0;
      computed = 0;
      errors = 0;
      overloaded = 0;
      degraded = 0;
    }
  in
  let inflight : Proto.response Inflight.t = Inflight.create () in
  let traces = Trace_share.create () in
  let memo = Memo.create () in
  let handle_compute (fd, k) =
    let resp =
      Service.handle ?store ~inflight ~traces ?budget_s:cfg.budget_s
        ?default_max_steps:cfg.default_max_steps k
    in
    count_response c resp;
    send_response fd resp;
    close_quiet fd
  in
  let service =
    Pf_util.Pool.Service.create ~jobs:(max 1 cfg.jobs)
      ~capacity:cfg.queue_capacity
      ~on_error:(fun e -> log ("serve: worker error: " ^ Printexc.to_string e))
      handle_compute
  in
  let status_json () =
    Mutex.lock c.m;
    let served = c.served and hits = c.hits and computed = c.computed in
    let errors = c.errors and overloaded = c.overloaded in
    let degraded = c.degraded in
    Mutex.unlock c.m;
    Json.Obj
      ([
         ("served", Json.Int served);
         ("cache_hits", Json.Int hits);
         ("computed", Json.Int computed);
         ("errors", Json.Int errors);
         ("overloaded", Json.Int overloaded);
         ("degraded", Json.Int degraded);
         ("coalesced", Json.Int (Inflight.coalesced inflight));
         ( "trace_share",
           let shared, recorded, entries = Trace_share.stats traces in
           Json.Obj
             [
               ("shared", Json.Int shared);
               ("recorded", Json.Int recorded);
               ("entries", Json.Int entries);
             ] );
         ( "memo",
           let m = Memo.stats memo in
           Json.Obj
             [
               ("hits", Json.Int m.Memo.hits);
               ("misses", Json.Int m.Memo.misses);
               ("entries", Json.Int m.Memo.entries);
               ("bytes", Json.Int m.Memo.bytes);
             ] );
         ("in_flight", Json.Int (Inflight.pending inflight));
         ("queue_depth", Json.Int (Pf_util.Pool.Service.depth service));
         ("queue_capacity", Json.Int (Pf_util.Pool.Service.capacity service));
         ("workers", Json.Int (Pf_util.Pool.Service.workers service));
       ]
      @
      match store with
      | None -> [ ("store", Json.Null) ]
      | Some s ->
          [
            ( "store",
              Json.Obj
                [
                  ("entries", Json.Int (Store.count s));
                  ("quarantined", Json.Int (Store.quarantined s));
                ] );
          ])
  in
  (* bind, replacing a stale socket file from a previous (possibly
     crashed) daemon — the store, not the socket, is the durable state *)
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen sock 64
   with e ->
     close_quiet sock;
     raise e);
  log (Printf.sprintf "serve: listening on %s (jobs=%d capacity=%d)"
         cfg.socket_path cfg.jobs cfg.queue_capacity);
  let stop = ref false in
  let accepted = ref 0 in
  while not !stop do
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ -> (
        incr accepted;
        let decoded =
          match SE.protect ~where:"serve.daemon" (fun () -> Proto.read_frame fd)
          with
          | Ok (Some frame) -> Result.map Option.some (Memo.decode memo frame)
          | (Ok None | Error _) as r -> r
        in
        match decoded with
        | Error e ->
            let resp = Proto.Error_reply e in
            count_response c resp;
            send_response fd resp;
            close_quiet fd
        | Ok None -> close_quiet fd (* client connected and hung up *)
        | Ok (Some k) -> (
            match (Service.request k).Proto.action with
            | Proto.Status ->
                let resp =
                  Proto.Ok_reply
                    { result = status_json (); cached = false; degraded = false }
                in
                count_response c resp;
                send_response fd resp;
                close_quiet fd
            | Proto.Shutdown ->
                let resp =
                  Proto.Ok_reply
                    {
                      result = Json.Obj [ ("stopping", Json.Bool true) ];
                      cached = false;
                      degraded = false;
                    }
                in
                count_response c resp;
                send_response fd resp;
                close_quiet fd;
                stop := true
            | Proto.Synthesize | Proto.Evaluate | Proto.Explore_point ->
                if not (Pf_util.Pool.Service.submit service (fd, k)) then begin
                  let resp =
                    Proto.Overloaded
                      {
                        depth = Pf_util.Pool.Service.depth service;
                        capacity = Pf_util.Pool.Service.capacity service;
                      }
                  in
                  count_response c resp;
                  send_response fd resp;
                  close_quiet fd
                end));
        (match cfg.max_requests with
        | Some n when !accepted >= n -> stop := true
        | _ -> ())
  done;
  (* graceful shutdown: stop accepting, finish every admitted request,
     then make the store durable *)
  close_quiet sock;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Pf_util.Pool.Service.drain service;
  Option.iter Store.close store;
  let m = Memo.stats memo in
  Mutex.lock c.m;
  log
    (Printf.sprintf
       "serve: shutdown complete served=%d hits=%d computed=%d errors=%d \
        overloaded=%d degraded=%d coalesced=%d memo_hits=%d memo_misses=%d \
        memo_entries=%d memo_bytes=%d"
       c.served c.hits c.computed c.errors c.overloaded c.degraded
       (Inflight.coalesced inflight) m.Memo.hits m.Memo.misses
       m.Memo.entries m.Memo.bytes);
  Mutex.unlock c.m
