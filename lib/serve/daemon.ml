(* The long-running synthesis service.

   One listening Unix-domain socket; one request/response exchange per
   connection.  The accept loop stays on the calling domain and does only
   cheap work: read the frame under a per-read deadline, decode it
   through the memo below, answer [status]/[shutdown] and repeated warm
   hits inline, and hand compute requests to a bounded
   {!Pf_util.Pool.Service} — whose refusal when full is the backpressure
   signal, returned to the client as a structured [overloaded] reply
   rather than an unbounded queue or a dropped connection.

   Every failure mode a connection can produce — stalled or unreadable
   frame, malformed JSON, invalid request, simulation error, worker
   exception — is confined to that connection: the handler wraps
   everything in {!Pf_util.Sim_error.protect} and the worker pool
   isolates task exceptions, so the daemon itself only exits on
   [shutdown] (or [max_requests], the test harness's self-stop).  A
   client that hangs up before its reply costs an [EPIPE] on the write,
   which is counted as [client_gone]; the signal that write would raise
   is the embedding process's to ignore. *)

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
     an inline program) on a worker.  Each entry also has a reply slot: a
     worker that answers the entry's request from the store publishes the
     framed reply there, and later arrivals of the frame are answered
     from it on the accept loop.  Only the accept loop touches the table,
     so it takes no lock; a slot is the one field a worker writes.  The
     budget counts frame bytes and the reply bytes the loop has answered
     from; an insert past it clears the table. *)
  let budget = 16 * 1024 * 1024

  type reply = { degraded : bool; framed : string }
  type slot = reply option Atomic.t

  type entry = {
    keyed : Service.keyed;
    slot : slot option;  (* [None] under [no_cache]: it never hits *)
    mutable reply_counted : bool;  (* its reply's bytes are in [bytes] *)
  }

  type t = {
    table : (string, entry) Hashtbl.t;
    mutable bytes : int;
    mutable hits : int;
    mutable misses : int;
    mutable replies : int;
  }

  type stats = {
    hits : int;
    misses : int;
    replies : int;
    entries : int;
    bytes : int;
  }

  type decoded = Request of Service.keyed * slot option | Reply of reply

  let create () =
    { table = Hashtbl.create 64; bytes = 0; hits = 0; misses = 0; replies = 0 }

  let stats (t : t) =
    {
      hits = t.hits;
      misses = t.misses;
      replies = t.replies;
      entries = Hashtbl.length t.table;
      bytes = t.bytes;
    }

  let clear (t : t) =
    Hashtbl.reset t.table;
    t.bytes <- 0

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

  (* The first answer from an entry's slot counts the reply's bytes; one
     past the budget clears the table, this entry with it.  The arrival
     is answered from the bytes in hand either way. *)
  let answer (t : t) e r =
    t.replies <- t.replies + 1;
    if not e.reply_counted then begin
      let n = String.length r.framed in
      if t.bytes + n > budget then clear t
      else begin
        e.reply_counted <- true;
        t.bytes <- t.bytes + n
      end
    end;
    Reply r

  (* A parse error, [status] and [shutdown] are never stored.  An entry
     whose key raised stays as a marker: its frame is parsed afresh on
     every arrival and never stored again. *)
  let decode (t : t) frame =
    match Hashtbl.find_opt t.table frame with
    | Some e when not (Service.unkeyable e.keyed) -> (
        t.hits <- t.hits + 1;
        match Option.bind e.slot Atomic.get with
        | Some r -> Ok (answer t e r)
        | None -> Ok (Request (e.keyed, e.slot)))
    | found -> (
        match parse frame with
        | Ok k when computable k ->
            t.misses <- t.misses + 1;
            let n = String.length frame in
            if Option.is_none found && n <= budget then begin
              if t.bytes + n > budget then clear t;
              let slot =
                if (Service.request k).Proto.no_cache then None
                else Some (Atomic.make None)
              in
              let e = { keyed = k; slot; reply_counted = false } in
              Hashtbl.add t.table frame e;
              t.bytes <- t.bytes + n;
              Ok (Request (k, slot))
            end
            else Ok (Request (k, None))
        | Ok k -> Ok (Request (k, None))
        | Error _ as e -> e)

  (* Called on a worker.  Only a store hit fills the slot: a computed
     reply says [cached = false], which a later hit's bytes do not. *)
  let reply slot resp =
    let framed = Proto.frame (Json.to_string (Proto.response_to_json resp)) in
    (match (slot, resp) with
    | Some s, Proto.Ok_reply { cached = true; degraded; _ } ->
        ignore (Atomic.compare_and_set s None (Some { degraded; framed }))
    | _ -> ());
    framed
end

let frame_deadline_s = 2.0

type counters = {
  m : Mutex.t;
  mutable served : int;  (* responses written, any status *)
  mutable hits : int;
  mutable computed : int;  (* uncached compute replies *)
  mutable errors : int;
  mutable overloaded : int;
  mutable degraded : int;
  mutable timeouts : int;  (* frames not read within the deadline *)
  mutable client_gone : int;  (* replies whose client had hung up *)
}

let locked c f =
  Mutex.lock c.m;
  f c;
  Mutex.unlock c.m

let count_ok ~cached ~degraded c =
  c.served <- c.served + 1;
  if cached then c.hits <- c.hits + 1 else c.computed <- c.computed + 1;
  if degraded then c.degraded <- c.degraded + 1

let count_response c resp =
  locked c (fun c ->
      match resp with
      | Proto.Ok_reply { cached; degraded; _ } -> count_ok ~cached ~degraded c
      | Proto.Error_reply _ ->
          c.served <- c.served + 1;
          c.errors <- c.errors + 1
      | Proto.Overloaded _ ->
          c.served <- c.served + 1;
          c.overloaded <- c.overloaded + 1)

(* a status or shutdown reply: served, neither a hit nor computed *)
let count_control c = locked c (fun c -> c.served <- c.served + 1)

(* The client may be gone; its reply is not worth the daemon.  A write
   refused because the client hung up is counted. *)
let write_reply c fd encode =
  try Proto.write_framed fd (encode ()) with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      locked c (fun c -> c.client_gone <- c.client_gone + 1)
  | Unix.Unix_error _ | SE.Error _ -> ()

let send_response c fd resp =
  write_reply c fd (fun () ->
      Proto.frame (Json.to_string (Proto.response_to_json resp)))

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A read that waits out [SO_RCVTIMEO] fails with [EAGAIN]. *)
let read_request fd =
  try Proto.read_frame fd
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    SE.raisef SE.Watchdog_timeout ~where:"serve.daemon"
      "no complete request frame within %g s" frame_deadline_s

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
      timeouts = 0;
      client_gone = 0;
    }
  in
  let inflight : Proto.response Inflight.t = Inflight.create () in
  let traces = Trace_share.create () in
  let memo = Memo.create () in
  let handle_compute (fd, k, slot) =
    let resp =
      Service.handle ?store ~inflight ~traces ?budget_s:cfg.budget_s
        ?default_max_steps:cfg.default_max_steps k
    in
    count_response c resp;
    write_reply c fd (fun () -> Memo.reply slot resp);
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
    let degraded = c.degraded and timeouts = c.timeouts in
    let client_gone = c.client_gone in
    Mutex.unlock c.m;
    Json.Obj
      ([
         ("served", Json.Int served);
         ("cache_hits", Json.Int hits);
         ("computed", Json.Int computed);
         ("errors", Json.Int errors);
         ("overloaded", Json.Int overloaded);
         ("degraded", Json.Int degraded);
         ("timeouts", Json.Int timeouts);
         ("client_gone", Json.Int client_gone);
         ("coalesced", Json.Int (Inflight.coalesced inflight));
         ( "trace_share",
           let t = Trace_share.stats traces in
           Json.Obj
             [
               ("shared", Json.Int t.Trace_share.shared);
               ("waits", Json.Int t.Trace_share.waits);
               ("recordings", Json.Int t.Trace_share.recordings);
               ("recorded", Json.Int t.Trace_share.recorded);
               ("entries", Json.Int t.Trace_share.entries);
               ("replays", Json.Int t.Trace_share.replays);
               ("replays_shared", Json.Int t.Trace_share.replays_shared);
             ] );
         ( "memo",
           let m = Memo.stats memo in
           Json.Obj
             [
               ("hits", Json.Int m.Memo.hits);
               ("misses", Json.Int m.Memo.misses);
               ("replies", Json.Int m.Memo.replies);
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
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO frame_deadline_s
         with Unix.Unix_error _ -> ());
        let decoded =
          match SE.protect ~where:"serve.daemon" (fun () -> read_request fd)
          with
          | Ok (Some frame) -> Result.map Option.some (Memo.decode memo frame)
          | (Ok None | Error _) as r -> r
        in
        match decoded with
        | Error e ->
            (* reading and decoding raise no other watchdog error *)
            if e.SE.kind = SE.Watchdog_timeout then
              locked c (fun c -> c.timeouts <- c.timeouts + 1);
            let resp = Proto.Error_reply e in
            count_response c resp;
            send_response c fd resp;
            close_quiet fd
        | Ok None -> close_quiet fd (* client connected and hung up *)
        | Ok (Some (Memo.Reply r)) ->
            locked c (count_ok ~cached:true ~degraded:r.Memo.degraded);
            write_reply c fd (fun () -> r.Memo.framed);
            close_quiet fd
        | Ok (Some (Memo.Request (k, slot))) -> (
            match (Service.request k).Proto.action with
            | Proto.Status ->
                let resp =
                  Proto.Ok_reply
                    { result = status_json (); cached = false; degraded = false }
                in
                count_control c;
                send_response c fd resp;
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
                count_control c;
                send_response c fd resp;
                close_quiet fd;
                stop := true
            | Proto.Synthesize | Proto.Evaluate | Proto.Explore_point ->
                if not (Pf_util.Pool.Service.submit service (fd, k, slot))
                then begin
                  let resp =
                    Proto.Overloaded
                      {
                        depth = Pf_util.Pool.Service.depth service;
                        capacity = Pf_util.Pool.Service.capacity service;
                      }
                  in
                  count_response c resp;
                  send_response c fd resp;
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
  let m = Memo.stats memo and t = Trace_share.stats traces in
  Mutex.lock c.m;
  log
    (Printf.sprintf
       "serve: shutdown complete served=%d hits=%d computed=%d errors=%d \
        overloaded=%d degraded=%d timeouts=%d client_gone=%d coalesced=%d \
        memo_hits=%d memo_misses=%d memo_replies=%d memo_entries=%d \
        memo_bytes=%d trace_recordings=%d trace_waits=%d trace_replays=%d \
        trace_replays_shared=%d"
       c.served c.hits c.computed c.errors c.overloaded c.degraded c.timeouts
       c.client_gone (Inflight.coalesced inflight) m.Memo.hits m.Memo.misses
       m.Memo.replies m.Memo.entries m.Memo.bytes t.Trace_share.recordings
       t.Trace_share.waits t.Trace_share.replays t.Trace_share.replays_shared);
  Mutex.unlock c.m
