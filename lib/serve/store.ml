(* Crash-safe content-addressed artifact store.

   Layout:
     <dir>/objects/<md5-of-key>.rec     committed records
     <dir>/quarantine/<name>            records that failed verification

   Every record is written with {!Pf_util.Atomic_file} (temp + fsync +
   rename), so a crash leaves either the old committed bytes or the new
   committed bytes at the final name — never a torn mixture — plus at
   worst a stale temp file.  Verification is therefore only needed
   against *storage* faults (bit rot, truncation, hostile edits), and the
   record format makes every such fault detectable:

     "PFAS" | version=0x01 | be32 keylen | be32 paylen | key | payload | be32 crc

   where crc is CRC-32 of everything between the magic and the trailer.
   A reader checks exact file length, magic, version, lengths and CRC;
   any single-byte flip or truncation fails at least one check (CRC
   catches all single-bit and single-byte errors; the exact-length check
   catches truncation and extension even across the CRC's blind spots).

   The store never deletes a failing record — it moves it to
   quarantine/, so forensics keep the bytes while lookups can never
   return them. *)

type t = {
  dir : string;
  fsync : bool;
  crash : (Pf_util.Atomic_file.crash_point -> bool) option;
  log : string -> unit;
  m : Mutex.t;
  mutable quarantined : int;  (* lifetime, including recovery *)
  mutable closed : bool;
}

type recovery = {
  entries : int;
  recovered_quarantined : int;
  swept_temps : int;
}

let magic = "PFAS"
let version = '\x01'

let err fmt =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
    ~where:"serve.store" fmt

let objects_dir t = Filename.concat t.dir "objects"
let quarantine_dir t = Filename.concat t.dir "quarantine"
let key_hash key = Digest.to_hex (Digest.string key)

let record_path t key =
  Filename.concat (objects_dir t) (key_hash key ^ ".rec")

(* ---- record codec ---- *)

let be32 n =
  if n < 0 || n > 0xFFFFFFFF then err "field length %d out of range" n;
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.to_string b

let read_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let encode_record ~key payload =
  let body =
    Printf.sprintf "%c%s%s%s%s" version
      (be32 (String.length key))
      (be32 (String.length payload))
      key payload
  in
  let crc = Pf_util.Crc32.string body in
  magic ^ body ^ be32 crc

let decode_record s =
  let len = String.length s in
  let header = 4 + 1 + 4 + 4 in
  if len < header + 4 then Error "record shorter than header"
  else if String.sub s 0 4 <> magic then Error "bad magic"
  else if s.[4] <> version then
    Error (Printf.sprintf "unknown version 0x%02x" (Char.code s.[4]))
  else
    let keylen = read_be32 s 5 in
    let paylen = read_be32 s 9 in
    if len <> header + keylen + paylen + 4 then
      Error
        (Printf.sprintf "length mismatch: %d bytes for keylen=%d paylen=%d"
           len keylen paylen)
    else
      let crc_stored = read_be32 s (len - 4) in
      let crc = Pf_util.Crc32.string ~pos:4 ~len:(len - 8) s in
      if crc <> crc_stored then
        Error (Printf.sprintf "crc mismatch: stored %08x computed %08x"
                 crc_stored crc)
      else
        Ok (String.sub s 13 keylen, String.sub s (13 + keylen) paylen)

(* ---- filesystem helpers ---- *)

let mkdir_p path =
  let rec go p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let list_dir dir =
  match Sys.readdir dir with
  | names ->
      Array.sort compare names;
      Array.to_list names
  | exception Sys_error _ -> []

(* ---- quarantine ---- *)

let quarantine_locked t ~name ~reason =
  let src = Filename.concat (objects_dir t) name in
  let dst = Filename.concat (quarantine_dir t) name in
  (try Unix.rename src dst
   with Unix.Unix_error _ -> (try Unix.unlink src with Unix.Unix_error _ -> ()));
  t.quarantined <- t.quarantined + 1;
  t.log
    (Printf.sprintf "store: quarantined=1 record=%s reason=%s" name reason)

(* ---- lifecycle ---- *)

let recover_locked t =
  (* sweep stale temp files first: they are residue of crashed writes,
     never observable through the committed namespace *)
  let swept = ref 0 in
  List.iter
    (fun name ->
      if Pf_util.Atomic_file.is_temp name then begin
        (try Unix.unlink (Filename.concat (objects_dir t) name)
         with Unix.Unix_error _ -> ());
        incr swept
      end)
    (list_dir (objects_dir t));
  let entries = ref 0 and bad = ref 0 in
  List.iter
    (fun name ->
      if Filename.check_suffix name ".rec" then begin
        let path = Filename.concat (objects_dir t) name in
        match decode_record (read_file path) with
        | Ok (key, _) when key_hash key ^ ".rec" = name -> incr entries
        | Ok (_, _) ->
            incr bad;
            quarantine_locked t ~name ~reason:"key-hash-mismatch"
        | Error reason ->
            incr bad;
            quarantine_locked t ~name ~reason
        | exception Sys_error _ ->
            incr bad;
            quarantine_locked t ~name ~reason:"unreadable"
      end)
    (list_dir (objects_dir t));
  { entries = !entries; recovered_quarantined = !bad; swept_temps = !swept }

let open_ ?(fsync = true) ?crash ?(log = fun _ -> ()) dir =
  mkdir_p (Filename.concat dir "objects");
  mkdir_p (Filename.concat dir "quarantine");
  let t =
    {
      dir;
      fsync;
      crash;
      log;
      m = Mutex.create ();
      quarantined = 0;
      closed = false;
    }
  in
  (t, recover_locked t)

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let check_open t = if t.closed then err "store %s is closed" t.dir

let put t ~key payload =
  locked t (fun () ->
      check_open t;
      Pf_util.Atomic_file.write ~fsync:t.fsync ?crash:t.crash
        ~path:(record_path t key)
        (encode_record ~key payload))

let get t ~key =
  locked t (fun () ->
      check_open t;
      let path = record_path t key in
      if not (Sys.file_exists path) then None
      else
        match decode_record (read_file path) with
        | Ok (k, payload) when k = key -> Some payload
        | Ok (k, _) ->
            (* an md5 collision or a record renamed into the wrong slot:
               either way not this key's data *)
            quarantine_locked t ~name:(Filename.basename path)
              ~reason:(Printf.sprintf "key mismatch (%s)" (key_hash k));
            None
        | Error reason ->
            quarantine_locked t ~name:(Filename.basename path) ~reason;
            None
        | exception Sys_error _ ->
            quarantine_locked t ~name:(Filename.basename path)
              ~reason:"unreadable";
            None)

let count t =
  locked t (fun () ->
      list_dir (objects_dir t)
      |> List.filter (fun n -> Filename.check_suffix n ".rec")
      |> List.length)

let quarantined t = locked t (fun () -> t.quarantined)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        if t.fsync then Pf_util.Atomic_file.fsync_dir t.dir;
        t.closed <- true
      end)
