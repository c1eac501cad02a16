(** Crash-safe content-addressed artifact store.

    Maps an opaque request key (the canonical byte string
    {!Service.cache_key} builds from program hash, ISA spec, weighting
    and geometry) to a cached result payload.  Records live one per file
    under [<dir>/objects/], named by the MD5 of the key, written
    atomically ({!Pf_util.Atomic_file}) and framed with a magic, explicit
    lengths and a CRC-32 trailer, so a reader can always tell a committed
    record from a damaged one.

    Failure discipline: a record that fails verification — on the opening
    recovery scan or on any later {!get} — is moved to
    [<dir>/quarantine/] (never deleted, never decoded, never served) and
    the lookup misses.  Committed records survive any crash point of the
    writer; torn writes are invisible because publication is a rename. *)

type t

type recovery = {
  entries : int;  (** verified committed records found on open *)
  recovered_quarantined : int;
      (** records that failed verification during the scan *)
  swept_temps : int;  (** stale atomic-write temp files removed *)
}

val open_ :
  ?fsync:bool ->
  ?crash:(Pf_util.Atomic_file.crash_point -> bool) ->
  ?log:(string -> unit) ->
  string ->
  t * recovery
(** [open_ dir] creates the layout if needed, sweeps stale temp files and
    verifies every record (quarantining failures).  [fsync] (default true) governs durability of every
    subsequent write; tests pass [false] for speed.  [crash] is threaded
    to {!Pf_util.Atomic_file.write} on every {!put} — the store-fault
    injector's hook.  [log] receives one line per quarantined record. *)

val put : t -> key:string -> string -> unit
(** Atomically commit [payload] under [key], replacing any previous
    record.  May raise {!Pf_util.Atomic_file.Crash} when a crash hook
    fires, or a [Unix.Unix_error] on real I/O failure. *)

val get : t -> key:string -> string option
(** Verified lookup: [Some payload] only if the record decodes, its CRC
    matches and its embedded key equals [key]; otherwise the record (if
    any) is quarantined and the result is [None]. *)

val count : t -> int
(** Committed records currently on disk. *)

val quarantined : t -> int
(** Records quarantined over this handle's lifetime (including its
    opening scan). *)

val close : t -> unit
(** Fsync the store directory and refuse further operations.
    Idempotent. *)

(** {2 Record codec} — exposed for the fault injector and tests. *)

val encode_record : key:string -> string -> string

val decode_record : string -> (string * string, string) result
(** [(key, payload)], or a human-readable reason the bytes are not a
    committed record.  Total: never raises on arbitrary input. *)

val key_hash : string -> string
(** MD5 hex of a key — the record's file basename. *)
