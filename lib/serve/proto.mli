(** The serve wire protocol: length-prefixed JSON frames, one
    request/response exchange per connection.

    Frames are a 4-byte big-endian length followed by that many bytes of
    JSON, capped at {!max_frame}; requests and responses round-trip
    through {!Json.t} so [request_of_json (request_to_json r)] preserves
    every field (asserted by the serve tests). *)

val max_frame : int
(** 16 MB — bounds what a peer can make either side allocate. *)

val frame : string -> string
(** The bytes {!write_frame} sends for a payload: the length header, then
    the payload.  Raises a structured [Invalid_config]
    {!Pf_util.Sim_error.Error} on a payload over {!max_frame}. *)

val write_framed : Unix.file_descr -> string -> unit
(** Write bytes {!frame} built, whole. *)

val write_frame : Unix.file_descr -> string -> unit
(** [write_framed fd (frame payload)]. *)

val read_frame : Unix.file_descr -> string option
(** [None] on clean EOF before a complete frame; raises a structured
    [Invalid_config] {!Pf_util.Sim_error.Error} on an oversized length
    prefix.  A failed read raises its [Unix.Unix_error] (under
    [SO_RCVTIMEO], [EAGAIN] once the deadline passes).

    What it allocates follows the bytes that arrive, not the length the
    header claims: the payload buffer starts at {!read_chunk} bytes (the
    whole payload, if shorter) and doubles each time it fills, and the
    buffer that fills last is returned without a copy.  A payload of at
    most {!read_chunk} bytes costs its own length; a stream that ends
    early costs at most {!read_chunk} bytes, or four times what arrived
    once more than that has. *)

val read_chunk : int
(** 64 KB: the most a frame read allocates before its bytes arrive. *)

(** {2 Requests} *)

type action = Synthesize | Evaluate | Explore_point | Status | Shutdown

val action_name : action -> string
val action_of_string : string -> action option

type program =
  | Named of string  (** a {!Pf_mibench.Registry} benchmark name *)
  | Inline of Pf_kir.Ast.program  (** a program shipped in the request *)

type isa = Arm | Fits

val isa_name : isa -> string

type request = {
  action : action;
  program : program;
  isa : isa;
  weighting : Pf_multi.Weighting.t;
  geometry : Pf_cache.Icache.config;
  dict_budget : int option;
  scale : int;
  unroll : int option;  (** [None]: registry default (1 for inline) *)
  max_steps : int option;
  budget_s : float option;  (** [None]: daemon default *)
  no_cache : bool;  (** bypass the artifact store for this request *)
}

val default_request : request
(** [evaluate crc32 arm @ 16K] with every option defaulted — the base
    clients build concrete requests from. *)

val request_to_json : request -> Json.t

val request_of_json : Json.t -> request
(** Raises a structured [Invalid_config] {!Pf_util.Sim_error.Error}
    naming the offending field on a malformed request — the daemon turns
    that into an error reply, never a dropped connection. *)

val geometry_to_json : Pf_cache.Icache.config -> Json.t

val geometry_of_json : Json.t -> Pf_cache.Icache.config
(** Validates via {!Pf_cache.Icache.validate}. *)

(** {2 Responses} *)

type response =
  | Ok_reply of { result : Json.t; cached : bool; degraded : bool }
  | Error_reply of Pf_util.Sim_error.t
  | Overloaded of { depth : int; capacity : int }
      (** admission queue full — retry later; carries the queue state the
          refusal was based on *)

val response_to_json : response -> Json.t
val response_of_json : Json.t -> response
