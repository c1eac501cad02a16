(** Minimal JSON values for the serve protocol.

    The daemon parses untrusted request bytes and prints responses /
    cached payloads; both directions go through this one value type so a
    print → parse round trip is the identity (asserted by the serve
    tests).  Ints print as ints (exact), floats with enough digits to be
    lossless. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Raises a structured
    [Invalid_config] {!Pf_util.Sim_error.Error} on a non-finite float —
    the protocol has no spelling for those. *)

val max_depth : int
(** 512: the deepest nesting of lists and objects {!of_string} accepts.
    The parser recurses once per level, so the cap bounds the stack and
    time a hostile document can cost; a canonical program encoding
    nests about 24 deep. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON document; [Error] carries a message with a
    byte offset, and names the cap for a document nested deeper than
    {!max_depth}.  Never raises on malformed input — request bytes come
    off a socket. *)

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts [Int] too — [7] and [7.0] are the same JSON number. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
