(* Wire protocol: length-prefixed JSON frames over a Unix-domain socket,
   one request/response exchange per connection.

   Frame = 4-byte big-endian payload length + payload bytes.  The length
   cap bounds what a hostile or confused peer can make the daemon
   allocate; oversized or malformed frames produce structured errors,
   never exceptions escaping the connection handler. *)

let max_frame = 16 * 1024 * 1024

let err fmt =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where:"serve.proto"
    fmt

(* ---- framing ---- *)

let really_write fd s =
  let len = String.length s in
  let written = ref 0 in
  while !written < len do
    written :=
      !written + Unix.write_substring fd s !written (len - !written)
  done

let read_chunk = 64 * 1024

(* Exactly [n] bytes, or [None] if the stream ends first.  The buffer
   grows with the bytes that arrive, never to the [n] a header merely
   claims, and the one that fills last is the result. *)
let really_read fd n =
  let rec go buf got =
    if got = n then Some (Bytes.unsafe_to_string buf)
    else
      let buf =
        if got < Bytes.length buf then buf
        else begin
          let grown = Bytes.create (min n (2 * got)) in
          Bytes.blit buf 0 grown 0 got;
          grown
        end
      in
      let r = Unix.read fd buf got (Bytes.length buf - got) in
      if r = 0 then None else go buf (got + r)
  in
  go (Bytes.create (min n read_chunk)) 0

let frame payload =
  let len = String.length payload in
  if len > max_frame then err "frame of %d bytes exceeds %d" len max_frame;
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

let write_framed = really_write
let write_frame fd payload = really_write fd (frame payload)

let read_frame fd =
  match really_read fd 4 with
  | None -> None
  | Some hdr ->
      let len =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if len > max_frame then err "frame of %d bytes exceeds %d" len max_frame;
      really_read fd len

(* ---- requests ---- *)

type action = Synthesize | Evaluate | Explore_point | Status | Shutdown

let action_name = function
  | Synthesize -> "synthesize"
  | Evaluate -> "evaluate"
  | Explore_point -> "explore-point"
  | Status -> "status"
  | Shutdown -> "shutdown"

let action_of_string = function
  | "synthesize" -> Some Synthesize
  | "evaluate" -> Some Evaluate
  | "explore-point" -> Some Explore_point
  | "status" -> Some Status
  | "shutdown" -> Some Shutdown
  | _ -> None

type program = Named of string | Inline of Pf_kir.Ast.program

type isa = Arm | Fits

let isa_name = function Arm -> "arm" | Fits -> "fits"

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
  no_cache : bool;
}

let default_request =
  {
    action = Evaluate;
    program = Named "crc32";
    isa = Arm;
    weighting = Pf_multi.Weighting.Dyn_count;
    geometry = Pf_dse.Space.cache_16k;
    dict_budget = None;
    scale = 1;
    unroll = None;
    max_steps = None;
    budget_s = None;
    no_cache = false;
  }

let geometry_to_json (g : Pf_cache.Icache.config) =
  Json.Obj
    [
      ("size_bytes", Json.Int g.Pf_cache.Icache.size_bytes);
      ("block_bytes", Json.Int g.Pf_cache.Icache.block_bytes);
      ("assoc", Json.Int g.Pf_cache.Icache.assoc);
    ]

let geometry_of_json j =
  match
    ( Option.bind (Json.member "size_bytes" j) Json.to_int_opt,
      Option.bind (Json.member "block_bytes" j) Json.to_int_opt,
      Option.bind (Json.member "assoc" j) Json.to_int_opt )
  with
  | Some size_bytes, Some block_bytes, Some assoc ->
      let g = { Pf_cache.Icache.size_bytes; block_bytes; assoc } in
      Pf_cache.Icache.validate g;
      g
  | _ -> err "bad geometry (need size_bytes/block_bytes/assoc)"

let request_to_json (r : request) =
  let base =
    [
      ("action", Json.String (action_name r.action));
      (match r.program with
      | Named n -> ("benchmark", Json.String n)
      | Inline p -> ("program", Kir_codec.to_json p));
      ("isa", Json.String (isa_name r.isa));
      ("weighting", Json.String (Pf_multi.Weighting.to_string r.weighting));
      ("geometry", geometry_to_json r.geometry);
      ("scale", Json.Int r.scale);
    ]
  in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    (base
    @ opt "dict_budget" (fun b -> Json.Int b) r.dict_budget
    @ opt "unroll" (fun u -> Json.Int u) r.unroll
    @ opt "max_steps" (fun m -> Json.Int m) r.max_steps
    @ opt "budget_s" (fun b -> Json.Float b) r.budget_s
    @ if r.no_cache then [ ("no_cache", Json.Bool true) ] else [])

let request_of_json j =
  let action =
    match
      Option.bind (Option.bind (Json.member "action" j) Json.to_string_opt)
        action_of_string
    with
    | Some a -> a
    | None -> err "bad or missing action"
  in
  let program =
    match (Json.member "benchmark" j, Json.member "program" j) with
    | Some (Json.String n), None -> Named n
    | None, Some p -> Inline (Kir_codec.of_json p)
    | None, None -> default_request.program
    | _ -> err "give either benchmark or program, not both"
  in
  let isa =
    match Option.bind (Json.member "isa" j) Json.to_string_opt with
    | Some "arm" | None -> Arm
    | Some "fits" -> Fits
    | Some s -> err "bad isa %S (arm|fits)" s
  in
  let weighting =
    match Option.bind (Json.member "weighting" j) Json.to_string_opt with
    | None -> default_request.weighting
    | Some s -> (
        match Pf_multi.Weighting.of_string s with
        | Ok w -> w
        | Error msg -> err "bad weighting: %s" msg)
  in
  let geometry =
    match Json.member "geometry" j with
    | None -> default_request.geometry
    | Some g -> geometry_of_json g
  in
  let int_field name =
    match Json.member name j with
    | None -> None
    | Some v -> (
        match Json.to_int_opt v with
        | Some i -> Some i
        | None -> err "bad %s (expected int)" name)
  in
  let scale = Option.value ~default:1 (int_field "scale") in
  if scale < 1 then err "bad scale %d" scale;
  let budget_s =
    match Json.member "budget_s" j with
    | None -> None
    | Some v -> (
        match Json.to_float_opt v with
        | Some f -> Some f
        | None -> err "bad budget_s (expected number)")
  in
  let no_cache =
    match Option.bind (Json.member "no_cache" j) Json.to_bool_opt with
    | Some b -> b
    | None -> false
  in
  {
    action;
    program;
    isa;
    weighting;
    geometry;
    dict_budget = int_field "dict_budget";
    scale;
    unroll = int_field "unroll";
    max_steps = int_field "max_steps";
    budget_s;
    no_cache;
  }

(* ---- responses ---- *)

type response =
  | Ok_reply of { result : Json.t; cached : bool; degraded : bool }
  | Error_reply of Pf_util.Sim_error.t
  | Overloaded of { depth : int; capacity : int }

let response_to_json = function
  | Ok_reply { result; cached; degraded } ->
      Json.Obj
        [
          ("status", Json.String "ok");
          ("cached", Json.Bool cached);
          ("degraded", Json.Bool degraded);
          ("result", result);
        ]
  | Error_reply e ->
      Json.Obj
        [
          ("status", Json.String "error");
          ( "error",
            Json.Obj
              ([
                 ( "kind",
                   Json.String (Pf_util.Sim_error.kind_name e.Pf_util.Sim_error.kind)
                 );
                 ("where", Json.String e.Pf_util.Sim_error.where);
                 ("detail", Json.String e.Pf_util.Sim_error.detail);
               ]
              @
              match e.Pf_util.Sim_error.backtrace with
              | None -> []
              | Some bt -> [ ("backtrace", Json.String bt) ]) );
        ]
  | Overloaded { depth; capacity } ->
      Json.Obj
        [
          ("status", Json.String "overloaded");
          ("depth", Json.Int depth);
          ("capacity", Json.Int capacity);
        ]

let response_of_json j =
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some "ok" ->
      let flag name =
        Option.value ~default:false
          (Option.bind (Json.member name j) Json.to_bool_opt)
      in
      let result = Option.value ~default:Json.Null (Json.member "result" j) in
      Ok_reply { result; cached = flag "cached"; degraded = flag "degraded" }
  | Some "error" -> (
      let e = Option.value ~default:Json.Null (Json.member "error" j) in
      let field name =
        Option.value ~default:"?"
          (Option.bind (Json.member name e) Json.to_string_opt)
      in
      let kind =
        match field "kind" with
        | "decode-fault" -> Pf_util.Sim_error.Decode_fault
        | "memory-fault" -> Pf_util.Sim_error.Memory_fault
        | "watchdog-timeout" -> Pf_util.Sim_error.Watchdog_timeout
        | "divergence" -> Pf_util.Sim_error.Divergence
        | "translate-gap" -> Pf_util.Sim_error.Translate_gap
        | "invalid-config" -> Pf_util.Sim_error.Invalid_config
        | _ -> Pf_util.Sim_error.Internal
      in
      Error_reply
        {
          Pf_util.Sim_error.kind;
          where = field "where";
          detail = field "detail";
          backtrace =
            Option.bind (Json.member "backtrace" e) Json.to_string_opt;
        })
  | Some "overloaded" ->
      let int name =
        Option.value ~default:0
          (Option.bind (Json.member name j) Json.to_int_opt)
      in
      Overloaded { depth = int "depth"; capacity = int "capacity" }
  | _ -> err "bad response status"
