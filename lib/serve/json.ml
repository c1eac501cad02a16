(* Minimal JSON for the serve protocol.  The tree has so far only
   hand-rolled JSON *writers* (bench, explore); the daemon also has to
   *parse* untrusted request bytes, so this is a small complete
   parser/printer pair.  No external dependency — the container image
   pins the package set.

   Numbers: ints stay ints (cycle counts overflow float-exactness at
   2^53, far above anything simulated, but exact is exact); everything
   else is float, printed with %.17g so a parse→print→parse round trip
   is lossless. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let err fmt =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where:"serve.json"
    fmt

(* ---- printing ---- *)

(* The printer runs on every reply and on each inline program's canonical
   encode, so it works per token, not per byte: ints go digit by digit
   straight into the buffer, and a string's escape-free runs are copied
   whole. *)

(* The escape of each byte, [""] for a byte printed as itself. *)
let escapes =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ when c < 0x20 -> Printf.sprintf "\\u%04x" c
      | _ -> "")

let escape_to buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let e = escapes.(Char.code s.[i]) in
    if String.length e > 0 then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf e;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else (
    Buffer.add_char buf '-';
    add_digits buf (-i))

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* [xs] printed by [f], comma-separated *)
let rec print_sep f buf = function
  | [] -> ()
  | [ x ] -> f buf x
  | x :: rest ->
      f buf x;
      Buffer.add_char buf ',';
      print_sep f buf rest

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if not (Float.is_finite f) then err "cannot print non-finite float %h" f
      else Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      print_sep print_to buf xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      print_sep print_member buf kvs;
      Buffer.add_char buf '}'

and print_member buf (k, v) =
  escape_to buf k;
  Buffer.add_char buf ':';
  print_to buf v

let to_string j =
  let buf = Buffer.create 256 in
  print_to buf j;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of string

type state = { s : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let lit st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then (
    st.pos <- st.pos + n;
    v)
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if st.pos >= String.length st.s then fail st "unterminated escape";
        let e = st.s.[st.pos] in
        st.pos <- st.pos + 1;
        match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'u' ->
            if st.pos + 4 > String.length st.s then fail st "short \\u escape";
            let hex = String.sub st.s st.pos 4 in
            st.pos <- st.pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail st "bad \\u escape"
            in
            (* protocol strings are ASCII-or-bytes; encode BMP scalars
               as UTF-8 so round trips hold for what we emit *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then (
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
            else (
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))));
            go ()
        | _ -> fail st "bad escape")
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad number %S" tok))

let max_depth = 512

(* [depth] containers enclose the value; one more [ or { than
   [max_depth] fails before the parser recurses into it *)
let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some ('[' | '{') when depth >= max_depth ->
      fail st (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then (
        st.pos <- st.pos + 1;
        List [])
      else
        let rec items acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then (
        st.pos <- st.pos + 1;
        Obj [])
      else
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        members []
  | Some _ -> parse_number st

let of_string s =
  match
    let st = { s; pos = 0 } in
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
