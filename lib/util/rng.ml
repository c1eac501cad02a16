(* The splitmix64 state lives in 8 bytes rather than a mutable [int64]
   field, so reading and writing it moves a raw machine word: with [next]
   inlined, a draw allocates nothing (a boxed field cost a fresh [Int64]
   per draw, and the result another). *)
type t = Bytes.t

let make state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = make (Int64.of_int seed)

(* splitmix64: fast, high-quality, and trivially reproducible. *)
let[@inline] next t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int32u t = Int64.to_int (Int64.logand (next t) 0xFFFF_FFFFL)

let bool t = Int64.logand (next t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = make (next t)
