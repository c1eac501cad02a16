open Pf_util

type t = {
  sizes : int list;
  blocks : int list;
  assocs : int list;
  dict_budgets : int option list;
}

let where = "dse.space"

(* Axis order is part of the contract: every consumer (the explorer, the
   emitters, the frontier) sees geometries in the same sorted order, so
   reports are a pure function of the space — never of enumeration or
   scheduling accidents. *)
let sort_axis = List.sort_uniq compare

let sort_budgets =
  List.sort_uniq (fun a b ->
      match (a, b) with
      | None, None -> 0
      | None, Some _ -> -1 (* uncapped first: the paper's per-app flow *)
      | Some _, None -> 1
      | Some x, Some y -> compare x y)

let feasible ~size ~block ~assoc = size >= block && assoc <= size / block

let validate t =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_axis name ~min_v xs =
    if xs = [] then add "%s axis is empty" name
    else
      List.iter
        (fun v ->
          if v < min_v || not (Bits.is_power_of_two v) then
            add "%s entry %d is not a power of two >= %d" name v min_v)
        xs
  in
  check_axis "sizes" ~min_v:64 t.sizes;
  check_axis "blocks" ~min_v:4 t.blocks;
  check_axis "assocs" ~min_v:1 t.assocs;
  if t.dict_budgets = [] then add "dict_budgets axis is empty"
  else
    List.iter
      (function
        | None -> ()
        | Some b ->
            if b < 1 then add "dict budget %d is not positive" b)
      t.dict_budgets;
  if
    !problems = []
    && not
         (List.exists
            (fun size ->
              List.exists
                (fun block ->
                  List.exists
                    (fun assoc -> feasible ~size ~block ~assoc)
                    t.assocs)
                t.blocks)
            t.sizes)
  then add "no feasible geometry: every size/block/assoc combination is degenerate";
  match List.rev !problems with
  | [] -> ()
  | ps ->
      Sim_error.raisef Sim_error.Invalid_config ~where "invalid space: %s"
        (String.concat "; " ps)

let make ?(blocks = [ 32 ]) ?(assocs = [ 32 ]) ?(dict_budgets = [ None ])
    ~sizes () =
  let t =
    {
      sizes = sort_axis sizes;
      blocks = sort_axis blocks;
      assocs = sort_axis assocs;
      dict_budgets = sort_budgets dict_budgets;
    }
  in
  validate t;
  t

let combos t = List.length t.sizes * List.length t.blocks * List.length t.assocs

let geometries t =
  List.concat_map
    (fun size ->
      List.concat_map
        (fun block ->
          List.filter_map
            (fun assoc ->
              if feasible ~size ~block ~assoc then
                Some
                  (Pf_cache.Icache.config ~size_bytes:size ~block_bytes:block
                     ~assoc ())
              else None)
            t.assocs)
        t.blocks)
    t.sizes

type cardinality = {
  combos : int;
  feasible : int;
  skipped : int;
  variants : int;
  points : int;
}

let cardinality t =
  let combos = combos t in
  let feasible = List.length (geometries t) in
  let variants = 1 + List.length t.dict_budgets in
  {
    combos;
    feasible;
    skipped = combos - feasible;
    variants;
    points = feasible * variants;
  }

(* ---- evaluation engine ------------------------------------------------- *)

type engine = Replay | Sweep

let engine_label = function Replay -> "replay" | Sweep -> "sweep"

(* Distinct (block size, set count) pairs across the feasible geometries:
   the single-pass kernel maintains one stack-distance profile per pair,
   and its per-trace cost is O(events * profiles) against replay's
   O(events * geometries). *)
let profiles t =
  geometries t
  |> List.map (fun (c : Pf_cache.Icache.config) ->
         (c.Pf_cache.Icache.block_bytes, Pf_cache.Icache.sets c))
  |> List.sort_uniq compare |> List.length

type cost = {
  executions : int;
  replays : int;
  points_total : int;
  profiles : int;
  sweep_passes : int;
}

let cost ~benchmarks t =
  let c = cardinality t in
  {
    executions = benchmarks * c.variants;
    replays = benchmarks * c.variants * c.feasible;
    points_total = benchmarks * c.points;
    profiles = profiles t;
    sweep_passes = benchmarks * c.variants;
  }

(* ---- named points ------------------------------------------------------ *)

let cache_16k = Pf_cache.Icache.config ~size_bytes:(16 * 1024) ()
let cache_8k = Pf_cache.Icache.config ~size_bytes:(8 * 1024) ()

(* Traces are recorded at the 16 K paper point; any valid geometry would
   record the identical stream (geometry never changes architectural
   behaviour), this one just makes the recording run double as the ARM16 /
   FITS16 data point when someone inspects it. *)
let recording_point = cache_16k

let paper_point ~arm (cfg : Pf_cache.Icache.config) =
  if cfg = cache_16k then Some (if arm then "ARM16" else "FITS16")
  else if cfg = cache_8k then Some (if arm then "ARM8" else "FITS8")
  else None

(* ---- named grids ------------------------------------------------------- *)

let k n = n * 1024

let smoke = make ~sizes:[ k 4; k 8; k 16 ] ~assocs:[ 8; 32 ] ()

let full =
  make
    ~sizes:[ k 1; k 2; k 4; k 8; k 16; k 32 ]
    ~blocks:[ 16; 32 ] ~assocs:[ 2; 8; 32 ] ()

(* Every power-of-two size from 64 B to 8 MB, blocks 4..256 B, ways
   1..1024: 1386 corners, 1058 feasible geometries.  Far past what
   per-geometry replay can afford over a full suite, and exactly what
   the single-pass sweep engine is for — the thousand-point frontier. *)
let dense =
  let pows lo hi = List.init (hi - lo + 1) (fun i -> 1 lsl (lo + i)) in
  make ~sizes:(pows 6 23) ~blocks:(pows 2 8) ~assocs:(pows 0 10) ()

(* ---- parsing ----------------------------------------------------------- *)

let split ~on s = String.split_on_char on s |> List.map String.trim

let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let scaled, digits =
      match s.[n - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v when v > 0 -> Some (v * scaled)
    | _ -> None

let parse_axis ~what s =
  let entries = split ~on:',' s in
  let parsed = List.map parse_size entries in
  if List.exists (fun v -> v = None) parsed || parsed = [] then
    Error (Printf.sprintf "cannot parse %s axis %S" what s)
  else Ok (List.filter_map Fun.id parsed)

let parse_budgets s =
  let entry e =
    if e = "none" || e = "off" then Ok None
    else
      match int_of_string_opt e with
      | Some v when v > 0 -> Ok (Some v)
      | _ -> Error (Printf.sprintf "cannot parse dict budget %S" e)
  in
  let rec go = function
    | [] -> Ok []
    | e :: rest -> (
        match entry e with
        | Error _ as err -> err
        | Ok v -> Result.map (fun vs -> v :: vs) (go rest))
  in
  go (split ~on:',' s)

let of_string s =
  match String.trim s with
  | "smoke" -> Ok smoke
  | "full" -> Ok full
  | "dense" -> Ok dense
  | spec -> (
      let kvs =
        split ~on:';' spec
        |> List.filter (fun s -> s <> "")
        |> List.map (fun kv ->
               match String.index_opt kv '=' with
               | Some i ->
                   ( String.trim (String.sub kv 0 i),
                     String.sub kv (i + 1) (String.length kv - i - 1) )
               | None -> (kv, ""))
      in
      let rec build sizes blocks assocs budgets = function
        | [] -> (
            match sizes with
            | None -> Error "grid spec needs a sizes= axis"
            | Some sizes -> (
                try
                  Ok
                    (make ?blocks ?assocs ?dict_budgets:budgets ~sizes ())
                with Sim_error.Error e -> Error (Sim_error.to_string e)))
        | ("sizes", v) :: rest -> (
            match parse_axis ~what:"sizes" v with
            | Error _ as e -> e
            | Ok xs -> build (Some xs) blocks assocs budgets rest)
        | ("blocks", v) :: rest -> (
            match parse_axis ~what:"blocks" v with
            | Error _ as e -> e
            | Ok xs -> build sizes (Some xs) assocs budgets rest)
        | ("assocs", v) :: rest -> (
            match parse_axis ~what:"assocs" v with
            | Error _ as e -> e
            | Ok xs -> build sizes blocks (Some xs) budgets rest)
        | ("dicts", v) :: rest -> (
            match parse_budgets v with
            | Error _ as e -> e
            | Ok xs -> build sizes blocks assocs (Some xs) rest)
        | (key, _) :: _ ->
            Error
              (Printf.sprintf
                 "unknown grid key %S (expected smoke, full, or \
                  sizes=/blocks=/assocs=/dicts=)"
                 key)
      in
      build None None None None kvs)

(* ---- labels ------------------------------------------------------------ *)

let label (c : Pf_cache.Icache.config) =
  let size =
    if c.size_bytes mod 1024 = 0 then
      Printf.sprintf "%dK" (c.size_bytes / 1024)
    else Printf.sprintf "%dB" c.size_bytes
  in
  Printf.sprintf "%s/%dB/%dw" size c.block_bytes c.assoc

let describe ~benchmarks t =
  let c = cardinality t in
  let co = cost ~benchmarks t in
  let axis xs = String.concat "," (List.map string_of_int xs) in
  let budgets =
    String.concat ","
      (List.map
         (function None -> "none" | Some b -> string_of_int b)
         t.dict_budgets)
  in
  Printf.sprintf
    "sizes={%s} blocks={%s} assocs={%s} dicts={%s}: %d geometries (%d \
     infeasible corners skipped) x %d ISA variants x %d benchmarks -> %d \
     executions + %d single-pass sweeps over %d stack profiles (replay \
     engine would need %d replays) [engine: %s], %d points"
    (axis t.sizes) (axis t.blocks) (axis t.assocs) budgets c.feasible
    c.skipped c.variants benchmarks co.executions co.sweep_passes
    co.profiles co.replays (engine_label Sweep) co.points_total
