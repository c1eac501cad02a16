type benchmark = {
  name : string;
  result_name : string;
  category : string;
  program : scale:int -> Pf_kir.Ast.program;
  power_study : bool;
  unroll : int;
}

let bench ?result_name ?(power_study = true) ?(unroll = 1) name category
    program =
  {
    name;
    result_name = Option.value result_name ~default:name;
    category;
    program;
    power_study;
    unroll;
  }

let of_program ?unroll ~category name program =
  bench ~power_study:false ?unroll name category (fun ~scale:_ -> program)

let all =
  [
    (* automotive *)
    bench ~power_study:false ~unroll:4 Basicmath.name "automotive" (fun ~scale ->
        Basicmath.program ~scale);
    bench ~unroll:2 Bitcount.name "automotive" (fun ~scale -> Bitcount.program ~scale);
    bench ~unroll:2 Qsort_bench.name "automotive" (fun ~scale ->
        Qsort_bench.program ~scale);
    bench ~unroll:6 Susan.name "automotive" (fun ~scale -> Susan.program ~scale);
    (* consumer *)
    bench ~unroll:16 Jpeg.name "consumer" (fun ~scale -> Jpeg.program ~scale);
    bench ~unroll:12 Lame.name "consumer" (fun ~scale -> Lame.program ~scale);
    (* network *)
    bench ~unroll:4 Dijkstra.name "network" (fun ~scale -> Dijkstra.program ~scale);
    bench ~unroll:2 Patricia.name "network" (fun ~scale -> Patricia.program ~scale);
    (* office *)
    bench ~unroll:2 Stringsearch.name "office" (fun ~scale ->
        Stringsearch.program ~scale);
    bench ~unroll:3 Ispell.name "office" (fun ~scale -> Ispell.program ~scale);
    (* security *)
    bench ~unroll:4 Blowfish.name_encode "security" (fun ~scale ->
        Blowfish.program_encode ~scale);
    bench ~unroll:4 Blowfish.name_decode "security" (fun ~scale ->
        Blowfish.program_decode ~scale);
    bench ~unroll:8 Rijndael.name_encode "security" (fun ~scale ->
        Rijndael.program_encode ~scale);
    bench ~unroll:8 Rijndael.name_decode "security" (fun ~scale ->
        Rijndael.program_decode ~scale);
    bench ~unroll:8 Sha1.name "security" (fun ~scale -> Sha1.program ~scale);
    (* telecomm *)
    bench ~unroll:2 Adpcm.name_encode "telecomm" (fun ~scale ->
        Adpcm.program_encode ~scale);
    bench ~unroll:2 Adpcm.name_decode "telecomm" (fun ~scale ->
        Adpcm.program_decode ~scale);
    bench ~unroll:1 Crc32.name "telecomm" (fun ~scale -> Crc32.program ~scale);
    bench ~unroll:4 Fft.name "telecomm" (fun ~scale -> Fft.program ~scale);
    bench ~power_study:false ~unroll:12 Gsm.name_encode "telecomm" (fun ~scale ->
        Gsm.program_encode ~scale);
    (* the paper's power figures report gsm.decode as plain "gsm" *)
    bench ~result_name:"gsm" ~unroll:12 Gsm.name_decode "telecomm"
      (fun ~scale -> Gsm.program_decode ~scale);
  ]

(* The registry is a namespace: benchmark names and result-name aliases
   must resolve unambiguously, or sweeps and the CLI would silently pick
   whichever entry happened to be listed first.  Checked once at module
   init so a bad edit to [all] fails every entry point immediately. *)
let () =
  let seen : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let claim kind n =
    (match Hashtbl.find_opt seen n with
    | Some prior ->
        Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
          ~where:"mibench.registry"
          "duplicate benchmark name %S (registered as %s, again as %s)" n
          prior kind
    | None -> ());
    Hashtbl.add seen n kind
  in
  List.iter
    (fun b ->
      claim "a benchmark name" b.name;
      if b.result_name <> b.name then
        claim "a result-name alias" b.result_name)
    all

let power_suite =
  List.filter_map
    (fun b ->
      if b.power_study then Some { b with name = b.result_name } else None)
    all

let names = List.map (fun b -> b.name) all

let find_opt name =
  List.find_opt (fun b -> b.name = name || b.result_name = name) all

let find_exn name =
  match find_opt name with
  | Some b -> b
  | None ->
      Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
        ~where:"mibench.registry" "unknown benchmark %S; valid names: %s"
        name (String.concat ", " names)

let find name =
  match find_opt name with Some b -> b | None -> raise Not_found
