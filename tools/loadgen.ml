(* loadgen — drive a running `powerfits serve` daemon with thousands of
   deterministic requests and report throughput, cache hit rate and
   latency percentiles.

     dune exec tools/loadgen.exe -- --socket /tmp/pf.sock \
       --requests 1000 --conns 4 --json loadgen.json

   Exit codes: 0 all requests answered (ok or overloaded — backpressure
   is the daemon working as designed), 4 if any request errored, 2 usage. *)

let usage =
  "loadgen --socket PATH [--requests N] [--conns N] [--seed N]\n\
  \        [--benchmarks A,B,C] [--corpus generated:N:SEED] [--json PATH]"

(* --corpus generated:N:SEED — N workgen programs, shipped inline *)
let parse_corpus s =
  match String.split_on_char ':' s with
  | [ "generated"; n; seed ] -> (
      match (int_of_string_opt n, int_of_string_opt seed) with
      | Some n, Some seed when n >= 1 ->
          let model = Pf_workgen.Calibrate.reference () in
          List.init n (fun index -> Pf_workgen.Generate.program ~model ~seed ~index)
      | _ ->
          Printf.eprintf "loadgen: bad --corpus %S (want generated:N:SEED)\n" s;
          exit 2)
  | _ ->
      Printf.eprintf "loadgen: bad --corpus %S (want generated:N:SEED)\n" s;
      exit 2

let () =
  let socket = ref "" in
  let requests = ref 1000 in
  let conns = ref 4 in
  let seed = ref 1 in
  let benchmarks = ref None in
  let inline = ref [] in
  let json_out = ref None in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH daemon socket (required)");
      ("--requests", Arg.Set_int requests, "N requests to issue (default 1000)");
      ("--conns", Arg.Set_int conns, "N concurrent client domains (default 4)");
      ("--seed", Arg.Set_int seed, "N corpus-draw seed (default 1)");
      ( "--benchmarks",
        Arg.String
          (fun s ->
            benchmarks :=
              Some (List.filter (fun x -> x <> "") (String.split_on_char ',' s))),
        "A,B,C corpus benchmarks (default crc32,bitcount,stringsearch)" );
      ( "--corpus",
        Arg.String (fun s -> inline := parse_corpus s),
        "generated:N:SEED draw from N seeded workgen programs, shipped \
         inline, instead of only the named benchmarks" );
      ( "--json",
        Arg.String (fun s -> json_out := Some s),
        "PATH write the result record as JSON (atomic)" );
    ]
  in
  Arg.parse spec
    (fun a ->
      Printf.eprintf "loadgen: unexpected argument %S\n%s\n" a usage;
      exit 2)
    usage;
  if !socket = "" then begin
    Printf.eprintf "loadgen: --socket is required\n%s\n" usage;
    exit 2
  end;
  List.iter
    (fun (flag, n) ->
      if n < 1 then begin
        Printf.eprintf "loadgen: %s must be >= 1 (got %d)\n%s\n" flag n usage;
        exit 2
      end)
    [ ("--requests", !requests); ("--conns", !conns) ];
  match
    Pf_serve.Loadgen.run ?benchmarks:!benchmarks ~inline:!inline
      ~socket:!socket ~requests:!requests ~conns:!conns ~seed:!seed ()
  with
  | exception Pf_util.Sim_error.Error e ->
      Printf.eprintf "loadgen: %s\n" (Pf_util.Sim_error.to_string e);
      exit 4
  | r ->
      print_endline (Pf_serve.Loadgen.summary r);
      Option.iter
        (fun path ->
          Pf_util.Atomic_file.write ~path
            (Pf_serve.Json.to_string (Pf_serve.Loadgen.to_json r) ^ "\n");
          Printf.eprintf "loadgen: wrote %s\n" path)
        !json_out;
      if r.Pf_serve.Loadgen.errors > 0 then exit 4
