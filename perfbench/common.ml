(* Clock, order statistics and run-directory helpers shared by the
   benchmark's workloads and probes. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Linear interpolation between order statistics (the "type 7" rule of
   numpy and R), so a percentile moves smoothly with its samples. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. p /. 100. in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
  |> Option.get |> float_of_int |> fun kb -> kb /. 1024.

(* Everything a run writes (serve socket and stores, trace files) lives
   under this directory, relative to the checkout root the benchmark is
   started from. *)
let run_dir = ".perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* A fresh path under [run_dir], unique to this process. *)
let scratch_path name =
  mkdir_p run_dir;
  let path =
    Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf path;
  path

let benchmark name = Pf_mibench.Registry.find_exn name

(* A generated program wrapped as a registry entry, the way the
   population campaign presents its rows to the layers that take one. *)
let generated_benchmark ~name program =
  {
    Pf_mibench.Registry.name;
    result_name = name;
    category = "generated";
    program = (fun ~scale:_ -> program);
    power_study = false;
    unroll = 1;
  }

(* Independent kernels, one per core, under the seeded random scheduler;
   FITS cores each synthesize their own instruction set when built. *)
let benchmark_machine ~fits ~seed (cores : (string * Pf_arm.Image.t) array) =
  let core (name, image) =
    ( name,
      if fits then Pf_mc.Machine.fits_core image else Pf_mc.Machine.arm_core image
    )
  in
  let sched =
    Pf_mc.Sched.create ~policy:Pf_mc.Sched.Seeded_random
      ~ncores:(Array.length cores) seed
  in
  Pf_mc.Machine.create ~sched (Array.map core cores)
