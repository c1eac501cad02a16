(* Spans of the traced run.  The walk wraps each call into a layer in
   [span "<layer>.<call>"]; spans nest on one domain, so a span's parent
   is the innermost span open when it starts.  Every span carries the id
   of the operation (program or request) it belongs to.  Spans stay in
   memory and are written as JSON lines when the run ends. *)

type t = {
  id : int;
  name : string;
  op : string;
  parent : int;  (* -1 for a root span *)
  start : float;
  mutable stop : float;
}

let recorded : t list ref = ref []
let stack : t list ref = ref []
let current_op = ref ""
let next_id = ref 0

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let span name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    {
      id = !next_id;
      name;
      op = !current_op;
      parent;
      start = Common.now ();
      stop = nan;
    }
  in
  incr next_id;
  recorded := s :: !recorded;
  stack := s :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Common.now ();
      stack := List.tl !stack)
    f

(* The root span of one operation.  Its self time is the runner's own
   glue, not any layer's. *)
let op id f =
  current_op := id;
  span "bench.op" f

(* Self time per span name: each span's duration minus the time its
   child spans cover. *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (s.stop -. s.start
        +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let inner = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      Hashtbl.replace by_name s.name
        (s.stop -. s.start -. inner
        +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    !recorded;
  Hashtbl.fold (fun n t acc -> (n, t) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Share of [wall] seconds that the layers' self times explain; the
   runner's own glue (layer [bench]) explains nothing. *)
let coverage ~wall =
  List.fold_left
    (fun acc (n, t) -> if layer n = "bench" then acc else acc +. t)
    0. (self_times ())
  /. wall

let write_jsonl path =
  let module J = Pf_serve.Json in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity !recorded
  in
  let us t = J.Float ((t -. origin) *. 1e6) in
  let lines =
    List.rev_map
      (fun s ->
        J.to_string
          (J.Obj
             [
               ("id", J.Int s.id);
               ("name", J.String s.name);
               ("layer", J.String (layer s.name));
               ("op", J.String s.op);
               ("parent", J.Int s.parent);
               ("start_us", us s.start);
               ("end_us", us s.stop);
             ]))
      !recorded
  in
  Pf_util.Atomic_file.write ~fsync:false ~path (String.concat "\n" lines ^ "\n")
