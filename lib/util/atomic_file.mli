(** Atomic file publication (temp file + fsync + rename + directory
    fsync) with injectable crash points.

    Every file this repository publishes for later consumption — the
    artifact-store records, the explore [--csv] emission, the loadgen
    [--json] record, perfbench's span traces —
    goes through {!write}, so a crash at any instant leaves either the
    complete old content or the complete new content at [path], never a
    torn mixture.  The only residue a crash can leave is a stale
    [<path>.tmp.<pid>.<n>] sibling, recognizable with {!is_temp}. *)

(** Where a simulated crash strikes, in write order. *)
type crash_point =
  | Mid_write      (** half the bytes written to the temp file, no fsync *)
  | After_write    (** all bytes written, not yet fsynced or renamed *)
  | Before_rename  (** temp file durable, destination untouched *)
  | After_rename   (** renamed into place, directory entry not fsynced *)

val crash_point_name : crash_point -> string
val crash_point_of_string : string -> crash_point option
val all_crash_points : crash_point list

exception Crash of crash_point
(** Raised by {!write} when the [crash] hook fires, after leaving the
    filesystem exactly as a process death at that point would. *)

val write :
  ?fsync:bool ->
  ?crash:(crash_point -> bool) ->
  path:string ->
  string ->
  unit
(** [write ~path data] atomically replaces [path] with [data].  [fsync]
    (default true) makes the content and the rename durable; pass [false]
    for throwaway output where a machine crash may lose the file but can
    still never tear it.  [crash] is the fault-injection hook: it is
    asked at each {!crash_point} and a [true] answer aborts the write
    there, raising {!Crash}.  On a real I/O error the temp file is
    removed and the exception propagates. *)

val is_temp : string -> bool
(** Whether a file name looks like a {!write} temp file — what a recovery
    scan should sweep. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory's entry table (errors ignored:
    some filesystems reject directory fsync). *)
