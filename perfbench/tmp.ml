(* Scratch files (daemon socket, spilled and persisted caches) live
   under the working directory, which is the checkout the benchmark
   runs in, and are removed before the run ends. *)

let root = ".perfbench_tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir d =
  try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A new empty directory, unique across forked children. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    mkdir root;
    incr n;
    let d = Printf.sprintf "%s/%d-%d" root (Unix.getpid ()) !n in
    rm_rf d;
    mkdir d;
    d

let cleanup () = rm_rf root
