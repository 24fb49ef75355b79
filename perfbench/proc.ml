(* Forked children. Every timed simulation runs in a child forked from
   the same parent state, so each starts from the same process and heap
   state: repeated runs in one process drift (a FastSim pass over go
   went from 0.83 s to 1.25 s after a few passes), forked ones do not.
   Results come back marshalled over a pipe. *)

type 'a handle = { pid : int; fd : Unix.file_descr }

let spawn (f : unit -> 'a) : 'a handle =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v : ('a, string) result =
      try Ok (f ()) with e -> Error (Printexc.to_string e)
    in
    flush_all ();
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc v [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    { pid; fd = r }

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let await (h : 'a handle) : ('a, string) result =
  let ic = Unix.in_channel_of_descr h.fd in
  let v : ('a, string) result option =
    try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
  in
  close_in ic;
  match (v, waitpid h.pid) with
  | Some v, _ -> v
  | None, Unix.WEXITED n ->
    Error (Printf.sprintf "child %d exited %d without a result" h.pid n)
  | None, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Error (Printf.sprintf "child %d stopped by signal %d" h.pid s)

(* Runs [f] in a child from the current heap state, compacted first: a
   compacted parent hands every child the same heap layout (after a mere
   [Gc.full_major], the children's peak resident set grew by about 3.5 MB
   per round). *)
let isolated f =
  Gc.compact ();
  await (spawn f)

let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

(* [f] over [items] on up to [workers] concurrent children, handing the
   next item to whichever child finishes first; results in input order.
   Callers list the longest items first. *)
let par_map f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n (Error "not run") in
  let rec loop next running =
    if next < n && List.length running < workers then
      loop (next + 1) ((next, spawn (fun () -> f items.(next))) :: running)
    else if running <> [] then begin
      let ready =
        let fds = List.map (fun (_, h) -> h.fd) running in
        match Unix.select fds [] [] (-1.) with
        | fd :: _, _, _ -> Some fd
        | [], _, _ -> None
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
      in
      match ready with
      | None -> loop next running
      | Some fd ->
        let i, h = List.find (fun (_, h) -> h.fd = fd) running in
        results.(i) <- await h;
        loop next (List.filter (fun (j, _) -> j <> i) running)
    end
  in
  loop 0 [];
  Array.fold_right
    (fun r acc ->
      match (r, acc) with
      | Ok v, Ok l -> Ok (v :: l)
      | Error m, _ | _, Error m -> Error m)
    results (Ok [])

(* Peak resident set of a process, from the kernel's VmHWM (kB). *)
let peak_rss_kb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
