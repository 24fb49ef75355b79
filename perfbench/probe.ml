(* Host-speed probe: a fixed mix of hashing, sorting and list work that
   shares no code with the simulator. It runs the work once to warm its
   heap, then prints the host time of a second run in nanoseconds. The
   benchmark runs it between its measurements to see how fast the
   (shared) host is running at the moment; see Host. *)

let work () =
  let h = Hashtbl.create 65_536 in
  for i = 0 to 100_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) i
  done;
  let a =
    Array.init 150_000 (fun i -> ((i * 1103515245) + 12345) land 0xFFFFFF)
  in
  Array.sort compare a;
  let l = List.init 100_000 Fun.id in
  Hashtbl.length h + a.(1000) + List.fold_left ( + ) 0 (List.rev l)

let () =
  ignore (Sys.opaque_identity (work ()));
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (work ()));
  let t1 = Monotonic_clock.now () in
  print_endline (Int64.to_string (Int64.sub t1 t0))
