type phase = Detailed | Record | Replay | Cachesim | Emulation | Other

let all_phases = [ Detailed; Record; Replay; Cachesim; Emulation; Other ]
let n_phases = 6

let index = function
  | Detailed -> 0
  | Record -> 1
  | Replay -> 2
  | Cachesim -> 3
  | Emulation -> 4
  | Other -> 5

let phase_name = function
  | Detailed -> "detailed"
  | Record -> "record"
  | Replay -> "replay"
  | Cachesim -> "cachesim"
  | Emulation -> "emulation"
  | Other -> "other"

type t = {
  acc : float array;
  mutable stack : phase list;
  mutable last : float;  (* timestamp of the last phase transition *)
  mutable stopped : bool;
}

let now () = Unix.gettimeofday ()

let create () =
  { acc = Array.make n_phases 0.; stack = []; last = now (); stopped = false }

let current t = match t.stack with ph :: _ -> ph | [] -> Other

(* Charge elapsed time since the last transition to the active phase. *)
let charge t =
  if not t.stopped then begin
    let n = now () in
    let i = index (current t) in
    t.acc.(i) <- t.acc.(i) +. (n -. t.last);
    t.last <- n
  end

let enter t ph =
  charge t;
  t.stack <- ph :: t.stack

let leave t =
  charge t;
  match t.stack with [] -> () | _ :: rest -> t.stack <- rest

let with_phase t ph f =
  enter t ph;
  Fun.protect ~finally:(fun () -> leave t) f

let stop t =
  charge t;
  t.stopped <- true

let seconds t ph =
  stop t;
  t.acc.(index ph)

let total t =
  stop t;
  Array.fold_left ( +. ) 0. t.acc

let to_json t =
  stop t;
  Json.Obj
    (List.map (fun ph -> (phase_name ph, Json.Float t.acc.(index ph)))
       all_phases
    @ [ ("total", Json.Float (total t)) ])

let pp ppf t =
  stop t;
  let tot = total t in
  Format.fprintf ppf "%-10s %9s %6s@." "phase" "seconds" "%";
  List.iter
    (fun ph ->
      let s = t.acc.(index ph) in
      Format.fprintf ppf "%-10s %9.3f %5.1f%%@." (phase_name ph) s
        (if tot > 0. then 100. *. s /. tot else 0.))
    all_phases;
  Format.fprintf ppf "%-10s %9.3f@." "total" tot
