(* Metric lines for people, then the one-line JSON result the benchmark
   contract asks for as the last line of standard output. *)

module J = Fastsim_obs.Json

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  in_result : bool;  (** false: printed for people, kept out of the JSON. *)
  measured : float option;
      (** the value before the host-speed correction, when corrected. *)
}

let metrics : metric list ref = ref []

let add ?(samples = 1) ?(in_result = true) ?measured name unit_ value =
  metrics := { name; value; unit_; samples; in_result; measured } :: !metrics

(* A time ([`Time]) or a rate ([`Rate]) at the reference host speed:
   divided or multiplied by the run's [slowdown] (see Host). *)
let corrected ?samples ~slowdown kind name unit_ measured =
  let value =
    match kind with
    | `Time -> measured /. slowdown
    | `Rate -> measured *. slowdown
  in
  add ?samples ~measured name unit_ value

let count name v = add name "count" (float_of_int v)

let note fmt = Printf.printf (fmt ^^ "\n%!")

let print_metrics () =
  List.iter
    (fun m ->
      Printf.printf "metric %-28s %14.6g %-10s n=%d%s\n" m.name m.value m.unit_
        m.samples
        (match m.measured with
         | Some v -> Printf.sprintf " (measured %.6g)" v
         | None -> ""))
    (List.rev !metrics)

let result_line ~attempted ~failed =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (failed = 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.rev
                (List.filter_map
                   (fun m ->
                     if m.in_result then
                       Some
                         ( m.name,
                           J.Obj
                             [ ("value", J.Float m.value);
                               ("unit", J.Str m.unit_) ] )
                     else None)
                   !metrics)) ) ])
