(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (the same convention as
   numpy's default and the daemon's loadtest report). *)
let percentile samples p =
  match Array.length samples with
  | 0 -> nan
  | n ->
    let s = Array.copy samples in
    Array.sort compare s;
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (s.(lo) *. (1. -. frac)) +. (s.(hi) *. frac)

let median samples = percentile samples 0.5

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
