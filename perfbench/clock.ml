(* Monotonic integer-nanosecond clock: the unboxed, allocation-free read
   from bechamel's C stub, so a span costs two clock reads and nothing
   else. *)

let ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9
let since t0 = secs (ns () - t0)
