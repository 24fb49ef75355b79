(* The exactness invariant: every simulated result must equal the
   SlowSim reference on the same program and spec, on every field a
   user sees — cycles, retired, retired_by_class, emulated and
   wrong-path instructions, branch and cache statistics, final
   architectural state. Only the memoization introspection ([memo],
   [pcache]) legitimately differs between engines and between cold and
   warm runs, so it is left out. *)

module Sim = Fastsim.Sim

let arch_key (r : Sim.result) =
  Fastsim_obs.Json.to_string
    (Sim.result_to_json { r with Sim.memo = None; pcache = None })

type reference = { key : string; cycles : int; slow_ns : int }

let reference (j : Units.job) prog =
  let t0 = Clock.ns () in
  let r = Sim.run ~engine:`Slow j.Units.spec prog in
  let slow_ns = Clock.ns () - t0 in
  { key = arch_key r; cycles = r.Sim.cycles; slow_ns }

(* References for every job, computed on all cores before any timed
   region starts. *)
let references jobs =
  match Proc.par_map (fun (j, p) -> reference j p) jobs with
  | Ok refs -> refs
  | Error m -> failwith ("reference SlowSim run failed: " ^ m)
