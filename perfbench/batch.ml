(* End-to-end measurement of a batch workload: an architect's FastSim
   runs, one after another, each in a child forked from the same parent
   state, for whole rounds over the workload's jobs until the run's
   measuring time is spent. *)

module Sim = Fastsim.Sim

type sim = {
  ns : int;       (** host time of [Sim.run]. *)
  ok : bool;      (** result equals the SlowSim reference. *)
  retired : int;
  rss_kb : int;   (** the child's peak resident set. *)
}

(* Set-up is building the workload's programs, measured in a fresh
   child. Repetitions before every round spread the samples over
   the measuring window, so the median does not rest on one moment of
   host interference. *)
let setup_reps_per_round = 10

let probes_per_round = 2

let setup_once jobs =
  match
    Proc.isolated (fun () ->
        let t0 = Clock.ns () in
        let progs = List.map Units.build jobs in
        ignore (Sys.opaque_identity progs);
        Clock.ns () - t0)
  with
  | Ok ns -> Clock.secs ns
  | Error m -> failwith ("set-up failed: " ^ m)

let run_one (j : Units.job) prog (ref_ : Check.reference) =
  Proc.isolated (fun () ->
      let t0 = Clock.ns () in
      let r = Sim.run ~engine:`Fast j.Units.spec prog in
      let ns = Clock.ns () - t0 in
      { ns; ok = Check.arch_key r = ref_.Check.key; retired = r.Sim.retired;
        rss_kb = Proc.peak_rss_kb None })

(* Whole rounds over the jobs until [seconds] have passed, with a few
   set-up samples and host probes before each round. *)
let rounds work jobs ~seconds =
  let setups = ref [] in
  let t_start = Clock.ns () in
  let rec go acc =
    for _ = 1 to setup_reps_per_round do
      setups := setup_once jobs :: !setups
    done;
    Host.sample Host.Best probes_per_round;
    let acc = List.map (fun ((j, p), r) -> (j, run_one j p r)) work :: acc in
    if Clock.since t_start >= seconds then List.concat (List.rev acc)
    else go acc
  in
  let sims = go [] in
  (sims, !setups)

let failures sims =
  List.fold_left
    (fun n (j, r) ->
      match r with
      | Ok s when s.ok -> n
      | Ok _ ->
        Report.note "FAIL %s: result differs from SlowSim" (Units.label j);
        n + 1
      | Error m ->
        Report.note "FAIL %s: %s" (Units.label j) m;
        n + 1)
    0 sims

(* Each job's host time is its best (lowest) over the rounds. On a
   shared host, interference from other tenants only ever adds time, and
   it comes in phases of seconds that cover half of a run or more: over
   six 20-second runs of regular-replay the per-job median moved with
   those phases (quartile spread 0.26 of the median), the best time much
   less (0.11). *)
let best_time sims j =
  let mine =
    List.filter_map
      (fun (j', r) -> if j' == j then Result.to_option r else None)
      sims
  in
  Report.note "samples %s: %s s" (Units.label j)
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%.3f" (Clock.secs s.ns)) mine));
  let best = List.fold_left (fun a s -> min a s.ns) max_int mine in
  let retired = match mine with s :: _ -> s.retired | [] -> 0 in
  (Clock.secs best, retired, List.length mine)

let run (w : Units.t) ~seconds =
  let jobs = List.map (fun j -> (j, Units.build j)) w.Units.jobs in
  let refs = Check.references jobs in
  let work = List.combine jobs refs in
  let sims, setups = rounds work w.Units.jobs ~seconds in
  let failed = failures sims in
  let good = List.filter_map (fun (_, r) -> Result.to_option r) sims in
  let n = List.length good in
  let best = List.map (fun (j, _) -> best_time sims j) jobs in
  let round_s = List.fold_left (fun a (t, _, _) -> a +. t) 0. best in
  let round_kinst =
    float_of_int (List.fold_left (fun a (_, r, _) -> a + r) 0 best) /. 1e3
  in
  let lat = Array.of_list (List.map (fun (t, _, _) -> t *. 1e3) best) in
  let slowdown = Host.slowdown Host.Best in
  let corrected = Report.corrected ~slowdown in
  corrected ~samples:n `Rate "sim_kips" "kinst/s" (round_kinst /. round_s);
  corrected ~samples:n `Rate "rps" "1/s"
    (float_of_int (List.length best) /. round_s);
  corrected ~samples:n `Time "latency_p50_ms" "ms" (Stat.percentile lat 0.5);
  corrected ~samples:n `Time "latency_p99_ms" "ms" (Stat.percentile lat 0.99);
  corrected ~samples:(List.length setups) `Time "setup_s" "s"
    (Stat.median (Array.of_list setups));
  (* The first round only: the children's peak grows with the number of
     rounds run before them (about 3.5 MB a round on memo-pressure), and
     that number depends on the host's speed. *)
  let first_round = List.filteri (fun i _ -> i < List.length jobs) sims in
  let rss =
    List.fold_left
      (fun a (_, r) -> match r with Ok s -> max a s.rss_kb | Error _ -> a)
      0 first_round
  in
  Report.add ~samples:(List.length first_round) "peak_rss_mb" "MB"
    (float_of_int rss /. 1024.);
  Report.add ~samples:(List.length sims) ~in_result:false "fail_ratio" "ratio"
    (Stat.ratio failed (List.length sims));
  (* Table 2's Slow/Fast ratio from the same runs: the reference SlowSim
     time over the best FastSim time. Nothing gates on it; the references
     ran two at a time, so it is approximate. *)
  List.iter2
    (fun ((j, _), (r : Check.reference)) (t, _, k) ->
      let slow = Clock.secs r.Check.slow_ns in
      Report.note
        "derived %s: slow/fast %.2fx (slow %.2fs, fast best %.3fs of %d)"
        (Units.label j) (slow /. t) slow t k)
    work best;
  (List.length sims, failed)
