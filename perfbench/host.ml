(* The host-speed correction.

   The benchmark runs on machines shared with other tenants, whose load
   slows every process on the host, by up to 1.7x and for minutes at a
   time. Within a run, taking each batch job's best time removes short
   interference but not a slow phase that covers the whole run: over ten
   20-second runs of regular-replay in such a period, the best-time
   [sim_kips] spread by 0.39 of its median. So every run also times the
   probe (perfbench/probe.ml, a separate executable that shares no code
   with the simulator, so no change to the code under test can change
   its speed) between its measurements, and reports its end-to-end times
   at a reference host speed: divided by [slowdown], the probe's time
   over its reference time (rates multiplied by it).

   The probe statistic matches the workload's: a batch run takes each
   job's best time on one core, so its slowdown is the best single
   probe; the daemon workload averages over a window on both cores, so
   its slowdown is the median of probes run two at a time. Over six runs
   each in a noisy period, this took the spread of regular-replay's
   [sim_kips] from 0.20 to 0.05 and of serve-mix's [rps] from 0.26 to
   0.07. The uncorrected values are printed too. *)

type statistic =
  | Best     (** the fastest single probe. *)
  | Typical  (** the median of probes run two at a time. *)

(* The statistic's value on this host when it is quiet. *)
let reference_s = function Best -> 0.075 | Typical -> 0.110

let width = function Best -> 1 | Typical -> 2

let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe"

(* [k] probes at once; the sample is their mean time. *)
let probe k =
  flush_all ();
  let ics = List.init k (fun _ -> Unix.open_process_args_in exe [| exe |]) in
  let times =
    List.map
      (fun ic ->
        let line = try input_line ic with End_of_file -> "" in
        match (Unix.close_process_in ic, int_of_string_opt line) with
        | Unix.WEXITED 0, Some ns -> Clock.secs ns
        | _ -> failwith "host probe failed")
      ics
  in
  List.fold_left ( +. ) 0. times /. float_of_int k

let samples = ref []

let sample stat n =
  for _ = 1 to n do
    samples := probe (width stat) :: !samples
  done

let slowdown stat =
  let v = Array.of_list !samples in
  let s =
    match stat with
    | Best -> Array.fold_left Float.min infinity v
    | Typical -> Stat.median v
  in
  Report.note "host probe: %.4f s against %.3f s, from %s" s
    (reference_s stat)
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !samples));
  s /. reference_s stat
