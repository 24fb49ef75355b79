(* The benchmark's own self-test, at test scale:
   - driver (a) reproduces [Sim.run ~engine:`Slow] exactly (cycles,
     retired, cache and branch statistics, final state);
   - driver (b) halts in replay with the reference cycle count;
   - the traced run's check fails when either driver is fed a fault: a
     perturbed load latency for (a), a cold cache for (b). *)

let batch_jobs () =
  List.concat_map
    (fun (w : Units.t) ->
      if w.Units.kind = Units.Batch then Units.at_test_scale w else [])
    (List.map (fun f -> f 0) Units.all)

let run () =
  let jobs = batch_jobs () in
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  (match Proc.par_map (fun j -> Layers.trace_job j) jobs with
   | Error m -> expect ("traced drivers ran: " ^ m) false
   | Ok outs ->
     List.iter2
       (fun j (o : Layers.job_out) ->
         let l = Units.label j in
         expect
           (Printf.sprintf "driver (a) equals SlowSim on %s" l)
           o.Layers.a.Layers.a_ok;
         expect
           (Printf.sprintf
              "driver (b) halts in replay at the SlowSim cycle count on %s" l)
           o.Layers.b.Layers.b_ok)
       jobs outs);
  let j = List.hd jobs in
  print_endline "the next two FAIL lines are the injected faults being caught:";
  let faulted =
    [ ("a perturbed load latency", Layers.trace_job ~fault_a:true j);
      ("a cold cache for driver (b)", Layers.trace_job ~cold_b:true j) ]
  in
  List.iter
    (fun (what, o) ->
      expect
        (Printf.sprintf "the traced run's check fails on %s (%s)" what
           (Units.label j))
        (Layers.failures [ j ] [ o ] > 0))
    faulted;
  Printf.printf "selftest %s\n" (if !ok then "passed" else "FAILED");
  !ok
