(* THE paper's central claim: FastSim (memoized) produces exactly the same
   cycle counts and statistics as SlowSim (detailed-only), on every
   program, under every replacement policy. "Fast-forwarding ... produces
   exactly the same, cycle-accurate result as conventional simulation." *)

let check = Alcotest.check

module Spec = Fastsim.Sim.Spec

let run_slow ?(spec = Spec.default) prog =
  Fastsim.Sim.run ~engine:`Slow spec prog

let run_fast ?(spec = Spec.default) prog =
  Fastsim.Sim.run ~engine:`Fast spec prog

let assert_equivalent ?policy prog =
  let spec = Spec.with_max_cycles 20_000_000 Spec.default in
  let fast_spec =
    match policy with None -> spec | Some p -> Spec.with_policy p spec
  in
  let slow = run_slow ~spec prog in
  let fast = run_fast ~spec:fast_spec prog in
  check Alcotest.int "cycles" slow.Fastsim.Sim.cycles fast.Fastsim.Sim.cycles;
  check Alcotest.int "retired" slow.Fastsim.Sim.retired
    fast.Fastsim.Sim.retired;
  check Alcotest.int "emulated" slow.Fastsim.Sim.emulated_insts
    fast.Fastsim.Sim.emulated_insts;
  check Alcotest.int "wrong path" slow.Fastsim.Sim.wrong_path_insts
    fast.Fastsim.Sim.wrong_path_insts;
  check Alcotest.bool "final state" true
    (Emu.Arch_state.equal slow.Fastsim.Sim.final_state
       fast.Fastsim.Sim.final_state);
  (* identical cache behaviour, interaction for interaction *)
  check Alcotest.int "cache loads" slow.Fastsim.Sim.cache.loads
    fast.Fastsim.Sim.cache.loads;
  check Alcotest.int "l1 misses" slow.Fastsim.Sim.cache.l1_misses
    fast.Fastsim.Sim.cache.l1_misses;
  check Alcotest.int "l2 misses" slow.Fastsim.Sim.cache.l2_misses
    fast.Fastsim.Sim.cache.l2_misses;
  check Alcotest.int "conditional branches"
    slow.Fastsim.Sim.branches.conditionals
    fast.Fastsim.Sim.branches.conditionals;
  check Alcotest.int "mispredictions" slow.Fastsim.Sim.branches.mispredicted
    fast.Fastsim.Sim.branches.mispredicted;
  check Alcotest.int "indirects" slow.Fastsim.Sim.branches.indirects
    fast.Fastsim.Sim.branches.indirects;
  (slow, fast)

let test_workload name () =
  let w = Workloads.Suite.find name in
  ignore (assert_equivalent (w.Workloads.Workload.build w.test_scale))

let test_retired_matches_functional () =
  let w = Workloads.Suite.find "gcc" in
  let prog = w.Workloads.Workload.build w.test_scale in
  let _, _, n = Fastsim.Sim.functional prog in
  let slow, _ = assert_equivalent prog in
  (* retired counts the Halt as well *)
  check Alcotest.int "retired = insts + 1" (n + 1) slow.Fastsim.Sim.retired

let test_fast_actually_replays () =
  let w = Workloads.Suite.find "perl" in
  let prog = w.Workloads.Workload.build 50 in
  let fast = run_fast prog in
  match fast.Fastsim.Sim.memo with
  | None -> Alcotest.fail "memo stats expected"
  | Some m ->
    check Alcotest.bool "replay dominates" true
      (Memo.Stats.detailed_fraction m < 0.2);
    check Alcotest.bool "chains formed" true (m.actions_replayed > 100)

let policies =
  [ ("unbounded", Memo.Pcache.Unbounded);
    ("flush-16k", Memo.Pcache.Flush_on_full 16_384);
    ("flush-2k", Memo.Pcache.Flush_on_full 2_048);
    ("copying-16k", Memo.Pcache.Copying_gc 16_384);
    ("generational", Memo.Pcache.Generational_gc { nursery = 4096; total = 16_384 }) ]

let test_policy_equivalence (pname, policy) () =
  (* run two representative kernels under a tight budget *)
  List.iter
    (fun wname ->
      let w = Workloads.Suite.find wname in
      ignore (assert_equivalent ~policy (w.Workloads.Workload.build w.test_scale)))
    [ "go"; "tomcatv" ];
  ignore pname

let random_equivalence_prop =
  QCheck.Test.make ~name:"slow == fast on random programs" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prog =
        Gen.program_of_seed
          ~cfg:{ Gen.default_cfg with outer_iters = 3; inner_iters = 6 }
          seed
      in
      let slow = run_slow prog in
      let fast = run_fast prog in
      slow.Fastsim.Sim.cycles = fast.Fastsim.Sim.cycles
      && slow.Fastsim.Sim.retired = fast.Fastsim.Sim.retired
      && Emu.Arch_state.equal slow.Fastsim.Sim.final_state
           fast.Fastsim.Sim.final_state)

let random_policy_equivalence_prop =
  QCheck.Test.make ~name:"slow == fast under tiny flush budget (random)"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prog =
        Gen.program_of_seed
          ~cfg:{ Gen.default_cfg with outer_iters = 3; inner_iters = 6 }
          seed
      in
      let slow = run_slow prog in
      let fast =
        run_fast
          ~spec:
            (Spec.with_policy (Memo.Pcache.Flush_on_full 1024) Spec.default)
          prog
      in
      slow.Fastsim.Sim.cycles = fast.Fastsim.Sim.cycles
      && slow.Fastsim.Sim.retired = fast.Fastsim.Sim.retired)

let test_predictor_variants () =
  List.iter
    (fun predictor ->
      let w = Workloads.Suite.find "compress" in
      let prog = w.Workloads.Workload.build 1 in
      let spec = Spec.with_predictor predictor Spec.default in
      let slow = run_slow ~spec prog in
      let fast = run_fast ~spec prog in
      check Alcotest.int "cycles" slow.Fastsim.Sim.cycles
        fast.Fastsim.Sim.cycles)
    [ Fastsim.Sim.Standard; Fastsim.Sim.Not_taken; Fastsim.Sim.Taken ]

let test_cache_config_variants () =
  let w = Workloads.Suite.find "vortex" in
  let prog = w.Workloads.Workload.build 1 in
  let spec = Spec.with_cache_config Cachesim.Config.tiny Spec.default in
  let slow = run_slow ~spec prog in
  let fast = run_fast ~spec prog in
  check Alcotest.int "cycles under tiny cache" slow.Fastsim.Sim.cycles
    fast.Fastsim.Sim.cycles

let test_class_histograms_equal () =
  List.iter
    (fun name ->
      let w = Workloads.Suite.find name in
      let prog = w.Workloads.Workload.build w.Workloads.Workload.test_scale in
      let slow = run_slow prog in
      let fast = run_fast prog in
      check
        Alcotest.(array int)
        (name ^ " per-class retirement")
        slow.Fastsim.Sim.retired_by_class fast.Fastsim.Sim.retired_by_class;
      check Alcotest.int
        (name ^ " histogram sums to retired")
        slow.Fastsim.Sim.retired
        (Array.fold_left ( + ) 0 slow.Fastsim.Sim.retired_by_class))
    [ "go"; "perl"; "tomcatv"; "wave5" ]

(* The observability layer must be strictly passive: attaching a full
   context (trace + metrics + profile) must leave EVERY field of the
   result bit-identical, for both engines. *)
let test_obs_determinism () =
  let assert_same_result name (a : Fastsim.Sim.result)
      (b : Fastsim.Sim.result) =
    check Alcotest.int (name ^ " cycles") a.cycles b.cycles;
    check Alcotest.int (name ^ " retired") a.retired b.retired;
    check
      Alcotest.(array int)
      (name ^ " retired_by_class")
      a.retired_by_class b.retired_by_class;
    check Alcotest.int (name ^ " emulated") a.emulated_insts b.emulated_insts;
    check Alcotest.int (name ^ " wrong path") a.wrong_path_insts
      b.wrong_path_insts;
    check Alcotest.bool (name ^ " branch stats") true
      (a.branches = b.branches);
    check Alcotest.bool (name ^ " cache stats") true (a.cache = b.cache);
    check Alcotest.bool (name ^ " memo stats") true (a.memo = b.memo);
    check Alcotest.bool (name ^ " pcache counters") true
      (a.pcache = b.pcache);
    check Alcotest.bool (name ^ " final state") true
      (Emu.Arch_state.equal a.final_state b.final_state)
  in
  List.iter
    (fun wname ->
      let w = Workloads.Suite.find wname in
      let prog = w.Workloads.Workload.build w.test_scale in
      let obs () = Fastsim_obs.Ctx.full () in
      assert_same_result (wname ^ " slow") (run_slow prog)
        (run_slow ~spec:(Spec.with_obs (obs ()) Spec.default) prog);
      assert_same_result (wname ^ " fast") (run_fast prog)
        (run_fast ~spec:(Spec.with_obs (obs ()) Spec.default) prog))
    [ "go"; "compress"; "tomcatv" ]

(* ... and with obs attached to BOTH engines, the cross-engine claim
   still holds on the entire suite. *)
let test_obs_equivalence_all_kernels () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = w.build w.test_scale in
      let slow =
        run_slow ~spec:(Spec.with_obs (Fastsim_obs.Ctx.full ()) Spec.default)
          prog
      in
      let fast =
        run_fast ~spec:(Spec.with_obs (Fastsim_obs.Ctx.full ()) Spec.default)
          prog
      in
      check Alcotest.int (w.name ^ " cycles") slow.Fastsim.Sim.cycles
        fast.Fastsim.Sim.cycles;
      check Alcotest.int (w.name ^ " retired") slow.Fastsim.Sim.retired
        fast.Fastsim.Sim.retired;
      check Alcotest.bool (w.name ^ " final state") true
        (Emu.Arch_state.equal slow.Fastsim.Sim.final_state
           fast.Fastsim.Sim.final_state))
    Workloads.Suite.all

(* A warm cache replays without allocating per action: a FastSim run
   over a cache that needs no detailed simulation spends its whole
   timed part in [Memo.Replay.run] and the live oracle behind it, so
   its minor words divided by the replayed actions bound what one
   action costs. Measured on tomcatv at test scale (34k actions):
   22.4 words per action while the walk consed its divergence prefix
   and the cache simulator, the lQ/sQ pops and the branch outcomes
   allocated; 0.46 after (run setup, amortised). The gate sits
   between the two. *)
let test_warm_replay_allocation () =
  let w = Workloads.Suite.find "tomcatv" in
  let prog = w.Workloads.Workload.build w.Workloads.Workload.test_scale in
  let pc = Memo.Pcache.create () in
  let spec = Spec.with_pcache pc Spec.default in
  let memo r = Option.get r.Fastsim.Sim.memo in
  let rec warm k =
    let m = memo (Fastsim.Sim.run ~engine:`Fast spec prog) in
    if m.Memo.Stats.detailed_entries > 0 then
      if k < 8 then warm (k + 1) else Alcotest.fail "cache never warmed"
  in
  warm 0;
  let before = Gc.minor_words () in
  let r = Fastsim.Sim.run ~engine:`Fast spec prog in
  let words = Gc.minor_words () -. before in
  let m = memo r in
  check Alcotest.int "no detailed simulation" 0 m.Memo.Stats.detailed_entries;
  let per_action = words /. float_of_int m.Memo.Stats.actions_replayed in
  if per_action > 2.0 then
    Alcotest.failf "%.0f minor words over %d replayed actions (%.2f each)"
      words m.Memo.Stats.actions_replayed per_action

let suite =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case ("equivalence " ^ w.name) `Quick
        (test_workload w.short))
    Workloads.Suite.all
  @ [ Alcotest.test_case "retired = functional + 1" `Quick
        test_retired_matches_functional;
      Alcotest.test_case "fast actually replays" `Quick
        test_fast_actually_replays;
      Alcotest.test_case "warm replay allocates under 2 words per action"
        `Quick test_warm_replay_allocation ]
  @ List.map
      (fun p ->
        Alcotest.test_case
          ("policy equivalence: " ^ fst p)
          `Quick (test_policy_equivalence p))
      policies
  @ [ QCheck_alcotest.to_alcotest random_equivalence_prop;
      QCheck_alcotest.to_alcotest random_policy_equivalence_prop;
      Alcotest.test_case "predictor variants" `Quick test_predictor_variants;
      Alcotest.test_case "cache config variants" `Quick
        test_cache_config_variants;
      Alcotest.test_case "per-class histograms equal" `Quick
        test_class_histograms_equal;
      Alcotest.test_case "observability is passive" `Quick
        test_obs_determinism;
      Alcotest.test_case "slow == fast with obs, all kernels" `Quick
        test_obs_equivalence_all_kernels ]

