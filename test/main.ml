(* Test runner: one alcotest per subsystem plus the cross-engine
   equivalence suite that checks the paper's central claim. *)

let () =
  Alcotest.run "fastsim"
    [ ("isa", Test_isa.suite);
      ("parse", Test_parse.suite);
      ("memory", Test_memory.suite);
      ("seq-queue", Test_seq_queue.suite);
      ("emulator", Test_emulator.suite);
      ("emu-ref", Test_emu_reference.suite);
      ("semantics", Test_semantics.suite);
      ("speculation", Test_speculation.suite);
      ("bpred", Test_bpred.suite);
      ("cache", Test_cache.suite);
      ("uarch", Test_uarch.suite);
      ("obs", Test_obs.suite);
      ("memo", Test_memo.suite);
      ("ctable", Test_ctable.suite);
      ("stride", Test_stride.suite);
      ("rules", Test_rules.suite);
      ("persist", Test_persist.suite);
      ("baseline", Test_baseline.suite);
      ("faults", Test_faults.suite);
      ("workloads", Test_workloads.suite);
      ("equivalence", Test_equivalence.suite);
      ("exec", Test_exec.suite);
      ("serve", Test_serve.suite);
      ("check", Test_check.suite);
      ("strategy", Test_strategy.suite);
      ("golden", Test_golden.suite) ]
