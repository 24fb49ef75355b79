(* Reproduction harness for every table and figure in the paper's
   evaluation (§5), plus the §4.3 replacement-policy study and bechamel
   micro-benchmarks of the simulator's kernels.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- --quick    # small scales (CI-sized)
     dune exec bench/main.exe -- --table 2 --only go,gcc
     dune exec bench/main.exe -- --figure 7
     dune exec bench/main.exe -- --ablation gc

   Absolute times are host-dependent; the paper's claims reproduced here
   are the RATIOS (memoization speedup, FastSim vs SimpleScalar) and the
   memoization statistics; see EXPERIMENTS.md. *)

let quick = ref false
let repeat = ref 1
let only : string list ref = ref []
let sections : string list ref = ref []
let json_out = ref "BENCH_fastsim.json"
let require_speedup = ref 0.
let min_measure = ref 0.25

(* filled by the hotpath section; lands in the JSON artifact *)
let hotpath_stats : (string * float) list ref = ref []

(* filled by the loadtest section; lands in the JSON artifact *)
let loadtest_reports : (string * Fastsim_obs.Json.t) list ref = ref []

(* filled by the strategy section; lands in the JSON artifact *)
let strategy_report : Fastsim_obs.Json.t option ref = ref None

let add_section s () = sections := s :: !sections

let speclist =
  [ ("--quick", Arg.Set quick, " use small (test) workload scales");
    ("--repeat", Arg.Set_int repeat, "N time each engine N times, keep the best");
    ( "--min-time",
      Arg.Set_float min_measure,
      "S keep re-timing until S seconds have been measured cumulatively \
       (default 0.25; stabilizes millisecond-long quick-scale runs)" );
    ( "--only",
      Arg.String (fun s -> only := String.split_on_char ',' s),
      "W,W,... restrict to the named workloads" );
    ( "--table",
      Arg.Int (fun n -> add_section (Printf.sprintf "table%d" n) ()),
      "N reproduce Table N (1-5)" );
    ( "--figure",
      Arg.Int (fun n -> add_section (Printf.sprintf "figure%d" n) ()),
      "N reproduce Figure N (7)" );
    ( "--ablation",
      Arg.String (fun s -> add_section ("ablation-" ^ s) ()),
      "gc|bpred|cache|approx|width|inputs run an ablation study" );
    ("--micro", Arg.Unit (add_section "micro"), " bechamel micro-benchmarks");
    ( "--hotpath",
      Arg.Unit (add_section "hotpath"),
      " hot-path throughput: encode+lookup ops/s, replay groups/s" );
    ( "--loadtest",
      Arg.Unit (add_section "loadtest"),
      " daemon under concurrent load: fleet vs fork, cold vs warm \
       (req/s, p50/p99)" );
    ( "--strategy",
      Arg.Unit (add_section "strategy"),
      " strategy engines: interval-parallel wall-clock vs serial, \
       sampled estimation error (always full scale)" );
    ( "--require-speedup",
      Arg.Set_float require_speedup,
      "X exit 1 if any workload's fast-vs-slow speedup is below X (CI \
       gate)" );
    ( "--json",
      Arg.Set_string json_out,
      "FILE machine-readable results file (default BENCH_fastsim.json; \
       empty string disables)" ) ]

let usage =
  "main.exe [--quick] [--table N] [--figure 7] [--ablation X] [--micro]"

let wanted section =
  match !sections with [] -> true | l -> List.mem section l

let workloads () =
  let all = Workloads.Suite.all in
  match !only with
  | [] -> all
  | names ->
    List.filter
      (fun (w : Workloads.Workload.t) ->
        List.mem w.name names || List.mem w.short names)
      all

let scale_of (w : Workloads.Workload.t) =
  if !quick then w.test_scale else w.default_scale

(* Best-of-N timing with a floor on the cumulative measured time:
   quick-scale kernels finish in milliseconds, where a fixed iteration
   count is noise-dominated. Iterating until the floor is reached makes
   the minimum converge; long runs hit the floor in one iteration, so
   full-scale timing is unchanged. *)
let max_timing_iters = 100

let timed_loop run =
  let best = ref infinity in
  let result = ref None in
  let total = ref 0. in
  let iters = ref 0 in
  while
    !iters < max 1 !repeat
    || (!total < !min_measure && !iters < max_timing_iters)
  do
    let r, dt = run () in
    total := !total +. dt;
    incr iters;
    if dt < !best then best := dt;
    result := Some r
  done;
  match !result with Some r -> (r, !best) | None -> assert false

let time_best f =
  timed_loop (fun () ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0))

(* ---------------------------------------------------------------- *)
(* One full measurement per workload, shared by Tables 2, 3, 4, 5.
   The engine runs go through the sweep executor's runner, so the bench
   measures exactly what `fastsim sweep` measures (simulation proper,
   program construction excluded). *)

module Spec = Fastsim.Sim.Spec

let job ?(spec = Spec.default) engine (w : Workloads.Workload.t) =
  { Fastsim_exec.Job.id = 0;
    workload = w.name;
    scale = scale_of w;
    engine;
    spec;
    cache_name = "default";
    params_name = "default";
    warm = None;
    fault = None }

let time_best_sim j = timed_loop (fun () -> Fastsim_exec.Runner.run_sim j)

type row = {
  w : Workloads.Workload.t;
  insts : int;
  t_prog : float;
  t_slow : float;
  slow : Fastsim.Sim.result;
  t_fast : float;
  fast : Fastsim.Sim.result;
  t_base : float;
  base : Fastsim.Sim.result;
}

let measure_row (w : Workloads.Workload.t) =
  let prog = w.build (scale_of w) in
  let (_, _, insts), t_prog =
    time_best (fun () -> Fastsim.Sim.functional prog)
  in
  let slow, t_slow = time_best_sim (job `Slow w) in
  let fast, t_fast = time_best_sim (job `Fast w) in
  let base, t_base = time_best_sim (job `Baseline w) in
  assert (slow.Fastsim.Sim.cycles = fast.Fastsim.Sim.cycles);
  assert (slow.Fastsim.Sim.retired = fast.Fastsim.Sim.retired);
  { w; insts; t_prog; t_slow; slow; t_fast; fast; t_base; base }

let rows : row list Lazy.t =
  lazy
    (List.map
       (fun w ->
         Printf.eprintf "  measuring %s...\n%!" w.Workloads.Workload.name;
         measure_row w)
       (workloads ()))

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ---------------------------------------------------------------- *)

let table1 () =
  header "Table 1: processor model parameters (configuration)";
  let p = Uarch.Params.default in
  Printf.printf "Decode %d instructions per cycle.\n" p.decode_width;
  Printf.printf
    "%d integer ALUs, %d FPUs, and %d load/store address adder(s).\n"
    p.int_units p.fp_units p.mem_units;
  Printf.printf "%d physical integer registers, %d physical FP registers.\n"
    p.phys_int_regs p.phys_fp_regs;
  Printf.printf "2-bit/512-entry branch history table for prediction.\n";
  Printf.printf
    "Speculation through up to %d conditional branches; %d-entry active \
     list.\n"
    p.max_spec_branches p.active_list;
  Printf.printf "Integer/FP/address queues: %d/%d/%d entries.\n" p.int_queue
    p.fp_queue p.addr_queue;
  let c = Cachesim.Config.default in
  Printf.printf "Non-blocking L1 and L2 data caches, %d MSHRs each.\n"
    c.l1_mshrs;
  Printf.printf "%d KByte %d-way set associative write-through L1.\n"
    (c.l1_size / 1024) c.l1_ways;
  Printf.printf "%d MByte %d-way set associative write-back L2.\n"
    (c.l2_size / 1024 / 1024) c.l2_ways;
  Printf.printf "%d byte wide, split transaction bus.\n" c.bus_width

let table2 () =
  header
    "Table 2: SlowSim/FastSim slowdowns vs functional execution, and the \
     memoization speedup (paper: 4.9x-11.9x)";
  Printf.printf "%-14s %9s %9s %9s %10s\n" "Benchmark" "Prog (s)" "SlowSim/"
    "FastSim/" "Slow/Fast";
  List.iter
    (fun r ->
      Printf.printf "%-14s %9.2f %9.1f %9.1f %10.2f\n"
        r.w.Workloads.Workload.name r.t_prog
        (r.t_slow /. r.t_prog)
        (r.t_fast /. r.t_prog)
        (r.t_slow /. r.t_fast))
    (Lazy.force rows)

let table3 () =
  header
    "Table 3: simulated cycles/instructions and simulation rates (paper: \
     FastSim 8.5x-14.7x SimpleScalar)";
  Printf.printf "%-14s %11s %11s %9s %9s %9s %9s\n" "Benchmark" "cycles"
    "insts" "SS Ki/s" "Slow Ki/s" "Fast Ki/s" "Fast/SS";
  List.iter
    (fun r ->
      let kips t = float_of_int r.slow.Fastsim.Sim.retired /. t /. 1000. in
      let base_kips =
        float_of_int r.base.Fastsim.Sim.retired /. r.t_base /. 1000.
      in
      Printf.printf "%-14s %11.3e %11.3e %9.1f %9.1f %9.1f %9.2f\n"
        r.w.Workloads.Workload.name
        (float_of_int r.slow.Fastsim.Sim.cycles)
        (float_of_int r.slow.Fastsim.Sim.retired)
        base_kips (kips r.t_slow) (kips r.t_fast)
        (kips r.t_fast /. base_kips))
    (Lazy.force rows)

let table4 () =
  header
    "Table 4: instructions simulated in detail vs replayed (paper: \
     detailed fraction 0.001%-0.311%)";
  Printf.printf "%-14s %12s %12s %14s\n" "Benchmark" "Detailed" "Replay"
    "Detailed/Total";
  List.iter
    (fun r ->
      match r.fast.Fastsim.Sim.memo with
      | None -> ()
      | Some m ->
        Printf.printf "%-14s %12.2e %12.2e %13.3f%%\n"
          r.w.Workloads.Workload.name
          (float_of_int m.Memo.Stats.detailed_retired)
          (float_of_int m.Memo.Stats.replayed_retired)
          (100. *. Memo.Stats.detailed_fraction m))
    (Lazy.force rows)

let table5 () =
  header
    "Table 5: memoization measurements (paper: 3.4-4.9 actions/config; \
     long replay chains)";
  Printf.printf "%-14s %9s %9s %9s %8s %8s %10s %12s\n" "Benchmark"
    "Cache(KB)" "Configs" "Actions" "Act/Cfg" "Cyc/Cfg" "AvgChain"
    "MaxChain";
  List.iter
    (fun r ->
      match (r.fast.Fastsim.Sim.memo, r.fast.Fastsim.Sim.pcache) with
      | Some m, Some p ->
        let groups = max 1 m.Memo.Stats.groups_replayed in
        Printf.printf "%-14s %9.1f %9d %9d %8.1f %8.1f %10.0f %12d\n"
          r.w.Workloads.Workload.name
          (float_of_int p.Memo.Pcache.peak_modeled_bytes /. 1024.)
          p.Memo.Pcache.static_configs p.Memo.Pcache.static_actions
          (float_of_int m.Memo.Stats.actions_replayed /. float_of_int groups)
          (float_of_int m.Memo.Stats.replayed_cycles /. float_of_int groups)
          (Memo.Stats.avg_chain m) m.Memo.Stats.chain_max
      | _ -> ())
    (Lazy.force rows)

(* ---------------------------------------------------------------- *)

let figure7 () =
  header
    "Figure 7: memoization speedup vs p-action cache budget, flush-on-full \
     policy (paper: most benchmarks tolerate a 10x reduction)";
  let budgets = [ 1024; 2048; 4096; 8192; 16384; 32768; 65536 ] in
  Printf.printf "%-14s" "Benchmark";
  List.iter
    (fun b -> Printf.printf "%8s" (Printf.sprintf "%dK" (b / 1024)))
    budgets;
  Printf.printf "%8s\n" "unltd";
  List.iter
    (fun r ->
      Printf.printf "%-14s%!" r.w.Workloads.Workload.name;
      List.iter
        (fun budget ->
          let spec =
            Spec.with_policy (Memo.Pcache.Flush_on_full budget) Spec.default
          in
          let _, t = time_best_sim (job ~spec `Fast r.w) in
          Printf.printf "%8.2f%!" (r.t_slow /. t))
        budgets;
      Printf.printf "%8.2f\n" (r.t_slow /. r.t_fast))
    (Lazy.force rows)

let ablation_gc () =
  header
    "Ablation (paper 4.3/5): replacement policies at tight budgets (paper: \
     copying/generational GC no better than flush-on-full)";
  Printf.printf "%-14s %-22s %9s %7s %7s %9s\n" "Benchmark" "Policy"
    "time (s)" "colls" "flushes" "speedup";
  List.iter
    (fun r ->
      let budget =
        max 2048
          ((match r.fast.Fastsim.Sim.pcache with
           | Some p -> p.Memo.Pcache.peak_modeled_bytes
           | None -> 65536)
          / 4)
      in
      List.iter
        (fun (name, policy) ->
          let spec = Spec.with_policy policy Spec.default in
          let res, t = time_best_sim (job ~spec `Fast r.w) in
          let colls, flushes =
            match res.Fastsim.Sim.pcache with
            | Some p ->
              ( p.Memo.Pcache.minor_collections + p.Memo.Pcache.full_collections,
                p.Memo.Pcache.flushes )
            | None -> (0, 0)
          in
          Printf.printf "%-14s %-22s %9.2f %7d %7d %9.2f\n"
            r.w.Workloads.Workload.name
            (Printf.sprintf "%s@%dK" name (budget / 1024))
            t colls flushes (r.t_slow /. t))
        [ ("flush-on-full", Memo.Pcache.Flush_on_full budget);
          ("copying-gc", Memo.Pcache.Copying_gc budget);
          ( "generational-gc",
            Memo.Pcache.Generational_gc
              { nursery = budget / 4; total = budget } ) ])
    (Lazy.force rows)

let ablation_bpred () =
  header
    "Ablation: branch predictor vs memoization (mispredictions diversify \
     configurations and outcome edges)";
  Printf.printf "%-14s %-10s %11s %9s %9s %9s\n" "Benchmark" "Predictor"
    "cycles" "wrongpath" "configs" "speedup";
  List.iter
    (fun r ->
      List.iter
        (fun (name, predictor) ->
          let spec = Spec.with_predictor predictor Spec.default in
          let slow, t_slow = time_best_sim (job ~spec `Slow r.w) in
          let fast, t_fast = time_best_sim (job ~spec `Fast r.w) in
          assert (slow.Fastsim.Sim.cycles = fast.Fastsim.Sim.cycles);
          let configs =
            match fast.Fastsim.Sim.pcache with
            | Some p -> p.Memo.Pcache.static_configs
            | None -> 0
          in
          Printf.printf "%-14s %-10s %11d %9d %9d %9.2f\n"
            r.w.Workloads.Workload.name name fast.Fastsim.Sim.cycles
            fast.Fastsim.Sim.wrong_path_insts configs (t_slow /. t_fast))
        [ ("2bit+ras", Fastsim.Sim.Standard);
          ("not-taken", Fastsim.Sim.Not_taken);
          ("taken", Fastsim.Sim.Taken) ])
    (Lazy.force rows)

let ablation_cache () =
  header
    "Ablation: cache size vs memoization (smaller caches create more \
     latency outcomes, widening the action graph)";
  Printf.printf "%-14s %-8s %11s %9s %9s %9s\n" "Benchmark" "Cache" "cycles"
    "l1 misses" "actions" "speedup";
  List.iter
    (fun r ->
      List.iter
        (fun (name, cache_config) ->
          let spec = Spec.with_cache_config cache_config Spec.default in
          let slow, t_slow = time_best_sim (job ~spec `Slow r.w) in
          let fast, t_fast = time_best_sim (job ~spec `Fast r.w) in
          assert (slow.Fastsim.Sim.cycles = fast.Fastsim.Sim.cycles);
          let actions =
            match fast.Fastsim.Sim.pcache with
            | Some p -> p.Memo.Pcache.static_actions
            | None -> 0
          in
          Printf.printf "%-14s %-8s %11d %9d %9d %9.2f\n"
            r.w.Workloads.Workload.name name fast.Fastsim.Sim.cycles
            fast.Fastsim.Sim.cache.Cachesim.Hierarchy.l1_misses actions
            (t_slow /. t_fast))
        [ ("default", Cachesim.Config.default);
          ("tiny", Cachesim.Config.tiny) ])
    (Lazy.force rows)

let ablation_inputs () =
  header
    "Ablation (beyond the paper): does a p-action cache built on one INPUT \
     accelerate a different input of the same program? (configurations \
     reference code, not data)";
  Printf.printf "%-14s %-18s %9s %12s %9s\n" "Benchmark" "run" "time (s)"
    "detailed%" "configs";
  let experiments =
    [ ("099.go",
       (fun seed -> Workloads.Kernels_int.go ~data_seed:seed 200));
      ("129.compress",
       (fun seed -> Workloads.Kernels_int.compress ~data_seed:seed 2));
      ("101.tomcatv",
       (fun seed -> Workloads.Kernels_fp.tomcatv ~data_seed:seed 30)) ]
  in
  List.iter
    (fun (name, build) ->
      let prog_a = build 1111 and prog_b = build 9999 in
      let pc = Memo.Pcache.create () in
      let report label (res : Fastsim.Sim.result) t =
        match (res.Fastsim.Sim.memo, res.Fastsim.Sim.pcache) with
        | Some m, Some p ->
          Printf.printf "%-14s %-18s %9.2f %11.3f%% %9d\n" name label t
            (100. *. Memo.Stats.detailed_fraction m)
            p.Memo.Pcache.static_configs
        | _ -> ()
      in
      let fast pc prog =
        Fastsim.Sim.run ~engine:`Fast (Spec.with_pcache pc Spec.default) prog
      in
      let a, ta = time_best (fun () -> fast pc prog_a) in
      report "input A (cold)" a ta;
      let b, tb = time_best (fun () -> fast pc prog_b) in
      report "input B (shared)" b tb;
      let pc2 = Memo.Pcache.create () in
      let c, tc = time_best (fun () -> fast pc2 prog_b) in
      report "input B (cold)" c tc)
    experiments

let ablation_width () =
  header
    "Ablation: machine width (the iQ abstraction \"can be easily adapted\" \
     -- paper 4.1; same engines, different processor)";
  let machines =
    [ ("4-wide (paper)", Uarch.Params.default);
      ( "2-wide",
        { Uarch.Params.default with
          Uarch.Params.fetch_width = 2;
          decode_width = 2;
          retire_width = 2;
          int_units = 1;
          fp_units = 1 } );
      ( "8-wide",
        { Uarch.Params.default with
          Uarch.Params.fetch_width = 8;
          decode_width = 8;
          retire_width = 8;
          int_units = 4;
          fp_units = 4;
          mem_units = 2;
          active_list = 64;
          int_queue = 32;
          fp_queue = 32;
          addr_queue = 32;
          phys_int_regs = 96;
          phys_fp_regs = 96 } ) ]
  in
  Printf.printf "%-14s %-14s %11s %7s %9s\n" "Benchmark" "Machine" "cycles"
    "IPC" "speedup";
  List.iter
    (fun r ->
      List.iter
        (fun (name, params) ->
          let spec = Spec.with_params params Spec.default in
          let slow, t_slow = time_best_sim (job ~spec `Slow r.w) in
          let fast, t_fast = time_best_sim (job ~spec `Fast r.w) in
          assert (slow.Fastsim.Sim.cycles = fast.Fastsim.Sim.cycles);
          Printf.printf "%-14s %-14s %11d %7.2f %9.2f\n"
            r.w.Workloads.Workload.name name slow.Fastsim.Sim.cycles
            (float_of_int slow.Fastsim.Sim.retired
            /. float_of_int slow.Fastsim.Sim.cycles)
            (t_slow /. t_fast))
        machines)
    (Lazy.force rows)

let ablation_approx () =
  header
    "Ablation (paper 2, Pai et al.): in-order approximation vs \
     cycle-accurate OOO -- the error is not a constant factor across \
     workloads, so a fast approximate model cannot rank designs";
  Printf.printf "%-14s %12s %12s %9s %9s\n" "Benchmark" "OOO cycles"
    "in-order" "ratio" "time (s)";
  List.iter
    (fun r ->
      let prog = r.w.Workloads.Workload.build (scale_of r.w) in
      let a, t = time_best (fun () -> Baseline.Inorder.run prog) in
      Printf.printf "%-14s %12d %12d %9.2f %9.2f\n"
        r.w.Workloads.Workload.name r.slow.Fastsim.Sim.cycles
        a.Baseline.Inorder.cycles
        (float_of_int a.Baseline.Inorder.cycles
        /. float_of_int r.slow.Fastsim.Sim.cycles)
        t)
    (Lazy.force rows)

(* ---------------------------------------------------------------- *)
(* Machine-readable results: one JSON object per measured workload — the
   Table 2/3/4 numbers (slowdowns vs functional, simulation rates, memo
   hit fractions) plus a per-phase host-time split from one extra
   profiled fast run. Consumed by CI and plotting scripts. *)

let write_json path =
  let open Fastsim_obs.Json in
  let row_json r =
    let phases =
      (* The timed runs above are unobserved (profiling would perturb
         them); one extra profiled run splits host time into phases. *)
      let prof = Fastsim_obs.Profile.create () in
      let obs = Fastsim_obs.Ctx.create ~profile:prof () in
      let prog = r.w.Workloads.Workload.build (scale_of r.w) in
      ignore
        (Fastsim.Sim.run ~engine:`Fast (Spec.with_obs obs Spec.default) prog
          : Fastsim.Sim.result);
      Fastsim_obs.Profile.to_json prof
    in
    let memo =
      match (r.fast.Fastsim.Sim.memo, r.fast.Fastsim.Sim.pcache) with
      | Some m, Some p ->
        Obj
          [ ("detailed_fraction", Float (Memo.Stats.detailed_fraction m));
            ( "replay_fraction",
              Float (1. -. Memo.Stats.detailed_fraction m) );
            ("detailed_retired", Int m.Memo.Stats.detailed_retired);
            ("replayed_retired", Int m.Memo.Stats.replayed_retired);
            ("avg_chain", Float (Memo.Stats.avg_chain m));
            ("max_chain", Int m.Memo.Stats.chain_max);
            ("episodes", Int m.Memo.Stats.episodes);
            ("static_configs", Int p.Memo.Pcache.static_configs);
            ("static_actions", Int p.Memo.Pcache.static_actions);
            ("peak_modeled_bytes", Int p.Memo.Pcache.peak_modeled_bytes) ]
      | _ -> Null
    in
    Obj
      [ ("name", Str r.w.Workloads.Workload.name);
        ("scale", Int (scale_of r.w));
        ("insts", Int r.insts);
        ("cycles", Int r.slow.Fastsim.Sim.cycles);
        ("retired", Int r.slow.Fastsim.Sim.retired);
        ( "seconds",
          Obj
            [ ("functional", Float r.t_prog);
              ("slow", Float r.t_slow);
              ("fast", Float r.t_fast);
              ("baseline", Float r.t_base) ] );
        ( "slowdown_vs_functional",
          Obj
            [ ("slow", Float (r.t_slow /. r.t_prog));
              ("fast", Float (r.t_fast /. r.t_prog)) ] );
        ("memo_speedup", Float (r.t_slow /. r.t_fast));
        ("memo", memo);
        ("phases_seconds", phases) ]
  in
  let rows = if Lazy.is_val rows then Lazy.force rows else [] in
  let geomean =
    match rows with
    | [] -> Null
    | rs ->
      let logs =
        List.fold_left (fun acc r -> acc +. log (r.t_slow /. r.t_fast)) 0. rs
      in
      Float (exp (logs /. float_of_int (List.length rs)))
  in
  let doc =
    Obj
      [ ("harness", Str "fastsim-bench");
        ("quick", Bool !quick);
        ("repeat", Int !repeat);
        ("geomean_memo_speedup", geomean);
        ( "hotpath",
          match !hotpath_stats with
          | [] -> Null
          | stats -> Obj (List.map (fun (k, v) -> (k, Float v)) stats) );
        ( "loadtest",
          match !loadtest_reports with [] -> Null | l -> Obj l );
        ( "strategy",
          match !strategy_report with None -> Null | Some j -> j );
        ("workloads", List (List.map row_json rows)) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc doc;
      output_char oc '\n');
  Printf.eprintf "machine-readable results written to %s\n%!" path

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks of the engine's kernels.                *)

(* A detailed simulator stepped to a mid-run state, so snapshot encoding
   sees a busy pipeline (shared by the micro and hotpath sections). *)
let busy_uarch prog =
  let pred = Bpred.standard ~prog () in
  let emu = Emu.Emulator.create ~predictor:pred prog in
  let cache = Cachesim.Hierarchy.create () in
  let oracle : Uarch.Oracle.t =
    { cache_load =
        (fun ~now ->
          let l = Emu.Emulator.pop_load emu in
          Cachesim.Hierarchy.load cache ~now ~addr:l.Emu.Emulator.l_addr);
      cache_store =
        (fun ~now ->
          let s = Emu.Emulator.pop_store emu in
          Cachesim.Hierarchy.store cache ~now ~addr:s.Emu.Emulator.s_addr);
      fetch_control =
        (fun () ->
          match Emu.Emulator.next_event emu with
          | Emu.Emulator.Cond { taken; predicted_taken; _ } ->
            Uarch.Oracle.C_cond
              { taken; mispredicted = taken <> predicted_taken }
          | Emu.Emulator.Indirect { target; predicted; _ } ->
            Uarch.Oracle.C_indirect { target; hit = predicted = Some target }
          | _ -> Uarch.Oracle.C_stalled);
      rollback =
        (fun ~index -> ignore (Emu.Emulator.rollback_to emu ~index : int)) }
  in
  let uarch = Uarch.Detailed.create prog in
  for i = 0 to 49 do
    ignore
      (Uarch.Detailed.step_cycle uarch ~now:i oracle
        : Uarch.Detailed.cycle_result)
  done;
  uarch

let micro () =
  header "Micro-benchmarks (bechamel, ns per call)";
  let open Bechamel in
  let prog = (Workloads.Suite.find "go").build 2 in
  (* a mid-run snapshot to exercise encode/decode on a busy pipeline *)
  let busy_key = Uarch.Detailed.snapshot (busy_uarch prog) in
  let fetch_state, iq = Uarch.Snapshot.decode prog ~capacity:32 busy_key in
  let hierarchy = Cachesim.Hierarchy.create () in
  let clock = ref 0 in
  let pcache = Memo.Pcache.create () in
  ignore (Memo.Pcache.intern pcache busy_key : Memo.Action.config);
  let tests =
    Test.make_grouped ~name:"fastsim"
      [ Test.make ~name:"snapshot-encode"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Uarch.Snapshot.encode ~fetch:fetch_state iq)));
        Test.make ~name:"snapshot-decode"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Uarch.Snapshot.decode prog ~capacity:32 busy_key)));
        Test.make ~name:"pcache-intern"
          (Staged.stage (fun () ->
               Sys.opaque_identity (Memo.Pcache.intern pcache busy_key)));
        (let arena = Uarch.Snapshot.Arena.create () in
         Test.make ~name:"encode+intern-arena"
           (Staged.stage (fun () ->
                Uarch.Snapshot.encode_into arena ~fetch:fetch_state iq;
                Sys.opaque_identity (Memo.Pcache.intern_arena pcache arena))));
        Test.make ~name:"cache-load"
          (Staged.stage (fun () ->
               incr clock;
               Sys.opaque_identity
                 (Cachesim.Hierarchy.load hierarchy ~now:!clock
                    ~addr:(!clock * 4096 land 0xfffff))));
        Test.make ~name:"functional-run-2k-insts"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Emu.Emulator.run_functional ~max_insts:2000 prog))) ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-32s %12.1f ns/call\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results

(* ---------------------------------------------------------------- *)
(* Hot-path throughput: the operations the interning rewrite targets
   (docs/INTERNALS.md "Hot path"), reported as rates so CI can spot a
   regression at a glance. Results land in the JSON artifact. *)

(* The emulator in recording mode with nothing downstream: a real
   predictor, every misprediction repaired as soon as its event arrives,
   lQ/sQ drained after each event. Returns the instructions executed,
   wrong paths included. *)
let emu_record_run prog =
  let e = Emu.Emulator.create ~predictor:(Bpred.standard ~prog ()) prog in
  let rec loop () =
    for _ = 1 to Emu.Emulator.loads_pending e do
      ignore (Emu.Emulator.pop_load e : Emu.Emulator.load_rec)
    done;
    for _ = 1 to Emu.Emulator.stores_pending e do
      ignore (Emu.Emulator.pop_store e : Emu.Emulator.store_rec)
    done;
    match Emu.Emulator.next_event e with
    | Emu.Emulator.Halted _ -> ()
    | Emu.Emulator.Cond { taken; predicted_taken; _ }
      when taken <> predicted_taken ->
      ignore (Emu.Emulator.rollback_to e ~index:0 : int);
      loop ()
    | Emu.Emulator.Wedged _ ->
      ignore (Emu.Emulator.rollback_to e ~index:0 : int);
      loop ()
    | _ -> loop ()
  in
  loop ();
  Emu.Emulator.insts_executed e + Emu.Emulator.wrong_path_insts e

(* Functional-emulator throughput over the whole kernel suite, plain
   (Table 2's "native" baseline) and recording (what FastSim's emulation
   phase runs), in millions of instructions per second. *)
let emu_rates () =
  let plain_n = ref 0 and plain_s = ref 0. in
  let rec_n = ref 0 and rec_s = ref 0. in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = w.build (scale_of w) in
      let (_, _, n), dt = time_best (fun () -> Emu.Emulator.run_functional prog) in
      plain_n := !plain_n + n;
      plain_s := !plain_s +. dt;
      let n, dt = time_best (fun () -> emu_record_run prog) in
      rec_n := !rec_n + n;
      rec_s := !rec_s +. dt)
    Workloads.Suite.all;
  ( float_of_int !plain_n /. !plain_s /. 1e6,
    float_of_int !rec_n /. !rec_s /. 1e6 )

(* Cache-simulator throughput in accesses per second: a fixed seeded
   stream through [Hierarchy.load]/[store] on the default (Table 1)
   hierarchy. One access in four is a store; three in four go to a hot
   32 KB region (twice the L1: hits, misses, merged misses), the rest
   over 4 MB (L2 misses and write-backs); [now] advances 0-3 cycles per
   access. *)
let cachesim_rate () =
  let n = if !quick then 300_000 else 3_000_000 in
  let st = Random.State.make [| 1998 |] in
  let addrs =
    Array.init n (fun _ ->
        if Random.State.int st 4 > 0 then Random.State.int st 0x8000
        else Random.State.int st 0x400000)
  in
  let stores = Array.init n (fun _ -> Random.State.int st 4 = 0) in
  let (), dt =
    time_best (fun () ->
        let c = Cachesim.Hierarchy.create () in
        let now = ref 0 in
        for i = 0 to n - 1 do
          now := !now + (i land 3);
          if stores.(i) then
            Cachesim.Hierarchy.store c ~now:!now ~addr:addrs.(i)
          else
            ignore
              (Sys.opaque_identity
                 (Cachesim.Hierarchy.load c ~now:!now ~addr:addrs.(i)))
        done)
  in
  float_of_int n /. dt

let hotpath () =
  header "Hot path: zero-allocation interning and warm replay throughput";
  let emu_plain, emu_record = emu_rates () in
  let cache_rate = cachesim_rate () in
  let prog = (Workloads.Suite.find "go").build 2 in
  let uarch = busy_uarch prog in
  let pcache = Memo.Pcache.create () in
  ignore
    (Memo.Pcache.intern_arena pcache (Uarch.Detailed.snapshot_arena uarch)
      : Memo.Action.config);
  let iters = if !quick then 300_000 else 3_000_000 in
  (* warm hit through the arena: encode + hash + probe, no allocation *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    match
      Memo.Pcache.find_arena pcache (Uarch.Detailed.snapshot_arena uarch)
    with
    | Some _ -> ()
    | None -> assert false
  done;
  let encode_lookup = float_of_int iters /. (Unix.gettimeofday () -. t0) in
  (* the legacy path (materialise the key string, then intern) for scale *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore
      (Sys.opaque_identity
         (Memo.Pcache.intern pcache (Uarch.Detailed.snapshot uarch))
        : Memo.Action.config)
  done;
  let string_intern = float_of_int iters /. (Unix.gettimeofday () -. t0) in
  (* warm-cache replay rate (stride-compacted chains included) *)
  let w = Workloads.Suite.find "compress" in
  let wprog = w.Workloads.Workload.build (scale_of w) in
  let pc = Memo.Pcache.create () in
  ignore
    (Fastsim.Sim.run ~engine:`Fast Spec.(with_pcache pc default) wprog
      : Fastsim.Sim.result);
  let r, dt =
    time_best (fun () ->
        Fastsim.Sim.run ~engine:`Fast Spec.(with_pcache pc default) wprog)
  in
  let groups =
    match r.Fastsim.Sim.memo with
    | Some m -> m.Memo.Stats.groups_replayed
    | None -> 0
  in
  let replay_rate = float_of_int groups /. dt in
  (* the same replay after an FSPC0004 save/load round trip: strides come
     back rule-backed from the chain store, and the rate must hold up
     against the freshly compacted in-memory cache above (CI gates on
     this ratio — grammar compression is not allowed to tax replay) *)
  let path = Filename.temp_file "fastsim_bench" ".fspc" in
  Memo.Persist.Codec.save_file pc ~program:wprog path;
  let pc' = Memo.Persist.Codec.load_file ~program:wprog path in
  Sys.remove path;
  let r', dt' =
    time_best (fun () ->
        Fastsim.Sim.run ~engine:`Fast Spec.(with_pcache pc' default) wprog)
  in
  let groups' =
    match r'.Fastsim.Sim.memo with
    | Some m -> m.Memo.Stats.groups_replayed
    | None -> 0
  in
  let warm_replay_rate = float_of_int groups' /. dt' in
  (* the memo write path, on go: in isolation, every stride of its
     unbounded cache re-interned into a fresh chain store; end to end,
     go re-recording under a flush-on-full budget a quarter of that
     cache's natural (peak) size *)
  let gw = Workloads.Suite.find "go" in
  let gprog = gw.Workloads.Workload.build (scale_of gw) in
  let gpc = Memo.Pcache.create () in
  ignore
    (Fastsim.Sim.run ~engine:`Fast Spec.(with_pcache gpc default) gprog
      : Fastsim.Sim.result);
  let runs = ref [] in
  Memo.Pcache.iter_configs
    (fun c ->
      match c.Memo.Action.cfg_group with
      | Some { Memo.Action.g_first = Memo.Action.N_stride s; _ } ->
        runs := Memo.Store.expand s.Memo.Action.s_rule :: !runs
      | _ -> ())
    gpc;
  let runs = Array.of_list !runs in
  let (), dt_intern =
    time_best (fun () ->
        let st = Memo.Store.create () in
        Array.iter
          (fun segs ->
            ignore (Memo.Store.intern_segs st segs : Memo.Action.rule))
          runs)
  in
  let intern_rate = float_of_int (Array.length runs) /. dt_intern in
  let natural = (Memo.Pcache.counters gpc).Memo.Pcache.peak_modeled_bytes in
  let bounded = Memo.Pcache.Flush_on_full (max 1 (natural / 4)) in
  let br, dt_bounded =
    time_best (fun () ->
        Fastsim.Sim.run ~engine:`Fast Spec.(with_policy bounded default) gprog)
  in
  let bounded_kips = float_of_int br.Fastsim.Sim.retired /. dt_bounded /. 1e3 in
  (* persist footprint over the whole kernel suite, current codec vs the
     inline-segment FSPC0003 stream (always at test scale: the ratio is
     what matters, and CI gates v4 <= v3) *)
  let v4_bytes = ref 0 and v3_bytes = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = w.build w.test_scale in
      let pc = Memo.Pcache.create () in
      ignore
        (Fastsim.Sim.run ~engine:`Fast Spec.(with_pcache pc default) prog
          : Fastsim.Sim.result);
      let size codec =
        let p = Filename.temp_file "fastsim_bench_sz" ".fspc" in
        Memo.Persist.Codec.save_file ~codec pc ~program:prog p;
        let n = (Unix.stat p).Unix.st_size in
        Sys.remove p;
        n
      in
      v4_bytes := !v4_bytes + size Memo.Persist.Codec.current;
      v3_bytes := !v3_bytes + size Memo.Persist.Codec.v3)
    Workloads.Suite.all;
  Printf.printf "emulator (plain):       %14.1f Minst/s\n" emu_plain;
  Printf.printf "emulator (recording):   %14.1f Minst/s (%.2fx plain)\n"
    emu_record (emu_record /. emu_plain);
  Printf.printf "cachesim:               %14.0f accesses/s\n" cache_rate;
  Printf.printf "encode+lookup (arena):  %14.0f ops/s\n" encode_lookup;
  Printf.printf "encode+intern (string): %14.0f ops/s\n" string_intern;
  Printf.printf "warm replay:            %14.0f groups/s  (%d groups, %.3f s)\n"
    replay_rate groups dt;
  Printf.printf "warm replay (reloaded): %14.0f groups/s  (%d groups, %.3f s)\n"
    warm_replay_rate groups' dt';
  Printf.printf "store intern (strides): %14.0f runs/s  (%d runs of go)\n"
    intern_rate (Array.length runs);
  Printf.printf "bounded FastSim (go):   %14.1f kinst/s  (%s)\n" bounded_kips
    (Spec.policy_to_string bounded);
  Printf.printf "persist bytes (suite):  %14d FSPC0004 / %d FSPC0003 (%.2fx)\n"
    !v4_bytes !v3_bytes
    (float_of_int !v4_bytes /. float_of_int (max 1 !v3_bytes));
  hotpath_stats :=
    [ ("emu_functional_minst_per_s", emu_plain);
      ("emu_record_minst_per_s", emu_record);
      ("cachesim_accesses_per_s", cache_rate);
      ("encode_lookup_ops_per_sec", encode_lookup);
      ("string_intern_ops_per_sec", string_intern);
      ("replay_groups_per_sec", replay_rate);
      ("warm_replay_groups_per_s", warm_replay_rate);
      ("store_intern_segs_per_s", intern_rate);
      ("bounded_fast_kips", bounded_kips);
      ("persist_bytes_fspc0004", float_of_int !v4_bytes);
      ("persist_bytes_fspc0003", float_of_int !v3_bytes) ]

(* ---------------------------------------------------------------- *)
(* Daemon under load: the fleet backend against the fork-per-request
   baseline, cold registry vs warm, at high client concurrency. The
   interesting ratios are warm-vs-cold (memoization through the wire)
   and fleet-vs-fork (persistent shard workers vs per-request forks). *)

let loadtest () =
  header
    "Loadtest: daemon throughput/latency under concurrent clients (fleet \
     vs fork, cold vs warm)";
  let clients = if !quick then 24 else 100 in
  let requests = 2 in
  let jobs = 4 in
  let print_phase tag (p : Fastsim_serve.Loadtest.phase) =
    Printf.printf
      "  %-6s %5d req in %6.2fs  %8.1f req/s  p50 %8.1fms  p99 %8.1fms  \
       (%d warm, %d errors)\n"
      tag p.Fastsim_serve.Loadtest.ph_requests p.ph_wall_s p.ph_rps
      p.ph_p50_ms p.ph_p99_ms p.ph_warm_hits p.ph_errors
  in
  List.iter
    (fun (label, backend) ->
      let cfg =
        { Fastsim_serve.Loadtest.default with
          Fastsim_serve.Loadtest.backend;
          jobs;
          clients;
          requests_per_client = requests }
      in
      match Fastsim_serve.Loadtest.run cfg with
      | Error m -> Printf.printf "%-8s FAILED: %s\n" label m
      | Ok r ->
        Printf.printf "%s (%d clients, %d jobs):\n" label clients jobs;
        print_phase "cold" r.Fastsim_serve.Loadtest.lt_cold;
        print_phase "warm" r.Fastsim_serve.Loadtest.lt_warm;
        if r.Fastsim_serve.Loadtest.lt_divergent > 0 then
          Printf.printf "  DIVERGENCE: %d workload(s) disagreed with \
                         direct runs\n"
            r.Fastsim_serve.Loadtest.lt_divergent;
        loadtest_reports :=
          !loadtest_reports
          @ [ (label, Fastsim_serve.Loadtest.report_to_json r) ])
    [ ("fleet", `Fleet); ("fork", `Fork) ]

(* ---------------------------------------------------------------- *)
(* Strategy engines (docs/STRATEGY.md): interval-parallel wall-clock
   against the serial reference it must reproduce bit-for-bit, and the
   sampled engine's estimation error against the exact run. Always at
   full scale, even under --quick: the timing ratio is meaningless on
   millisecond-long runs where fork/marshal overhead dominates. *)

let strategy_section () =
  header
    "Strategy engines: interval-parallel stitching and periodic sampling";
  let cores = Fastsim_exec.Domain_shim.recommended_jobs () in
  let jobs = max 2 cores in
  let once f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun name ->
        let w = Workloads.Suite.find name in
        let prog = w.Workloads.Workload.build w.default_scale in
        let slow, t_slow =
          once (fun () -> Fastsim.Sim.run ~engine:`Slow Spec.default prog)
        in
        let t = slow.Fastsim.Sim.retired in
        let parallel =
          Fastsim.Sim.Parallel
            { interval_insns = max 1 (t / 3);
              warmup_insns = max 1 (t / 64);
              fanout = Some (Fastsim_exec.Strategy_pool.fanout ~jobs ()) }
        in
        let par, t_par =
          once (fun () ->
              Fastsim.Sim.run ~strategy:parallel ~engine:`Slow Spec.default
                prog)
        in
        let prov r =
          match r.Fastsim.Sim.provenance with
          | Some p -> p
          | None -> failwith "strategy run without provenance"
        in
        let pp = prov par in
        let agreement = par.Fastsim.Sim.cycles = slow.Fastsim.Sim.cycles in
        let fast, _ =
          once (fun () -> Fastsim.Sim.run ~engine:`Fast Spec.default prog)
        in
        let sampled =
          Fastsim.Sim.Sampled
            { sample_insns = max 1 (t / 40);
              sample_period = max 1 (t / 20);
              warmup_insns = max 1 (t / 80) }
        in
        let sam, t_sam =
          once (fun () ->
              Fastsim.Sim.run ~strategy:sampled ~engine:`Fast Spec.default
                prog)
        in
        let err =
          abs_float
            (float_of_int (sam.Fastsim.Sim.cycles - fast.Fastsim.Sim.cycles))
          /. float_of_int (max 1 fast.Fastsim.Sim.cycles)
        in
        Printf.printf
          "%-12s serial %6.2fs  parallel %6.2fs (%4.2fx, %d/%d stitched%s)  \
           sampled %5.2fs err %5.2f%%\n%!"
          w.Workloads.Workload.name t_slow t_par (t_slow /. t_par)
          pp.Fastsim.Sim.prov_accepted pp.Fastsim.Sim.prov_intervals
          (if agreement then "" else ", CYCLE MISMATCH")
          t_sam (100. *. err);
        let open Fastsim_obs.Json in
        Obj
          [ ("name", Str w.Workloads.Workload.name);
            ("retired", Int t);
            ("serial_slow_s", Float t_slow);
            ("parallel_s", Float t_par);
            ("parallel_speedup", Float (t_slow /. t_par));
            ("intervals", Int pp.Fastsim.Sim.prov_intervals);
            ("accepted", Int pp.Fastsim.Sim.prov_accepted);
            ("repaired", Int pp.Fastsim.Sim.prov_repaired);
            ("cycle_agreement", Bool agreement);
            ("sampled_s", Float t_sam);
            ("sampled_windows", Int (prov sam).Fastsim.Sim.prov_intervals);
            ("sampled_rel_err", Float err) ])
      [ "go"; "m88ksim"; "ijpeg"; "perl" ]
  in
  strategy_report :=
    Some
      Fastsim_obs.Json.(
        Obj [ ("jobs", Int jobs); ("cores", Int cores);
              ("kernels", List rows) ])

(* The CI gate: with --require-speedup X, any workload whose fast-vs-slow
   speedup falls below X fails the run (after the JSON artifact is
   written, so the evidence is always archived). *)
let speedup_failures () =
  if !require_speedup <= 0. then []
  else begin
    let rs = Lazy.force rows in
    let speedups = List.map (fun r -> r.t_slow /. r.t_fast) rs in
    let geomean =
      exp
        (List.fold_left (fun acc s -> acc +. log s) 0. speedups
        /. float_of_int (List.length speedups))
    in
    Printf.printf "\ngeomean memoization speedup: %.2fx (gate: %.2fx per \
                   workload)\n"
      geomean !require_speedup;
    List.filter
      (fun r -> r.t_slow /. r.t_fast < !require_speedup)
      rs
  end

let () =
  Arg.parse (Arg.align speclist)
    (fun a -> raise (Arg.Bad ("unknown " ^ a)))
    usage;
  Printf.printf "FastSim evaluation harness%s: %d workloads, repeat=%d\n%!"
    (if !quick then " (quick)" else "")
    (List.length (workloads ()))
    !repeat;
  if wanted "table1" then table1 ();
  if wanted "table2" then table2 ();
  if wanted "table3" then table3 ();
  if wanted "table4" then table4 ();
  if wanted "table5" then table5 ();
  if wanted "figure7" then figure7 ();
  if wanted "ablation-gc" then ablation_gc ();
  if wanted "ablation-bpred" then ablation_bpred ();
  if wanted "ablation-cache" then ablation_cache ();
  if wanted "ablation-approx" then ablation_approx ();
  if wanted "ablation-width" then ablation_width ();
  if wanted "ablation-inputs" then ablation_inputs ();
  if wanted "micro" then micro ();
  if wanted "hotpath" then hotpath ();
  if List.mem "loadtest" !sections then loadtest ();
  if List.mem "strategy" !sections then strategy_section ();
  let failures = speedup_failures () in
  (* Only when the shared rows were actually measured: a --micro-only or
     --table 1 invocation should not trigger the full suite. *)
  if
    !json_out <> ""
    && (Lazy.is_val rows || !hotpath_stats <> [] || !loadtest_reports <> []
        || !strategy_report <> None)
  then write_json !json_out;
  if failures <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf "SPEEDUP GATE FAILED: %s fast/slow = %.2fx < %.2fx\n"
          r.w.Workloads.Workload.name (r.t_slow /. r.t_fast)
          !require_speedup)
      failures;
    exit 1
  end
