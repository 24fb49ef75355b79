(* The traced run: per-layer metrics measured from outside the library.

   Spans are placed by this file around calls into the public functions
   of each layer, never inside [lib/]. Two drivers produce them:

   - driver (a), a slow engine assembled from [Emu.Emulator],
     [Bpred.standard], [Cachesim.Hierarchy] and [Uarch.Detailed.step_cycle]
     behind a wrapped [Uarch.Oracle.t]; its result must equal
     [Sim.run ~engine:`Slow] exactly;
   - driver (b), [Memo.Replay.run] from the initial configuration over a
     p-action cache warmed until a FastSim run needs no detailed
     simulation, with the same wrapped oracle; it must halt in replay
     with the reference cycle count.

   A layer's self time is its span's duration minus the time covered by
   its child spans. The oracle's spans (emulator, cachesim) are the only
   children of [step_cycle] and [Replay.run]. *)

module Sim = Fastsim.Sim
module Spec = Fastsim.Sim.Spec

type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }

let charge a t0 t1 =
  a.ns <- a.ns + (t1 - t0);
  a.calls <- a.calls + 1

(* Spans of the oracle's callees. *)
type oracle_spans = {
  emu : acc;       (** next_event, pop_load, pop_store, rollback_to. *)
  rollback : acc;  (** rollback_to alone (also counted in [emu]). *)
  cache : acc;     (** Hierarchy.load / Hierarchy.store. *)
}

type branches = {
  mutable cond : int;
  mutable mispred : int;
  mutable ind : int;
  mutable misfetch : int;
}

type rig = {
  emu_t : Emu.Emulator.t;
  cache_t : Cachesim.Hierarchy.t;
  br : branches;
  spans : oracle_spans;
  oracle : Uarch.Oracle.t;
}

(* [fault] perturbs the first load latency, for the self-test: a driver
   fed a wrong outcome must fail its check. *)
let make_rig ?(fault = false) (spec : Spec.t) prog =
  let predictor =
    match spec.Spec.predictor with
    | Sim.Standard -> Bpred.standard ~prog ()
    | Sim.Not_taken -> Bpred.static_not_taken ()
    | Sim.Taken -> Bpred.static_taken ()
  in
  let emu_t = Emu.Emulator.create ~predictor prog in
  let cache_t = Cachesim.Hierarchy.create ~config:spec.Spec.cache_config () in
  let br = { cond = 0; mispred = 0; ind = 0; misfetch = 0 } in
  let spans = { emu = acc (); rollback = acc (); cache = acc () } in
  let pending_fault = ref fault in
  let oracle : Uarch.Oracle.t =
    { cache_load =
        (fun ~now ->
          let t0 = Clock.ns () in
          let l = Emu.Emulator.pop_load emu_t in
          let t1 = Clock.ns () in
          let lat =
            Cachesim.Hierarchy.load cache_t ~now ~addr:l.Emu.Emulator.l_addr
          in
          let t2 = Clock.ns () in
          charge spans.emu t0 t1;
          charge spans.cache t1 t2;
          if !pending_fault then begin
            pending_fault := false;
            lat + 50
          end
          else lat);
      cache_store =
        (fun ~now ->
          let t0 = Clock.ns () in
          let s = Emu.Emulator.pop_store emu_t in
          let t1 = Clock.ns () in
          Cachesim.Hierarchy.store cache_t ~now ~addr:s.Emu.Emulator.s_addr;
          let t2 = Clock.ns () in
          charge spans.emu t0 t1;
          charge spans.cache t1 t2);
      fetch_control =
        (fun () ->
          let t0 = Clock.ns () in
          let ev = Emu.Emulator.next_event emu_t in
          charge spans.emu t0 (Clock.ns ());
          match ev with
          | Emu.Emulator.Cond { taken; predicted_taken; _ } ->
            let mispredicted = taken <> predicted_taken in
            br.cond <- br.cond + 1;
            if mispredicted then br.mispred <- br.mispred + 1;
            Uarch.Oracle.C_cond { taken; mispredicted }
          | Emu.Emulator.Indirect { target; predicted; _ } ->
            let hit = predicted = Some target in
            br.ind <- br.ind + 1;
            if not hit then br.misfetch <- br.misfetch + 1;
            Uarch.Oracle.C_indirect { target; hit }
          | Emu.Emulator.Halted _ | Emu.Emulator.Wedged _ ->
            Uarch.Oracle.C_stalled);
      rollback =
        (fun ~index ->
          let t0 = Clock.ns () in
          ignore (Emu.Emulator.rollback_to emu_t ~index : int);
          let t1 = Clock.ns () in
          charge spans.emu t0 t1;
          charge spans.rollback t0 t1) }
  in
  { emu_t; cache_t; br; spans; oracle }

(* The driver's outcome in [Sim.result] form, for the exactness check. *)
let result rig ~cycles ~retired ~classes : Sim.result =
  { Sim.cycles; retired; retired_by_class = classes;
    emulated_insts = Emu.Emulator.insts_executed rig.emu_t;
    wrong_path_insts = Emu.Emulator.wrong_path_insts rig.emu_t;
    branches =
      { Sim.conditionals = rig.br.cond; mispredicted = rig.br.mispred;
        indirects = rig.br.ind; misfetched = rig.br.misfetch };
    cache = Cachesim.Hierarchy.stats rig.cache_t;
    memo = None; pcache = None;
    final_state = Emu.Emulator.state rig.emu_t;
    truncated = false; provenance = None }

type a_out = {
  a_ok : bool;
  a_ns : int;             (** whole driver, spans included. *)
  a_spans : oracle_spans;
  a_uarch : acc;          (** step_cycle. *)
  a_lookup : acc;         (** snapshot_arena + find_arena/intern_arena. *)
  a_hits : int;
}

(* Driver (a). Besides stepping the pipeline it probes a p-action cache
   with every interaction cycle's configuration, as FastSim's recording
   path does, to time the memo lookup; that probe is excluded from the
   tracing-overhead ratio. A limit of twice the reference cycle count
   stops a driver that does not halt. *)
let driver_a ?fault (spec : Spec.t) prog (ref_ : Check.reference) =
  let rig = make_rig ?fault spec prog in
  let uarch = Uarch.Detailed.create ~params:spec.Spec.params prog in
  let lookup = Memo.Pcache.create () in
  let u = acc () and lk = acc () and hits = ref 0 in
  let cycle = ref 0 and retired = ref 0 and halted = ref false in
  let limit = (2 * ref_.Check.cycles) + 1000 in
  let t_start = Clock.ns () in
  while (not !halted) && !cycle < limit do
    let t0 = Clock.ns () in
    let r = Uarch.Detailed.step_cycle uarch ~now:!cycle rig.oracle in
    charge u t0 (Clock.ns ());
    incr cycle;
    retired := !retired + r.Uarch.Detailed.retired;
    if r.Uarch.Detailed.halted then halted := true
    else if r.Uarch.Detailed.interactions > 0 then begin
      let t0 = Clock.ns () in
      let arena = Uarch.Detailed.snapshot_arena uarch in
      (match Memo.Pcache.find_arena lookup arena with
       | Some _ -> incr hits
       | None ->
         ignore (Memo.Pcache.intern_arena lookup arena : Memo.Action.config));
      charge lk t0 (Clock.ns ())
    end
  done;
  let a_ns = Clock.ns () - t_start in
  let r =
    result rig ~cycles:!cycle ~retired:!retired
      ~classes:(Uarch.Detailed.retired_by_class uarch)
  in
  { a_ok = !halted && Check.arch_key r = ref_.Check.key; a_ns;
    a_spans = rig.spans; a_uarch = u; a_lookup = lk; a_hits = !hits }

type b_out = {
  b_ok : bool;
  b_halted : bool;
  b_cycles : int;
  b_ns : int;             (** Replay.run, spans included. *)
  b_spans : oracle_spans;
  b_groups : int;
}

(* Driver (b): the whole program replayed from the initial
   configuration. *)
let driver_b (spec : Spec.t) prog pcache (ref_ : Check.reference) =
  let rig = make_rig spec prog in
  let mstats = Memo.Stats.create () in
  let classes = Array.make Isa.Instr.fu_count 0 in
  let cycle = ref 0 in
  let start =
    Memo.Pcache.intern pcache
      (Uarch.Detailed.snapshot
         (Uarch.Detailed.create ~params:spec.Spec.params prog))
  in
  let t0 = Clock.ns () in
  let outcome =
    Memo.Replay.run pcache mstats ~oracle:rig.oracle ~cycle ~classes ~start
  in
  let b_ns = Clock.ns () - t0 in
  let b_halted = outcome = Memo.Replay.Replay_halted in
  { b_ok = b_halted && !cycle = ref_.Check.cycles; b_halted; b_cycles = !cycle;
    b_ns; b_spans = rig.spans; b_groups = mstats.Memo.Stats.groups_replayed }

(* FastSim runs on one unbounded cache until a run needs no detailed
   simulation; the count of runs is reported. A single cold run is not
   enough: on gcc and compress the first warm rerun still enters the
   detailed simulator once, and replay from that cache diverges. *)
let max_warm_runs = 8

let warm (spec : Spec.t) prog pcache ~runs =
  let rec go runs =
    if runs >= max_warm_runs then
      failwith (Printf.sprintf "cache not warm after %d runs" runs)
    else
      let r = Sim.run ~engine:`Fast (Spec.with_pcache pcache spec) prog in
      let m = Option.get r.Sim.memo in
      if m.Memo.Stats.detailed_entries = 0 then runs + 1 else go (runs + 1)
  in
  go runs

(* Persist timings: save and load the cache repeatedly until a few tens
   of milliseconds have passed, since a small cache saves in
   microseconds. *)
let persist pcache prog =
  let path = Filename.concat (Tmp.fresh_dir ()) "cache.fspc" in
  let save = acc () and load = acc () in
  while save.ns + load.ns < 40_000_000 && save.calls < 200 do
    let t0 = Clock.ns () in
    Memo.Persist.Codec.save_file pcache ~program:prog path;
    let t1 = Clock.ns () in
    ignore (Memo.Persist.Codec.load_file ~program:prog path : Memo.Pcache.t);
    let t2 = Clock.ns () in
    charge save t0 t1;
    charge load t1 t2
  done;
  let bytes = (Unix.stat path).Unix.st_size in
  Tmp.rm_rf (Filename.dirname path);
  (bytes, save, load)

type job_out = {
  ok_cold : bool;      (** the cold FastSim run equals SlowSim. *)
  slow_ns : int;       (** untraced [Sim.run ~engine:`Slow]. *)
  a : a_out;
  b : b_out;
  cold : Sim.result;   (** the workload's own FastSim run, cold. *)
  cold_ns : int;
  warm_runs : int;
  persist_bytes : int;
  save : acc;
  load : acc;
  func_insts : int;
  func_ns : int;
}

(* Everything the traced run measures on one job. [fault_a] and [cold_b]
   break driver (a) and driver (b) for the self-test. *)
let trace_job ?fault_a ?(cold_b = false) (j : Units.job) =
  let prog = Units.build j in
  let spec = j.Units.spec in
  let ref_ = Check.reference j prog in
  let a = driver_a ?fault:fault_a spec prog ref_ in
  let pc = Memo.Pcache.create ~policy:spec.Spec.policy () in
  let t0 = Clock.ns () in
  let cold = Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog in
  let cold_ns = Clock.ns () - t0 in
  let persist_bytes, save, load = persist pc prog in
  (* A budgeted cache never stops flushing; driver (b) replays from an
     unbounded one, which gives the same results. *)
  let warm_pc, warm_runs =
    if cold_b then (Memo.Pcache.create (), 0)
    else if spec.Spec.policy = Memo.Pcache.Unbounded then
      (pc, warm spec prog pc ~runs:1)
    else
      let pc = Memo.Pcache.create () in
      (pc, warm spec prog pc ~runs:0)
  in
  let b = driver_b spec prog warm_pc ref_ in
  let t0 = Clock.ns () in
  let _, _, func_insts = Emu.Emulator.run_functional prog in
  let func_ns = Clock.ns () - t0 in
  { ok_cold = Check.arch_key cold = ref_.Check.key;
    slow_ns = ref_.Check.slow_ns; a; b; cold; cold_ns; warm_runs;
    persist_bytes; save; load; func_insts; func_ns }

(* Checks, noting each failure; returns the number of failed checks. *)
let failures jobs outs =
  List.fold_left2
    (fun n j o ->
      let check ok what =
        if ok then 0
        else begin
          Report.note "FAIL %s: %s" (Units.label j) what;
          1
        end
      in
      n
      + check o.a.a_ok "driver (a) differs from SlowSim"
      + check o.b.b_ok
          (Printf.sprintf
             "driver (b) %s at cycle %d, not halted in replay at the SlowSim \
              cycle count"
             (if o.b.b_halted then "halted" else "left replay")
             o.b.b_cycles)
      + check o.ok_cold "FastSim differs from SlowSim")
    0 jobs outs

let checks_per_job = 3

let sum f outs = List.fold_left (fun a o -> a + f o) 0 outs

let report jobs outs =
  let n = List.length outs in
  let secs f = Clock.secs (sum f outs) in
  let rate num den = float_of_int num /. den in
  let memo f = sum (fun o -> f (Option.get o.cold.Sim.memo)) outs in
  let pcache f = sum (fun o -> f (Option.get o.cold.Sim.pcache)) outs in
  (* emulator and cachesim: driver (b), the replay-bound path *)
  let emu_s = secs (fun o -> o.b.b_spans.emu.ns) in
  let cache_s = secs (fun o -> o.b.b_spans.cache.ns) in
  let accesses = sum (fun o -> o.b.b_spans.cache.calls) outs in
  Report.add ~samples:n "emu.record.self_s" "s" emu_s;
  Report.count "emu.record.calls" (sum (fun o -> o.b.b_spans.emu.calls) outs);
  Report.count "emu.rollback.calls"
    (sum (fun o -> o.b.b_spans.rollback.calls) outs);
  Report.add ~samples:n "emu.functional.minst_per_s" "Minst/s"
    (rate (sum (fun o -> o.func_insts) outs) (secs (fun o -> o.func_ns))
    /. 1e6);
  Report.add ~samples:n "emu.wrong_path_ratio" "ratio"
    (Stat.ratio
       (sum (fun o -> o.cold.Sim.wrong_path_insts) outs)
       (sum (fun o -> o.cold.Sim.emulated_insts) outs));
  Report.add ~samples:n "bpred.mispredict_ratio" "ratio"
    (Stat.ratio
       (sum (fun o -> o.cold.Sim.branches.Sim.mispredicted) outs)
       (sum (fun o -> o.cold.Sim.branches.Sim.conditionals) outs));
  Report.add ~samples:n "cachesim.self_s" "s" cache_s;
  Report.count "cachesim.accesses" accesses;
  Report.add ~samples:accesses "cachesim.ns_per_access" "ns"
    (cache_s *. 1e9 /. float_of_int accesses);
  (* detailed simulator: driver (a) minus its oracle callees *)
  let uarch_s =
    secs (fun o -> o.a.a_uarch.ns - o.a.a_spans.emu.ns - o.a.a_spans.cache.ns)
  in
  let cycles = sum (fun o -> o.a.a_uarch.calls) outs in
  Report.add ~samples:n "uarch.self_s" "s" uarch_s;
  Report.count "uarch.cycles" cycles;
  Report.add ~samples:n "uarch.kcycles_per_s" "kcycles/s"
    (rate cycles uarch_s /. 1e3);
  (* replay walk: driver (b) minus its oracle callees *)
  let replay_s =
    secs (fun o -> o.b.b_ns - o.b.b_spans.emu.ns - o.b.b_spans.cache.ns)
  in
  let groups = sum (fun o -> o.b.b_groups) outs in
  Report.add ~samples:n "memo.replay.self_s" "s" replay_s;
  Report.count "memo.replay.groups" groups;
  Report.add ~samples:n "memo.replay.mgroups_per_s" "Mgroups/s"
    (rate groups replay_s /. 1e6);
  let lookups = sum (fun o -> o.a.a_lookup.calls) outs in
  Report.add ~samples:lookups "memo.lookup.ns" "ns"
    (rate (sum (fun o -> o.a.a_lookup.ns) outs) (float_of_int lookups));
  Report.add ~samples:lookups "memo.lookup.hit_ratio" "ratio"
    (Stat.ratio (sum (fun o -> o.a.a_hits) outs) lookups);
  (* the workload's own cold FastSim runs *)
  Report.add ~samples:n "memo.detailed_fraction" "ratio"
    (Stat.ratio
       (memo (fun m -> m.Memo.Stats.detailed_retired))
       (sum (fun o -> o.cold.Sim.retired) outs));
  Report.count "memo.flushes" (pcache (fun p -> p.Memo.Pcache.flushes));
  Report.count "memo.static_configs"
    (pcache (fun p -> p.Memo.Pcache.static_configs));
  Report.add ~samples:n "memo.peak_modeled_bytes" "bytes"
    (float_of_int (pcache (fun p -> p.Memo.Pcache.peak_modeled_bytes)));
  Report.count "memo.warm_runs" (sum (fun o -> o.warm_runs) outs);
  let mb =
    float_of_int (sum (fun o -> o.persist_bytes * o.save.calls) outs) /. 1e6
  in
  Report.add ~samples:(sum (fun o -> o.save.calls) outs)
    "memo.persist.save_mb_per_s" "MB/s"
    (mb /. secs (fun o -> o.save.ns));
  Report.add ~samples:(sum (fun o -> o.load.calls) outs)
    "memo.persist.load_mb_per_s" "MB/s"
    (mb /. secs (fun o -> o.load.ns));
  Report.add ~samples:n "memo.persist.bytes" "bytes"
    (float_of_int (sum (fun o -> o.persist_bytes) outs));
  Report.add ~samples:n "trace.overhead_ratio" "ratio"
    (secs (fun o -> o.a.a_ns - o.a.a_lookup.ns) /. secs (fun o -> o.slow_ns));
  (* Table 2's ratios and the replay split, from the same runs; nothing
     gates on them *)
  List.iter2
    (fun j o ->
      let f = Clock.secs and b = o.b in
      let pct x = 100. *. f x /. f b.b_ns in
      Report.note
        "derived %s: slow/fast %.2fx, fast/functional %.1fx; replay split: \
         emu %.0f%%, replay walk %.0f%%, cachesim %.0f%%; warm after %d runs"
        (Units.label j)
        (f o.slow_ns /. f o.cold_ns)
        (f o.cold_ns /. f o.func_ns)
        (pct b.b_spans.emu.ns)
        (pct (b.b_ns - b.b_spans.emu.ns - b.b_spans.cache.ns))
        (pct b.b_spans.cache.ns) o.warm_runs)
    jobs outs

(* The daemon session of a batch workload's traced run. *)
let batch_serve_seconds = 3.

let run (w : Units.t) ~seed ~seconds =
  match Proc.par_map (fun j -> trace_job j) w.Units.jobs with
  | Error m -> failwith ("traced driver failed: " ^ m)
  | Ok outs ->
    let failed = failures w.Units.jobs outs in
    report w.Units.jobs outs;
    let serve_n, serve_failed =
      match w.Units.kind with
      | Units.Serve -> Serve_mix.per_layer w w.Units.jobs ~seed ~seconds
      | Units.Batch ->
        Serve_mix.per_layer w (Units.at_test_scale w) ~seed
          ~seconds:batch_serve_seconds
    in
    ((checks_per_job * List.length outs) + serve_n, failed + serve_failed)
