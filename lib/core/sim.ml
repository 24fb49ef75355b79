exception Deadlock of string

type branch_stats = {
  conditionals : int;
  mispredicted : int;
  indirects : int;
  misfetched : int;
}

(* ---- strategy types (docs/STRATEGY.md) ---------------------------- *)

type fanout = {
  f_map : 'a. (int -> 'a) -> int -> 'a option array;
  f_pcache_mode : [ `Inherit | `Isolate ];
}

let inline_fanout =
  { f_map =
      (fun f n ->
        Array.init n (fun i -> try Some (f i) with _ -> None));
    f_pcache_mode = `Inherit }

type strategy =
  | Serial
  | Parallel of {
      interval_insns : int;
      warmup_insns : int;
      fanout : fanout option;
    }
  | Sampled of {
      sample_insns : int;
      sample_period : int;
      warmup_insns : int;
    }

type provenance = {
  prov_strategy : string;
  prov_intervals : int;
  prov_accepted : int;
  prov_repaired : int;
  prov_fallback : string option;
  prov_errors : (string * float) list;
}

type result = {
  cycles : int;
  retired : int;
  retired_by_class : int array;
  emulated_insts : int;
  wrong_path_insts : int;
  branches : branch_stats;
  cache : Cachesim.Hierarchy.stats;
  memo : Memo.Stats.t option;
  pcache : Memo.Pcache.counters option;
  final_state : Emu.Arch_state.t;
  truncated : bool;
  provenance : provenance option;
}

type predictor_kind = Standard | Not_taken | Taken

type engine = [ `Fast | `Slow | `Baseline ]

(* Cycles without a retirement before the driver declares the pipeline
   stuck; generous enough for any real memory-latency pile-up. *)
let watchdog = 100_000

let make_predictor ?metrics kind prog =
  match kind with
  | Standard -> Bpred.standard ~prog ?metrics ()
  | Not_taken -> Bpred.static_not_taken ()
  | Taken -> Bpred.static_taken ()

(* Branch statistics accumulate at the live-oracle boundary: both the
   detailed simulator and the replay engine pull outcomes through here
   (prefix-served outcomes during a divergence re-run are NOT re-pulled),
   so each fetched control event is counted exactly once and the counts
   are identical with and without memoization. *)
type branch_counters = {
  mutable n_cond : int;
  mutable n_mispred : int;
  mutable n_ind : int;
  mutable n_misfetch : int;
}

let translate counters (ev : Emu.Emulator.control) : Uarch.Oracle.ctl_outcome
    =
  match ev with
  | Emu.Emulator.Cond { taken; predicted_taken; _ } ->
    let mispredicted = taken <> predicted_taken in
    counters.n_cond <- counters.n_cond + 1;
    if mispredicted then counters.n_mispred <- counters.n_mispred + 1;
    Uarch.Oracle.cond ~taken ~mispredicted
  | Emu.Emulator.Indirect { target; predicted; _ } ->
    let hit = predicted = Some target in
    counters.n_ind <- counters.n_ind + 1;
    if not hit then counters.n_misfetch <- counters.n_misfetch + 1;
    Uarch.Oracle.C_indirect { target; hit }
  | Emu.Emulator.Halted _ | Emu.Emulator.Wedged _ -> Uarch.Oracle.C_stalled

let live_oracle emu cache counters : Uarch.Oracle.t =
  { cache_load =
      (fun ~now ->
        Cachesim.Hierarchy.load cache ~now
          ~addr:(Emu.Emulator.pop_load_addr emu));
    cache_store =
      (fun ~now ->
        Cachesim.Hierarchy.store cache ~now
          ~addr:(Emu.Emulator.pop_store_addr emu));
    fetch_control =
      (fun () -> translate counters (Emu.Emulator.next_event emu));
    rollback =
      (fun ~index -> ignore (Emu.Emulator.rollback_to emu ~index : int)) }

(* ---------------------------------------------------------------- *)
(* Observability plumbing (docs/OBSERVABILITY.md). Everything below is
   strictly passive: the instrumented oracle and all event emission only
   observe, so simulation results are bit-identical with and without an
   observability context (enforced by the equivalence suite). *)

let prof_enter p ph =
  match p with None -> () | Some p -> Fastsim_obs.Profile.enter p ph

let prof_leave p =
  match p with None -> () | Some p -> Fastsim_obs.Profile.leave p

let emit_opt tr ev =
  match tr with None -> () | Some tr -> Fastsim_obs.Trace.emit tr ev

(* Wraps the live oracle so cache calls are charged to the Cachesim
   profiling phase, direct-execution pulls/rollbacks to the Emulation
   phase, and control outcomes / rollbacks appear as [core] trace events.
   During replay these emissions come from the recorded chains being
   re-performed, which is exactly what makes FastSim observable. *)
let instrument_oracle (obs : Fastsim_obs.Ctx.t option) ~now
    (oracle : Uarch.Oracle.t) : Uarch.Oracle.t =
  match obs with
  | None | Some { Fastsim_obs.Ctx.trace = None; profile = None; _ } -> oracle
  | Some { Fastsim_obs.Ctx.trace; profile; _ } ->
    { cache_load =
        (fun ~now:cyc ->
          prof_enter profile Fastsim_obs.Profile.Cachesim;
          let lat = oracle.Uarch.Oracle.cache_load ~now:cyc in
          prof_leave profile;
          lat);
      cache_store =
        (fun ~now:cyc ->
          prof_enter profile Fastsim_obs.Profile.Cachesim;
          oracle.Uarch.Oracle.cache_store ~now:cyc;
          prof_leave profile);
      fetch_control =
        (fun () ->
          prof_enter profile Fastsim_obs.Profile.Emulation;
          let out = oracle.Uarch.Oracle.fetch_control () in
          prof_leave profile;
          (match trace with
           | None -> ()
           | Some tr ->
             let ts = now () in
             let ev =
               match out with
               | Uarch.Oracle.C_cond { taken; mispredicted } ->
                 Fastsim_obs.Event.instant ~ts ~cat:"core" "cond"
                   ~args:
                     [ ("taken", Fastsim_obs.Json.Bool taken);
                       ("mispredicted", Fastsim_obs.Json.Bool mispredicted) ]
               | Uarch.Oracle.C_indirect { target; hit } ->
                 Fastsim_obs.Event.instant ~ts ~cat:"core" "indirect"
                   ~args:
                     [ ("target", Fastsim_obs.Json.Int target);
                       ("hit", Fastsim_obs.Json.Bool hit) ]
               | Uarch.Oracle.C_stalled ->
                 Fastsim_obs.Event.instant ~ts ~cat:"core" "fetch_stall"
             in
             Fastsim_obs.Trace.emit tr ev);
          out);
      rollback =
        (fun ~index ->
          prof_enter profile Fastsim_obs.Profile.Emulation;
          oracle.Uarch.Oracle.rollback ~index;
          prof_leave profile;
          emit_opt trace
            (Fastsim_obs.Event.instant ~ts:(now ()) ~cat:"core" "rollback"
               ~args:[ ("index", Fastsim_obs.Json.Int index) ])) }

let functional = Emu.Emulator.run_functional

let finish ~cycles ~retired ~classes ~emu ~cache ~counters ~memo ~pcache
    ~truncated =
  { cycles;
    retired;
    retired_by_class = classes;
    emulated_insts = Emu.Emulator.insts_executed emu;
    wrong_path_insts = Emu.Emulator.wrong_path_insts emu;
    branches =
      { conditionals = counters.n_cond;
        mispredicted = counters.n_mispred;
        indirects = counters.n_ind;
        misfetched = counters.n_misfetch };
    cache = Cachesim.Hierarchy.stats cache;
    memo;
    pcache;
    final_state = Emu.Emulator.state emu;
    truncated;
    provenance = None }

let fresh_counters () =
  { n_cond = 0; n_mispred = 0; n_ind = 0; n_misfetch = 0 }

let slow_sim ?params ?cache_config ?(predictor = Standard)
    ?(max_cycles = max_int) ?observer ?obs prog =
  let trace = Fastsim_obs.Ctx.trace obs in
  let metrics = Fastsim_obs.Ctx.metrics obs in
  let profile = Fastsim_obs.Ctx.profile obs in
  let pred = make_predictor ?metrics predictor prog in
  let emu = Emu.Emulator.create ~predictor:pred prog in
  let cache = Cachesim.Hierarchy.create ?config:cache_config ?trace ?metrics () in
  let uarch = Uarch.Detailed.create ?params prog in
  let counters = fresh_counters () in
  let cycle = ref 0 and retired = ref 0 and last_progress = ref 0 in
  let oracle =
    instrument_oracle obs ~now:(fun () -> !cycle)
      (live_oracle emu cache counters)
  in
  let halted = ref false in
  let truncated = ref false in
  emit_opt trace (Fastsim_obs.Event.span_begin ~ts:0 ~cat:"engine" "detailed");
  prof_enter profile Fastsim_obs.Profile.Detailed;
  Fun.protect
    ~finally:(fun () -> prof_leave profile)
    (fun () ->
      while (not !halted) && not !truncated do
        if !cycle >= max_cycles then truncated := true
        else begin
          let r = Uarch.Detailed.step_cycle uarch ~now:!cycle oracle in
          (match observer with
           | Some f -> f !cycle uarch r
           | None -> ());
          incr cycle;
          retired := !retired + r.Uarch.Detailed.retired;
          if r.Uarch.Detailed.retired > 0 then begin
            last_progress := !cycle;
            emit_opt trace
              (Fastsim_obs.Event.counter ~ts:!cycle ~cat:"engine" "retired"
                 !retired)
          end;
          if !cycle - !last_progress > watchdog then
            raise (Deadlock "no retirement progress");
          if r.Uarch.Detailed.halted then halted := true
        end
      done);
  emit_opt trace
    (Fastsim_obs.Event.span_end ~ts:!cycle ~cat:"engine" "detailed"
       ~args:[ ("cycles", Fastsim_obs.Json.Int !cycle) ]);
  finish ~cycles:!cycle ~retired:!retired
    ~classes:(Uarch.Detailed.retired_by_class uarch)
    ~emu ~cache ~counters ~memo:None ~pcache:None ~truncated:!truncated

(* The memoizing engine: run the detailed simulator, recording a group per
   interaction cycle; when a group ends at a configuration that already has
   recorded actions, switch to fast-forwarding; when fast-forwarding meets
   an unseen outcome, resume detailed simulation from the configuration
   with the already-obtained outcomes as a prefix. *)
let fast_sim ?params ?cache_config ?(predictor = Standard)
    ?(max_cycles = max_int) ?(policy = Memo.Pcache.Unbounded) ?pcache ?store
    ?obs prog =
  let trace = Fastsim_obs.Ctx.trace obs in
  let metrics = Fastsim_obs.Ctx.metrics obs in
  let profile = Fastsim_obs.Ctx.profile obs in
  let pred = make_predictor ?metrics predictor prog in
  let emu = Emu.Emulator.create ~predictor:pred prog in
  let cache = Cachesim.Hierarchy.create ?config:cache_config ?trace ?metrics () in
  let counters = fresh_counters () in
  let cycle = ref 0 in
  let oracle =
    instrument_oracle obs ~now:(fun () -> !cycle)
      (live_oracle emu cache counters)
  in
  let pc =
    match pcache with
    | Some pc -> pc
    | None -> Memo.Pcache.create ~policy ?store ()
  in
  if Option.is_some obs then
    Memo.Pcache.attach_obs pc ?trace ?metrics ~now:(fun () -> !cycle) ();
  let mstats = Memo.Stats.create () in
  let total_classes = Array.make Isa.Instr.fu_count 0 in
  let fault_every = Memo.Replay.fault_period () in
  let prefix_mismatch what item =
    raise
      (Memo.Pcache.Determinism_violation
         (Format.asprintf
            "detailed re-run requested a %s but the replay prefix holds %a"
            what Memo.Action.pp_item item))
  in
  (* One detailed episode: from [cfg0] (with [prefix0] outcomes already
     obtained by a diverged replay), record groups until a known
     configuration is reached or the program halts. *)
  let detailed_episode uarch cfg0 prefix0 =
    emit_opt trace
      (Fastsim_obs.Event.span_begin ~ts:!cycle ~cat:"engine" "detailed");
    prof_enter profile Fastsim_obs.Profile.Detailed;
    mstats.Memo.Stats.detailed_entries <-
      mstats.Memo.Stats.detailed_entries + 1;
    let items_rev = ref [] in
    let pending = ref prefix0 in
    let record item = items_rev := item :: !items_rev in
    let wrapped : Uarch.Oracle.t =
      { cache_load =
          (fun ~now ->
            let lat =
              match !pending with
              | Memo.Action.I_load lat :: rest ->
                pending := rest;
                lat
              | [] -> oracle.Uarch.Oracle.cache_load ~now
              | item :: _ -> prefix_mismatch "load" item
            in
            record (Memo.Action.I_load lat);
            lat);
        cache_store =
          (fun ~now ->
            (match !pending with
             | Memo.Action.I_store :: rest -> pending := rest
             | [] -> oracle.Uarch.Oracle.cache_store ~now
             | item :: _ -> prefix_mismatch "store" item);
            record Memo.Action.I_store);
        fetch_control =
          (fun () ->
            let out =
              match !pending with
              | Memo.Action.I_ctl c :: rest ->
                pending := rest;
                c
              | [] -> oracle.Uarch.Oracle.fetch_control ()
              | item :: _ -> prefix_mismatch "fetch_control" item
            in
            record (Memo.Action.I_ctl out);
            out);
        rollback =
          (fun ~index ->
            (match !pending with
             | Memo.Action.I_rollback j :: rest ->
               if j <> index then prefix_mismatch "rollback" (I_rollback j);
               pending := rest
             | [] -> oracle.Uarch.Oracle.rollback ~index
             | item :: _ -> prefix_mismatch "rollback" item);
            record (Memo.Action.I_rollback index)) }
    in
    let cfg = ref cfg0 in
    let silent = ref 0 and group_retired = ref 0 in
    let class_base = ref (Uarch.Detailed.retired_by_class uarch) in
    let group_classes uarch =
      let cur = Uarch.Detailed.retired_by_class uarch in
      let delta = Array.mapi (fun i v -> v - !class_base.(i)) cur in
      Array.iteri
        (fun i v -> total_classes.(i) <- total_classes.(i) + v)
        delta;
      class_base := cur;
      delta
    in
    let last_progress = ref !cycle in
    let result = ref None in
    Fun.protect
      ~finally:(fun () -> prof_leave profile)
      (fun () ->
        while !result = None do
          if !cycle >= max_cycles then begin
            (* Truncated mid-group. Flush the partial group's per-class
               retirement into the totals (the cycles simulated so far are
               real and their statistics must be reported, exactly as the
               slow engine reports them) but do NOT merge the partial group
               into the p-action cache: its silent/retired aggregates
               describe a prefix, and recording them would poison later
               full-length runs. *)
            ignore (group_classes uarch : int array);
            result := Some `Truncated
          end
          else begin
          let r = Uarch.Detailed.step_cycle uarch ~now:!cycle wrapped in
          incr cycle;
          mstats.Memo.Stats.detailed_cycles <-
            mstats.Memo.Stats.detailed_cycles + 1;
          mstats.Memo.Stats.detailed_retired <-
            mstats.Memo.Stats.detailed_retired + r.Uarch.Detailed.retired;
          group_retired := !group_retired + r.Uarch.Detailed.retired;
          if r.Uarch.Detailed.retired > 0 then begin
            last_progress := !cycle;
            emit_opt trace
              (Fastsim_obs.Event.counter ~ts:!cycle ~cat:"engine" "retired"
                 (mstats.Memo.Stats.detailed_retired
                 + mstats.Memo.Stats.replayed_retired))
          end;
          if !cycle - !last_progress > watchdog then
            raise (Deadlock "no retirement progress");
          if r.Uarch.Detailed.halted then begin
            prof_enter profile Fastsim_obs.Profile.Record;
            ignore
              (Memo.Pcache.merge_group pc !cfg ~silent:!silent
                 ~retired:!group_retired
                 ~classes:(group_classes uarch)
                 ~items:(List.rev !items_rev)
                 ~terminal:Memo.Action.T_halt
                : Memo.Action.config option);
            prof_leave profile;
            result := Some `Halted
          end
          else if r.Uarch.Detailed.interactions > 0 then begin
            (* The memo write path, profiled as its own phase. *)
            prof_enter profile Fastsim_obs.Profile.Record;
            (* Hot path: encode the snapshot into the simulator's reusable
               arena and probe the table with its precomputed hash — a warm
               cache resolves the successor without allocating. *)
            let next0 =
              Memo.Pcache.intern_arena pc
                (Uarch.Detailed.snapshot_arena uarch)
            in
            ignore
              (Memo.Pcache.merge_group pc !cfg ~silent:!silent
                 ~retired:!group_retired
                 ~classes:(group_classes uarch)
                 ~items:(List.rev !items_rev)
                 ~terminal:(Memo.Action.T_goto next0)
                : Memo.Action.config option);
            assert (!pending = []);
            items_rev := [];
            silent := 0;
            group_retired := 0;
            let next =
              match Memo.Pcache.check_budget pc with
              | `Kept -> next0
              | `Flushed | `Collected ->
                (* Our configuration nodes may be stale; re-intern by key. *)
                Memo.Pcache.intern pc next0.Memo.Action.cfg_key
            in
            prof_leave profile;
            if next.Memo.Action.cfg_group <> None then
              result := Some (`Replay next)
            else cfg := next
          end
          else incr silent
          end
        done);
    emit_opt trace
      (Fastsim_obs.Event.span_end ~ts:!cycle ~cat:"engine" "detailed"
         ~args:
           [ ( "detailed_cycles",
               Fastsim_obs.Json.Int mstats.Memo.Stats.detailed_cycles ) ]);
    match !result with Some r -> r | None -> assert false
  in
  let uarch0 = Uarch.Detailed.create ?params prog in
  let cfg0 = Memo.Pcache.intern pc (Uarch.Detailed.snapshot uarch0) in
  (* A warm (persisted) cache may already know the initial configuration:
     start fast-forwarding immediately. *)
  let state =
    if cfg0.Memo.Action.cfg_group <> None then ref (`Replay cfg0)
    else ref (`Detailed (uarch0, cfg0, []))
  in
  let halted = ref false in
  let truncated = ref false in
  Fun.protect
    ~finally:(fun () -> if Option.is_some obs then Memo.Pcache.detach_obs pc)
    (fun () ->
      while (not !halted) && not !truncated do
        match !state with
        | `Detailed (uarch, cfg, prefix) -> (
          match detailed_episode uarch cfg prefix with
          | `Halted -> halted := true
          | `Truncated -> truncated := true
          | `Replay cfg' -> state := `Replay cfg')
        | `Replay cfg ->
          prof_enter profile Fastsim_obs.Profile.Replay;
          let r =
            Fun.protect
              ~finally:(fun () -> prof_leave profile)
              (fun () ->
                Memo.Replay.run ~max_cycles ?trace ?metrics ~fault_every pc
                  mstats ~oracle ~cycle ~classes:total_classes ~start:cfg)
          in
          (match r with
           | Memo.Replay.Replay_halted -> halted := true
           | Memo.Replay.Replay_budget config ->
             (* The budget falls inside this configuration's group: replay
                hands it back untouched and the detailed simulator runs the
                truncated tail, stopping exactly at [max_cycles] with exact
                partial statistics — so Fast ≡ Slow at every truncation
                point. *)
             let uarch =
               Uarch.Detailed.restore ?params ~from:uarch0 prog
                 config.Memo.Action.cfg_key
             in
             state := `Detailed (uarch, config, [])
           | Memo.Replay.Diverged { config; prefix } ->
             let uarch =
               Uarch.Detailed.restore ?params ~from:uarch0 prog
                 config.Memo.Action.cfg_key
             in
             state := `Detailed (uarch, config, prefix))
      done);
  let retired =
    mstats.Memo.Stats.detailed_retired + mstats.Memo.Stats.replayed_retired
  in
  finish ~cycles:!cycle ~retired ~classes:total_classes ~emu ~cache
    ~counters ~memo:(Some mstats)
    ~pcache:(Some (Memo.Pcache.counters pc))
    ~truncated:!truncated

(* ================================================================== *)
(* Strategy engines (docs/STRATEGY.md): time-parallel interval
   simulation and SMARTS-style sampling layered over the serial engines.

   The parallel engine is speculative-but-exact: workers cold-start at a
   functional checkpoint a warmup distance before their interval, and the
   stitcher accepts a worker's steady-state stats only when the worker's
   machine state at the interval boundary is byte-identical (in a
   canonical normal form) to the exact boundary state carried along from
   the previous interval. Any mismatch is repaired by re-simulating that
   interval serially from the exact boundary, so the stitched result is
   bit-identical to the serial run by induction — the worst case
   degenerates to the serial run, never to a wrong answer.

   Strategy runs do not support [Spec.obs]/[Spec.observer] (segments run
   without instrumentation) and report [memo = None]/[pcache = None]
   (per-worker memoization statistics are not meaningfully stitchable). *)

let strategy_to_string = function
  | Serial -> "serial"
  | Parallel { interval_insns; warmup_insns; _ } ->
    Printf.sprintf "parallel:%d:%d" interval_insns warmup_insns
  | Sampled { sample_insns; sample_period; warmup_insns } ->
    Printf.sprintf "sampled:%d:%d:%d" sample_insns sample_period warmup_insns

let strategy_of_string s =
  let num what v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "bad %s %S in strategy %S" what v s)
  in
  match String.split_on_char ':' s with
  | [ "serial" ] -> Ok Serial
  | [ "parallel"; k; w ] ->
    Result.bind (num "interval" k) (fun interval_insns ->
        Result.map
          (fun warmup_insns ->
            Parallel { interval_insns; warmup_insns; fanout = None })
          (num "warmup" w))
  | [ "sampled"; l; p; w ] ->
    Result.bind (num "sample length" l) (fun sample_insns ->
        Result.bind (num "period" p) (fun sample_period ->
            Result.map
              (fun warmup_insns ->
                Sampled { sample_insns; sample_period; warmup_insns })
              (num "warmup" w)))
  | _ ->
    Error
      (Printf.sprintf
         "bad strategy %S (want serial, parallel:INSNS:WARMUP or \
          sampled:INSNS:PERIOD:WARMUP)" s)

let make_handle kind prog =
  match kind with
  | Standard -> Bpred.standard_handle ~prog ()
  | Not_taken -> Bpred.not_taken_handle ()
  | Taken -> Bpred.taken_handle ()

(* Absolute statistic totals at one instant of one simulation rig. Frames
   (per-interval deltas) reuse the same record; they telescope, so
   stitching sums of exact deltas onto the exact initial totals yields
   exactly the serial run's totals. *)
type abs_totals = {
  a_cycles : int;
  a_retired : int;
  a_classes : int array;
  a_emulated : int;
  a_wrong_path : int;
  a_cond : int;
  a_mispred : int;
  a_ind : int;
  a_misfetch : int;
  a_cache : Cachesim.Hierarchy.stats;
}

let cache_sub (b : Cachesim.Hierarchy.stats) (a : Cachesim.Hierarchy.stats) :
    Cachesim.Hierarchy.stats =
  { loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    l1_hits = b.l1_hits - a.l1_hits;
    l1_misses = b.l1_misses - a.l1_misses;
    l2_hits = b.l2_hits - a.l2_hits;
    l2_misses = b.l2_misses - a.l2_misses;
    writebacks = b.writebacks - a.writebacks;
    merged_misses = b.merged_misses - a.merged_misses }

let cache_add (a : Cachesim.Hierarchy.stats) (d : Cachesim.Hierarchy.stats) :
    Cachesim.Hierarchy.stats =
  { loads = a.loads + d.loads;
    stores = a.stores + d.stores;
    l1_hits = a.l1_hits + d.l1_hits;
    l1_misses = a.l1_misses + d.l1_misses;
    l2_hits = a.l2_hits + d.l2_hits;
    l2_misses = a.l2_misses + d.l2_misses;
    writebacks = a.writebacks + d.writebacks;
    merged_misses = a.merged_misses + d.merged_misses }

let abs_sub b a =
  { a_cycles = b.a_cycles - a.a_cycles;
    a_retired = b.a_retired - a.a_retired;
    a_classes = Array.mapi (fun i v -> v - a.a_classes.(i)) b.a_classes;
    a_emulated = b.a_emulated - a.a_emulated;
    a_wrong_path = b.a_wrong_path - a.a_wrong_path;
    a_cond = b.a_cond - a.a_cond;
    a_mispred = b.a_mispred - a.a_mispred;
    a_ind = b.a_ind - a.a_ind;
    a_misfetch = b.a_misfetch - a.a_misfetch;
    a_cache = cache_sub b.a_cache a.a_cache }

let abs_add a d =
  { a_cycles = a.a_cycles + d.a_cycles;
    a_retired = a.a_retired + d.a_retired;
    a_classes = Array.mapi (fun i v -> v + d.a_classes.(i)) a.a_classes;
    a_emulated = a.a_emulated + d.a_emulated;
    a_wrong_path = a.a_wrong_path + d.a_wrong_path;
    a_cond = a.a_cond + d.a_cond;
    a_mispred = a.a_mispred + d.a_mispred;
    a_ind = a.a_ind + d.a_ind;
    a_misfetch = a.a_misfetch + d.a_misfetch;
    a_cache = cache_add a.a_cache d.a_cache }

(* Complete machine state at an interval boundary: restorable (for serial
   repair) and canonically comparable (for acceptance). [m_prefix] carries
   replay-divergence outcomes already pulled from the live oracle but not
   yet consumed by the detailed simulator (fast engine only); it is
   behavioural state and participates in the canonical form, as does the
   boundary overshoot (how far past the retirement target the crossing
   cycle ran) because it fixes how statistics partition at the boundary. *)
type machine = {
  m_pipe : Uarch.Snapshot.key;
  m_emu : Emu.Emulator.Capture.t;
  m_pred : Bpred.state;
  m_cache : Cachesim.Hierarchy.state;
  m_prefix : Memo.Action.item list;
  m_overshoot : int;
}

let machine_canonical (m : machine) : string =
  Marshal.to_string
    ( m.m_pipe,
      Emu.Emulator.Capture.canonical m.m_emu,
      m.m_pred,
      Cachesim.Hierarchy.state_canonical m.m_cache,
      m.m_prefix,
      m.m_overshoot )
    [ Marshal.No_sharing ]

(* A simulation rig: the live components one segment runs on. The cycle
   counter is local to the rig; all cross-boundary time state is relative
   (see Cachesim.Hierarchy.capture), so segments stitch regardless of
   where each rig's clock started. *)
type rig = {
  r_emu : Emu.Emulator.t;
  r_cache : Cachesim.Hierarchy.t;
  r_handle : Bpred.handle;
  r_counters : branch_counters;
  r_cycle : int ref;
  r_oracle : Uarch.Oracle.t;
}

let make_rig ~cache_config ~handle emu =
  let cache = Cachesim.Hierarchy.create ~config:cache_config () in
  let counters = fresh_counters () in
  { r_emu = emu;
    r_cache = cache;
    r_handle = handle;
    r_counters = counters;
    r_cycle = ref 0;
    r_oracle = live_oracle emu cache counters }

let rig_fresh ~cache_config ~predictor prog =
  let h = make_handle predictor prog in
  make_rig ~cache_config ~handle:h
    (Emu.Emulator.create ~predictor:h.Bpred.h_pred prog)

let rig_at ~cache_config ~predictor prog (ck : Emu.Emulator.functional_ck) =
  let h = make_handle predictor prog in
  let emu =
    Emu.Emulator.create_at ~predictor:h.Bpred.h_pred prog
      ~state:ck.Emu.Emulator.f_state
      ~mem:(Emu.Memory.copy ck.Emu.Emulator.f_mem)
      ~insts:ck.Emu.Emulator.f_insts
  in
  make_rig ~cache_config ~handle:h emu

let rig_restore ~cache_config ~predictor prog (m : machine) =
  let h = make_handle predictor prog in
  h.Bpred.h_load m.m_pred;
  let emu = Emu.Emulator.restore ~predictor:h.Bpred.h_pred prog m.m_emu in
  let rig = make_rig ~cache_config ~handle:h emu in
  Cachesim.Hierarchy.restore rig.r_cache ~now:0 m.m_cache;
  rig

let capture_machine rig uarch ~prefix ~overshoot =
  { m_pipe = Uarch.Detailed.snapshot uarch;
    m_emu = Emu.Emulator.capture rig.r_emu;
    m_pred = rig.r_handle.Bpred.h_save ();
    m_cache = Cachesim.Hierarchy.capture rig.r_cache ~now:!(rig.r_cycle);
    m_prefix = prefix;
    m_overshoot = overshoot }

let abs_now rig ~retired ~classes =
  { a_cycles = !(rig.r_cycle);
    a_retired = retired;
    a_classes = classes;
    a_emulated = Emu.Emulator.insts_executed rig.r_emu;
    a_wrong_path = Emu.Emulator.wrong_path_insts rig.r_emu;
    a_cond = rig.r_counters.n_cond;
    a_mispred = rig.r_counters.n_mispred;
    a_ind = rig.r_counters.n_ind;
    a_misfetch = rig.r_counters.n_misfetch;
    a_cache = Cachesim.Hierarchy.stats rig.r_cache }

(* One segment run: simulate on [rig] until every retirement mark in
   [marks] (ascending, in the rig's local retirement count) has been
   captured, the cycle [budget] (local) is hit, or the program halts.
   Marks are captured at the end of the first cycle where the local
   retired count reaches the mark — checked at the loop top, so a halt
   cycle that crosses the final mark still captures it. *)
type seg_out = {
  so_caps : (machine * abs_totals) array;
  so_end : [ `Done | `Halted | `Truncated ];
  so_final : abs_totals;
}

let slow_segment rig uarch ~budget ~marks : seg_out =
  let nmarks = Array.length marks in
  let caps = ref [] in
  let mi = ref 0 in
  let retired = ref 0 in
  let halted = ref false in
  let last_progress = ref !(rig.r_cycle) in
  let stop = ref None in
  while !stop = None do
    if !mi < nmarks && !retired >= marks.(!mi) then begin
      let m =
        capture_machine rig uarch ~prefix:[]
          ~overshoot:(!retired - marks.(!mi))
      in
      let a =
        abs_now rig ~retired:!retired
          ~classes:(Uarch.Detailed.retired_by_class uarch)
      in
      caps := (m, a) :: !caps;
      incr mi
    end
    else if !mi >= nmarks then stop := Some `Done
    else if !halted then stop := Some `Halted
    else if !(rig.r_cycle) >= budget then stop := Some `Truncated
    else begin
      let r = Uarch.Detailed.step_cycle uarch ~now:!(rig.r_cycle) rig.r_oracle in
      incr rig.r_cycle;
      retired := !retired + r.Uarch.Detailed.retired;
      if r.Uarch.Detailed.retired > 0 then last_progress := !(rig.r_cycle);
      if !(rig.r_cycle) - !last_progress > watchdog then
        raise (Deadlock "no retirement progress");
      if r.Uarch.Detailed.halted then halted := true
    end
  done;
  { so_caps = Array.of_list (List.rev !caps);
    so_end = (match !stop with Some s -> s | None -> assert false);
    so_final =
      abs_now rig ~retired:!retired
        ~classes:(Uarch.Detailed.retired_by_class uarch) }

(* Memoizing segment runner: the fast engine restructured around
   retirement marks. Replay is bounded by [max_retired] so it stops
   before any group that would cross the next mark; the detailed
   simulator then steps cycle-by-cycle to the exact crossing. Captures
   mid-group flush nothing into the p-action cache (the group continues
   and merges normally later); the captured statistics peek at the live
   per-class deltas without disturbing group accounting. *)
let fast_segment ~params rig pc ~uarch0 ~cfg0 ~prefix0 ~budget ~marks prog :
    seg_out =
  let nmarks = Array.length marks in
  let caps = ref [] in
  let mi = ref 0 in
  let mstats = Memo.Stats.create () in
  let total_classes = Array.make Isa.Instr.fu_count 0 in
  let retired_now () =
    mstats.Memo.Stats.detailed_retired + mstats.Memo.Stats.replayed_retired
  in
  let oracle = rig.r_oracle and cycle = rig.r_cycle in
  let fault_every = Memo.Replay.fault_period () in
  let prefix_mismatch what item =
    raise
      (Memo.Pcache.Determinism_violation
         (Format.asprintf
            "detailed re-run requested a %s but the replay prefix holds %a"
            what Memo.Action.pp_item item))
  in
  let detailed_episode uarch cfg0 prefix0 =
    mstats.Memo.Stats.detailed_entries <-
      mstats.Memo.Stats.detailed_entries + 1;
    let items_rev = ref [] in
    let pending = ref prefix0 in
    let record item = items_rev := item :: !items_rev in
    let wrapped : Uarch.Oracle.t =
      { cache_load =
          (fun ~now ->
            let lat =
              match !pending with
              | Memo.Action.I_load lat :: rest ->
                pending := rest;
                lat
              | [] -> oracle.Uarch.Oracle.cache_load ~now
              | item :: _ -> prefix_mismatch "load" item
            in
            record (Memo.Action.I_load lat);
            lat);
        cache_store =
          (fun ~now ->
            (match !pending with
             | Memo.Action.I_store :: rest -> pending := rest
             | [] -> oracle.Uarch.Oracle.cache_store ~now
             | item :: _ -> prefix_mismatch "store" item);
            record Memo.Action.I_store);
        fetch_control =
          (fun () ->
            let out =
              match !pending with
              | Memo.Action.I_ctl c :: rest ->
                pending := rest;
                c
              | [] -> oracle.Uarch.Oracle.fetch_control ()
              | item :: _ -> prefix_mismatch "fetch_control" item
            in
            record (Memo.Action.I_ctl out);
            out);
        rollback =
          (fun ~index ->
            (match !pending with
             | Memo.Action.I_rollback j :: rest ->
               if j <> index then prefix_mismatch "rollback" (I_rollback j);
               pending := rest
             | [] -> oracle.Uarch.Oracle.rollback ~index
             | item :: _ -> prefix_mismatch "rollback" item);
            record (Memo.Action.I_rollback index)) }
    in
    let cfg = ref cfg0 in
    let silent = ref 0 and group_retired = ref 0 in
    let class_base = ref (Uarch.Detailed.retired_by_class uarch) in
    let group_classes uarch =
      let cur = Uarch.Detailed.retired_by_class uarch in
      let delta = Array.mapi (fun i v -> v - !class_base.(i)) cur in
      Array.iteri
        (fun i v -> total_classes.(i) <- total_classes.(i) + v)
        delta;
      class_base := cur;
      delta
    in
    (* Per-class totals through the current cycle, including the open
       group's partial retirement, WITHOUT flushing it (a flushed base
       would make the eventual merge_group record wrong class counts). *)
    let live_classes () =
      let cur = Uarch.Detailed.retired_by_class uarch in
      Array.mapi (fun i c -> total_classes.(i) + c - !class_base.(i)) cur
    in
    let last_progress = ref !cycle in
    let result = ref None in
    while !result = None do
      if !mi < nmarks && retired_now () >= marks.(!mi) then begin
        let m =
          capture_machine rig uarch ~prefix:!pending
            ~overshoot:(retired_now () - marks.(!mi))
        in
        let a =
          abs_now rig ~retired:(retired_now ()) ~classes:(live_classes ())
        in
        caps := (m, a) :: !caps;
        incr mi
      end
      else if !mi >= nmarks then result := Some `Done
      else if !cycle >= budget then begin
        (* Truncated mid-group: flush the partial group's per-class
           retirement into the totals but never merge the partial group
           (same contract as the serial fast engine). *)
        ignore (group_classes uarch : int array);
        result := Some `Truncated
      end
      else begin
        let r = Uarch.Detailed.step_cycle uarch ~now:!cycle wrapped in
        incr cycle;
        mstats.Memo.Stats.detailed_cycles <-
          mstats.Memo.Stats.detailed_cycles + 1;
        mstats.Memo.Stats.detailed_retired <-
          mstats.Memo.Stats.detailed_retired + r.Uarch.Detailed.retired;
        group_retired := !group_retired + r.Uarch.Detailed.retired;
        if r.Uarch.Detailed.retired > 0 then last_progress := !cycle;
        if !cycle - !last_progress > watchdog then
          raise (Deadlock "no retirement progress");
        if r.Uarch.Detailed.halted then begin
          ignore
            (Memo.Pcache.merge_group pc !cfg ~silent:!silent
               ~retired:!group_retired
               ~classes:(group_classes uarch)
               ~items:(List.rev !items_rev)
               ~terminal:Memo.Action.T_halt
              : Memo.Action.config option);
          result := Some `Halted
        end
        else if r.Uarch.Detailed.interactions > 0 then begin
          let next0 =
            Memo.Pcache.intern_arena pc (Uarch.Detailed.snapshot_arena uarch)
          in
          ignore
            (Memo.Pcache.merge_group pc !cfg ~silent:!silent
               ~retired:!group_retired
               ~classes:(group_classes uarch)
               ~items:(List.rev !items_rev)
               ~terminal:(Memo.Action.T_goto next0)
              : Memo.Action.config option);
          assert (!pending = []);
          items_rev := [];
          silent := 0;
          group_retired := 0;
          let next =
            match Memo.Pcache.check_budget pc with
            | `Kept -> next0
            | `Flushed | `Collected ->
              Memo.Pcache.intern pc next0.Memo.Action.cfg_key
          in
          if next.Memo.Action.cfg_group <> None then
            result := Some (`Replay next)
          else cfg := next
        end
        else incr silent
      end
    done;
    match !result with Some r -> r | None -> assert false
  in
  let state =
    if prefix0 = [] && cfg0.Memo.Action.cfg_group <> None then
      ref (`Replay cfg0)
    else ref (`Detailed (uarch0, cfg0, prefix0))
  in
  let finish = ref None in
  while !finish = None do
    match !state with
    | `Detailed (uarch, cfg, prefix) -> (
      match detailed_episode uarch cfg prefix with
      | `Done -> finish := Some `Done
      | `Truncated -> finish := Some `Truncated
      | `Halted ->
        (* Serve marks crossed by the halt cycle (the episode exits before
           its next loop-top check). All groups are flushed at a halt, so
           the totals are current. *)
        while !mi < nmarks && retired_now () >= marks.(!mi) do
          let m =
            capture_machine rig uarch ~prefix:[]
              ~overshoot:(retired_now () - marks.(!mi))
          in
          let a =
            abs_now rig ~retired:(retired_now ())
              ~classes:(Array.copy total_classes)
          in
          caps := (m, a) :: !caps;
          incr mi
        done;
        finish := Some (if !mi >= nmarks then `Done else `Halted)
      | `Replay cfg' -> state := `Replay cfg')
    | `Replay cfg ->
      if !mi >= nmarks then finish := Some `Done
      else begin
        let max_retired = marks.(!mi) - retired_now () in
        match
          Memo.Replay.run ~max_cycles:budget ~max_retired ~fault_every pc
            mstats ~oracle ~cycle ~classes:total_classes ~start:cfg
        with
        | Memo.Replay.Replay_halted ->
          (* Marks remain but the chain halted: only reachable when a mark
             exceeds the program's total retirement. Report short. *)
          finish := Some `Halted
        | Memo.Replay.Replay_budget config ->
          let uarch =
            Uarch.Detailed.restore ~params ~from:uarch0 prog
              config.Memo.Action.cfg_key
          in
          state := `Detailed (uarch, config, [])
        | Memo.Replay.Diverged { config; prefix } ->
          let uarch =
            Uarch.Detailed.restore ~params ~from:uarch0 prog
              config.Memo.Action.cfg_key
          in
          state := `Detailed (uarch, config, prefix)
      end
  done;
  let so_end = match !finish with Some s -> s | None -> assert false in
  let so_final =
    match (so_end, !caps) with
    | `Done, (_, a) :: _ -> a
    | _ ->
      abs_now rig ~retired:(retired_now ()) ~classes:(Array.copy total_classes)
  in
  { so_caps = Array.of_list (List.rev !caps); so_end; so_final }

type seg_start =
  | Start_cold
  | Start_at of Emu.Emulator.functional_ck
  | Start_warm of Emu.Emulator.functional_ck * Bpred.state * Cachesim.Hierarchy.state
      (** functional checkpoint plus functionally-warmed predictor and
          cache states (sampled engine, docs/STRATEGY.md). *)
  | Start_machine of machine

(* Builds a rig for [start] and runs one segment on it. Returns the
   absolute totals at the start instant (for delta framing), the segment
   outcome, and the rig (for the architectural state at a truncation). *)
let run_segment ~engine ~params ~cache_config ~predictor ~policy ?store
    ~pcache prog
    start ~budget ~marks : abs_totals * seg_out * rig =
  let rig, uarch, prefix =
    match start with
    | Start_cold ->
      (rig_fresh ~cache_config ~predictor prog,
       Uarch.Detailed.create ~params prog,
       [])
    | Start_at ck ->
      (rig_at ~cache_config ~predictor prog ck,
       Uarch.Detailed.create_at ~params prog
         ~pc:ck.Emu.Emulator.f_state.Emu.Arch_state.pc,
       [])
    | Start_warm (ck, pred, cache) ->
      (* Load the warmed predictor tables BEFORE building the emulator:
         its read-ahead produces (and trains on) the first control event
         at construction time, which must see the warm state. *)
      let h = make_handle predictor prog in
      h.Bpred.h_load pred;
      let emu =
        Emu.Emulator.create_at ~predictor:h.Bpred.h_pred prog
          ~state:ck.Emu.Emulator.f_state
          ~mem:(Emu.Memory.copy ck.Emu.Emulator.f_mem)
          ~insts:ck.Emu.Emulator.f_insts
      in
      let rig = make_rig ~cache_config ~handle:h emu in
      Cachesim.Hierarchy.restore rig.r_cache ~now:0 cache;
      (rig,
       Uarch.Detailed.create_at ~params prog
         ~pc:ck.Emu.Emulator.f_state.Emu.Arch_state.pc,
       [])
    | Start_machine m ->
      (rig_restore ~cache_config ~predictor prog m,
       Uarch.Detailed.restore ~params prog m.m_pipe,
       m.m_prefix)
  in
  let abs0 =
    abs_now rig ~retired:0 ~classes:(Array.make Isa.Instr.fu_count 0)
  in
  let out =
    match engine with
    | `Slow ->
      assert (prefix = []);
      slow_segment rig uarch ~budget ~marks
    | `Fast ->
      let pc =
        match pcache with
        | Some pc -> pc
        | None -> Memo.Pcache.create ~policy ?store ()
      in
      let cfg0 = Memo.Pcache.intern pc (Uarch.Detailed.snapshot uarch) in
      fast_segment ~params rig pc ~uarch0:uarch ~cfg0 ~prefix0:prefix ~budget
        ~marks prog
  in
  (abs0, out, rig)

let max_parallel_intervals = 4096
let functional_insn_cap = 200_000_000

let no_provenance ~strategy reason =
  { prov_strategy = strategy;
    prov_intervals = 0;
    prov_accepted = 0;
    prov_repaired = 0;
    prov_fallback = Some reason;
    prov_errors = [] }

(* ---- interval-parallel engine -------------------------------------- *)

let run_parallel ~engine ~params ~cache_config ~predictor ~max_cycles ~policy
    ?store ~pcache ~serial prog ~interval_insns ~warmup_insns ~fanout =
  if interval_insns <= 0 then
    invalid_arg "Sim.run: interval_insns must be positive";
  if warmup_insns < 0 then
    invalid_arg "Sim.run: warmup_insns must be non-negative";
  let fb reason =
    let r : result = serial () in
    { r with provenance = Some (no_provenance ~strategy:"parallel" reason) }
  in
  let insn_cap =
    if max_cycles >= 100_000_000 then functional_insn_cap
    else (max_cycles * max 1 params.Uarch.Params.retire_width) + 64
  in
  let _, _, total_insts, halted_f =
    Emu.Emulator.run_functional_checkpoints ~max_insts:insn_cap prog ~at:[]
  in
  if not halted_f then fb "functional-overrun"
  else begin
    let total_retired = total_insts + 1 in
    if total_retired <= interval_insns then fb "single-interval"
    else begin
      let k =
        let n0 = (total_retired + interval_insns - 1) / interval_insns in
        if n0 <= max_parallel_intervals then interval_insns
        else (total_retired + max_parallel_intervals - 1)
             / max_parallel_intervals
      in
      let n = (total_retired + k - 1) / k in
      let bound i = if i >= n then total_retired else min (i * k) total_retired in
      let warm_start i = max 0 (bound i - warmup_insns) in
      let starts = List.init (n - 1) (fun j -> warm_start (j + 1)) in
      let cks, _, _, _ =
        Emu.Emulator.run_functional_checkpoints ~max_insts:insn_cap prog
          ~at:starts
      in
      let ck_at insts =
        List.find
          (fun c -> c.Emu.Emulator.f_insts = insts)
          cks
      in
      let fan = match fanout with Some f -> f | None -> inline_fanout in
      let worker_pcache =
        match (fan.f_pcache_mode, pcache) with
        | `Inherit, (Some _ as pc) -> pc
        | _ -> None
      in
      let worker i : seg_out =
        let start, s =
          if i = 0 then (Start_cold, 0)
          else
            let s = warm_start i in
            (Start_at (ck_at s), s)
        in
        let marks = [| bound i - s; bound (i + 1) - s |] in
        let _, out, _ =
          run_segment ~engine ~params ~cache_config ~predictor ~policy
            ?store ~pcache:worker_pcache prog start ~budget:max_int ~marks
        in
        out
      in
      let results = fan.f_map worker n in
      (* ---- stitch ---------------------------------------------------- *)
      let init_machine, init_abs =
        let rig = rig_fresh ~cache_config ~predictor prog in
        let uarch = Uarch.Detailed.create ~params prog in
        ( capture_machine rig uarch ~prefix:[] ~overshoot:0,
          abs_now rig ~retired:0 ~classes:(Array.make Isa.Instr.fu_count 0) )
      in
      let boundary = ref init_machine in
      let cum = ref init_abs in
      let accepted = ref 0 and repaired = ref 0 in
      let truncated = ref false in
      let stopped = ref false in
      let final_override = ref None in
      (* Repairs share one warm p-action cache (fast engine). *)
      let repair_pc =
        lazy
          (match pcache with
           | Some pc -> pc
           | None -> Memo.Pcache.create ~policy ?store ())
      in
      let repair i =
        let c = !cum in
        let budget =
          if max_cycles = max_int then max_int else max_cycles - c.a_cycles
        in
        let mark = max 0 (bound (i + 1) - c.a_retired) in
        let seg_pc =
          match engine with `Fast -> Some (Lazy.force repair_pc) | `Slow -> None
        in
        let abs0, out, rig =
          run_segment ~engine ~params ~cache_config ~predictor ~policy
            ?store ~pcache:seg_pc prog (Start_machine !boundary) ~budget
            ~marks:[| mark |]
        in
        incr repaired;
        match (out.so_end, out.so_caps) with
        | `Done, [| (m, a) |] ->
          cum := abs_add c (abs_sub a abs0);
          boundary := m
        | `Truncated, _ ->
          cum := abs_add c (abs_sub out.so_final abs0);
          truncated := true;
          stopped := true;
          final_override :=
            Some (Emu.Arch_state.snapshot (Emu.Emulator.state rig.r_emu))
        | _ ->
          (* Halted before the repair mark: the functional instruction
             count and the timing engines disagree — impossible unless a
             component is broken. Stop with what we have so the
             differential harness reports the divergence loudly. *)
          cum := abs_add c (abs_sub out.so_final abs0);
          stopped := true;
          final_override :=
            Some (Emu.Arch_state.snapshot (Emu.Emulator.state rig.r_emu))
      in
      let i = ref 0 in
      while (not !stopped) && !i < n do
        let c = !cum in
        if max_cycles <> max_int && c.a_cycles >= max_cycles then begin
          truncated := true;
          stopped := true
        end
        else begin
          let acceptable =
            match results.(!i) with
            | Some w when w.so_end = `Done && Array.length w.so_caps = 2 ->
              let ms, _ = w.so_caps.(0) in
              if
                String.equal (machine_canonical ms)
                  (machine_canonical !boundary)
              then Some w
              else None
            | _ -> None
          in
          (match acceptable with
           | Some w ->
             let _, a0 = w.so_caps.(0) in
             let m1, a1 = w.so_caps.(1) in
             let fr = abs_sub a1 a0 in
             if max_cycles <> max_int && c.a_cycles + fr.a_cycles > max_cycles
             then repair !i
             else begin
               cum := abs_add c fr;
               boundary := m1;
               incr accepted
             end
           | None -> repair !i);
          incr i
        end
      done;
      let c = !cum in
      let final_state =
        match !final_override with
        | Some st -> st
        | None -> (!boundary).m_emu.Emu.Emulator.Capture.c_state
      in
      { cycles = c.a_cycles;
        retired = c.a_retired;
        retired_by_class = c.a_classes;
        emulated_insts = c.a_emulated;
        wrong_path_insts = c.a_wrong_path;
        branches =
          { conditionals = c.a_cond;
            mispredicted = c.a_mispred;
            indirects = c.a_ind;
            misfetched = c.a_misfetch };
        cache = c.a_cache;
        memo = None;
        pcache = None;
        final_state;
        truncated = !truncated;
        provenance =
          Some
            { prov_strategy = "parallel";
              prov_intervals = n;
              prov_accepted = !accepted;
              prov_repaired = !repaired;
              prov_fallback = None;
              prov_errors = [] } }
    end
  end

(* ---- sampled engine ------------------------------------------------- *)

let max_samples = 512

let run_sampled ~engine ~params ~cache_config ~predictor ~max_cycles ~policy
    ?store ~pcache ~serial prog ~sample_insns ~sample_period ~warmup_insns =
  if sample_insns <= 0 then
    invalid_arg "Sim.run: sample_insns must be positive";
  if warmup_insns < 0 then
    invalid_arg "Sim.run: warmup_insns must be non-negative";
  let fb reason =
    let r : result = serial () in
    { r with provenance = Some (no_provenance ~strategy:"sampled" reason) }
  in
  if max_cycles <> max_int then fb "max-cycles"
  else begin
    let period = max sample_period (warmup_insns + sample_insns) in
    let classes = Array.make Isa.Instr.fu_count 0 in
    let count_class ~pc =
      match Isa.Program.fetch_opt prog pc with
      | Some ins ->
        let i = Isa.Instr.fu_index (Isa.Instr.fu_class ins) in
        classes.(i) <- classes.(i) + 1
      | None -> ()
    in
    let _, final_state, total_insts, halted_f =
      Emu.Emulator.run_functional_checkpoints ~max_insts:functional_insn_cap
        ~on_inst:count_class prog ~at:[]
    in
    if not halted_f then fb "functional-overrun"
    else begin
      let total_retired = total_insts + 1 in
      let all_windows =
        let rec go j acc =
          let u = j * period in
          if u + warmup_insns + sample_insns <= total_retired then
            go (j + 1) (u :: acc)
          else List.rev acc
        in
        go 0 []
      in
      if all_windows = [] then fb "program-too-short"
      else begin
        let windows =
          let total = List.length all_windows in
          if total <= max_samples then all_windows
          else
            let stride = (total + max_samples - 1) / max_samples in
            List.filteri (fun j _ -> j mod stride = 0) all_windows
        in
        (* Functional warming pass (the SMARTS insight): while
           fast-forwarding between samples, keep a cache model and a
           branch predictor trained on the architectural stream, and
           photograph both at each window start. Without this, every
           window starts cache-cold and over-estimates cycles by tens of
           percent; with it, the short detailed warmup only has to fill
           the pipeline. Warming pseudo-time advances one tick per
           instruction so in-flight miss state ages realistically; the
           capture slack lets every fill land before the state is
           photographed. *)
        let warm_handle = make_handle predictor prog in
        let warm_cache = Cachesim.Hierarchy.create ~config:cache_config () in
        let tick = ref 0 in
        let hooks =
          { Emu.Emulator.wh_load =
              (fun ~addr ~width:_ ->
                ignore
                  (Cachesim.Hierarchy.load warm_cache ~now:!tick ~addr : int));
            wh_store =
              (fun ~addr ~width:_ ->
                Cachesim.Hierarchy.store warm_cache ~now:!tick ~addr);
            wh_cond =
              (fun ~pc ~taken ->
                ignore
                  (warm_handle.Bpred.h_pred.Emu.Predictor.predict_cond ~pc
                    : bool);
                warm_handle.Bpred.h_pred.Emu.Predictor.train_cond ~pc ~taken);
            wh_indirect =
              (fun ~pc ~target ->
                ignore
                  (warm_handle.Bpred.h_pred.Emu.Predictor.predict_indirect ~pc
                    : int option);
                warm_handle.Bpred.h_pred.Emu.Predictor.train_indirect ~pc
                  ~target);
            wh_call =
              (fun ~pc ~return_to ->
                warm_handle.Bpred.h_pred.Emu.Predictor.note_call ~pc
                  ~return_to) }
        in
        let wstates = ref [] in
        let next_windows = ref windows in
        let executed = ref 0 in
        let on_inst ~pc:_ =
          (match !next_windows with
          | u :: rest when !executed >= u ->
            next_windows := rest;
            wstates :=
              ( u,
                warm_handle.Bpred.h_save (),
                Cachesim.Hierarchy.capture warm_cache ~now:(!tick + 100_000) )
              :: !wstates
          | _ -> ());
          incr executed;
          incr tick
        in
        let cks, _, _, _ =
          Emu.Emulator.run_functional_checkpoints
            ~max_insts:functional_insn_cap ~on_inst ~hooks prog ~at:windows
        in
        let seg_pc =
          match engine with
          | `Fast -> (
            match pcache with
            | Some _ as pc -> pc
            | None -> Some (Memo.Pcache.create ~policy ?store ()))
          | `Slow -> None
        in
        let frames =
          List.filter_map
            (fun u ->
              match
                ( List.find_opt (fun c -> c.Emu.Emulator.f_insts = u) cks,
                  List.find_opt (fun (v, _, _) -> v = u) !wstates )
              with
              | Some ck, Some (_, pred, cache) -> (
                let marks =
                  [| warmup_insns; warmup_insns + sample_insns |]
                in
                let _, out, _ =
                  run_segment ~engine ~params ~cache_config ~predictor
                    ~policy ?store ~pcache:seg_pc prog
                    (Start_warm (ck, pred, cache))
                    ~budget:max_int ~marks
                in
                match (out.so_end, out.so_caps) with
                | `Done, [| (_, a0); (_, a1) |] -> Some (abs_sub a1 a0)
                | _ -> None)
              | _ -> None)
            windows
        in
        let n = List.length frames in
        let sum f = List.fold_left (fun s fr -> s + f fr) 0 frames in
        let measured_retired = sum (fun fr -> fr.a_retired) in
        if n = 0 || measured_retired = 0 then fb "no-samples"
        else begin
          let scale = float_of_int total_retired /. float_of_int measured_retired in
          let est v = int_of_float (Float.round (scale *. float_of_int v)) in
          let est_of f = est (sum f) in
          (* Deterministic per-statistic relative-error estimate: a 95%
             CLT half-width on the mean per-retirement rate across the
             sampled windows, relative to that mean. 1.0 (i.e. "no
             confidence") when only one sample exists. *)
          let rel_error f =
            if n < 2 then 1.0
            else begin
              let rates =
                List.map
                  (fun fr ->
                    float_of_int (f fr) /. float_of_int (max 1 fr.a_retired))
                  frames
              in
              let fn = float_of_int n in
              let mean = List.fold_left ( +. ) 0. rates /. fn in
              if mean = 0. then 0.
              else begin
                let var =
                  List.fold_left
                    (fun s r -> s +. ((r -. mean) *. (r -. mean)))
                    0. rates
                  /. (fn -. 1.)
                in
                1.96 *. sqrt var /. (sqrt fn *. mean)
              end
            end
          in
          let errors =
            [ ("cycles", rel_error (fun fr -> fr.a_cycles));
              ("mispredicted", rel_error (fun fr -> fr.a_mispred));
              ("loads", rel_error (fun fr -> fr.a_cache.loads));
              ("l1_misses", rel_error (fun fr -> fr.a_cache.l1_misses));
              ("l2_misses", rel_error (fun fr -> fr.a_cache.l2_misses)) ]
          in
          { cycles = est_of (fun fr -> fr.a_cycles);
            retired = total_retired;
            retired_by_class = classes;
            emulated_insts = total_insts;
            wrong_path_insts = est_of (fun fr -> fr.a_wrong_path);
            branches =
              { conditionals = est_of (fun fr -> fr.a_cond);
                mispredicted = est_of (fun fr -> fr.a_mispred);
                indirects = est_of (fun fr -> fr.a_ind);
                misfetched = est_of (fun fr -> fr.a_misfetch) };
            cache =
              { loads = est_of (fun fr -> fr.a_cache.loads);
                stores = est_of (fun fr -> fr.a_cache.stores);
                l1_hits = est_of (fun fr -> fr.a_cache.l1_hits);
                l1_misses = est_of (fun fr -> fr.a_cache.l1_misses);
                l2_hits = est_of (fun fr -> fr.a_cache.l2_hits);
                l2_misses = est_of (fun fr -> fr.a_cache.l2_misses);
                writebacks = est_of (fun fr -> fr.a_cache.writebacks);
                merged_misses = est_of (fun fr -> fr.a_cache.merged_misses) };
            memo = None;
            pcache = None;
            final_state;
            truncated = false;
            provenance =
              Some
                { prov_strategy = "sampled";
                  prov_intervals = n;
                  prov_accepted = 0;
                  prov_repaired = 0;
                  prov_fallback = None;
                  prov_errors = errors } }
        end
      end
    end
  end

(* ---------------------------------------------------------------- *)
(* The unified engine front end: one configuration record instead of a
   fan of optional arguments, serialisable so sweep manifests and reports
   can record exactly which configuration produced each result. *)

module J = Fastsim_obs.Json

(* Shared strict JSON-object decoder: one pass over the members, rejecting
   unknown AND duplicate keys, so a typo'd or doubled field in a manifest,
   fuzz artifact or wire request fails loudly instead of silently applying
   last-wins. [path] is the JSON path of the object being decoded (e.g.
   ["$.params"]) so every error names the offending location.
   [error : string -> unit] must raise. *)
let strict_obj ~error ~path ~field init j =
  match j with
  | J.Obj members ->
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc (k, v) ->
        if Hashtbl.mem seen k then
          error (Printf.sprintf "duplicate field %S at %s" k path);
        Hashtbl.add seen k ();
        match field acc k v with
        | Some acc -> acc
        | None ->
          error (Printf.sprintf "unknown field %S at %s" k path);
          assert false)
      init members
  | _ ->
    error (Printf.sprintf "%s must be an object" path);
    assert false

module Spec = struct
  type observer = int -> Uarch.Detailed.t -> Uarch.Detailed.cycle_result -> unit

  type t = {
    params : Uarch.Params.t;
    cache_config : Cachesim.Config.t;
    predictor : predictor_kind;
    max_cycles : int;
    policy : Memo.Pcache.policy;
    pcache : Memo.Pcache.t option;
    store : Memo.Store.t option;
    obs : Fastsim_obs.Ctx.t option;
    observer : observer option;
  }

  let default =
    { params = Uarch.Params.default;
      cache_config = Cachesim.Config.default;
      predictor = Standard;
      max_cycles = max_int;
      policy = Memo.Pcache.Unbounded;
      pcache = None;
      store = None;
      obs = None;
      observer = None }

  let with_params params t = { t with params }
  let with_cache_config cache_config t = { t with cache_config }
  let with_predictor predictor t = { t with predictor }
  let with_max_cycles max_cycles t = { t with max_cycles }
  let with_policy policy t = { t with policy }
  let with_pcache pc t = { t with pcache = Some pc }
  let with_store store t = { t with store = Some store }
  let with_obs obs t = { t with obs = Some obs }
  let with_observer f t = { t with observer = Some f }

  (* ---- string conversions shared by the CLI and the sweep driver ---- *)

  let predictor_to_string = function
    | Standard -> "standard"
    | Not_taken -> "not-taken"
    | Taken -> "taken"

  let predictor_of_string = function
    | "standard" -> Ok Standard
    | "not-taken" | "not_taken" -> Ok Not_taken
    | "taken" -> Ok Taken
    | s -> Error (Printf.sprintf "unknown predictor %S" s)

  let policy_to_string = function
    | Memo.Pcache.Unbounded -> "unbounded"
    | Memo.Pcache.Flush_on_full n -> Printf.sprintf "flush:%d" n
    | Memo.Pcache.Copying_gc n -> Printf.sprintf "copy:%d" n
    | Memo.Pcache.Generational_gc { nursery; total } ->
      Printf.sprintf "gen:%d:%d" nursery total

  let policy_of_string s =
    let num n =
      match int_of_string_opt n with
      | Some i when i > 0 -> Ok i
      | _ -> Error (Printf.sprintf "bad byte budget %S in policy %S" n s)
    in
    match String.split_on_char ':' s with
    | [ "unbounded" ] -> Ok Memo.Pcache.Unbounded
    | [ "flush"; n ] ->
      Result.map (fun n -> Memo.Pcache.Flush_on_full n) (num n)
    | [ "copy"; n ] -> Result.map (fun n -> Memo.Pcache.Copying_gc n) (num n)
    | [ "gen"; n; t ] ->
      Result.bind (num n) (fun nursery ->
          Result.map
            (fun total -> Memo.Pcache.Generational_gc { nursery; total })
            (num t))
    | _ ->
      Error
        (Printf.sprintf
           "bad policy %S (want unbounded, flush:BYTES, copy:BYTES or \
            gen:NURSERY:TOTAL)" s)

  let engine_to_string = function
    | `Fast -> "fast"
    | `Slow -> "slow"
    | `Baseline -> "baseline"

  let engine_of_string = function
    | "fast" -> Ok `Fast
    | "slow" -> Ok `Slow
    | "baseline" -> Ok `Baseline
    | s -> Error (Printf.sprintf "unknown engine %S" s)

  (* ---- JSON (de)serialisation -------------------------------------- *)
  (* The runtime-only fields (pcache, obs, observer) are not represented:
     a decoded spec always has them unset. Decoding overlays the present
     fields onto {!default} and rejects unknown and duplicate keys, so a
     typo in a manifest fails loudly rather than silently running the
     default. The decoders return [Result]s: the serve daemon, manifests
     and fuzz artifacts all decode untrusted input.

     Versioning: documents carry a "version" field. Version 1 (or an
     absent field — every pre-versioning document) is the original wire
     format; version 2 added [issue_width], [fu_latency] and
     [issue_ports]. Decoding is strictly backward compatible: every new
     field is an optional overlay onto the same defaults the old engine
     hard-coded, so a v1 document decodes to a spec with identical
     behaviour. Unknown future versions are rejected. *)

  let version = 2

  let fu_table_to_json value_of : J.t =
    Obj
      (Array.to_list
         (Array.map
            (fun c -> (Isa.Instr.fu_name c, value_of c))
            Isa.Instr.fu_classes))

  let params_to_json (p : Uarch.Params.t) : J.t =
    Obj
      [ ("fetch_width", Int p.fetch_width);
        ("decode_width", Int p.decode_width);
        ("issue_width", Int p.issue_width);
        ("retire_width", Int p.retire_width);
        ("active_list", Int p.active_list);
        ("int_queue", Int p.int_queue);
        ("fp_queue", Int p.fp_queue);
        ("addr_queue", Int p.addr_queue);
        ("int_units", Int p.int_units);
        ("fp_units", Int p.fp_units);
        ("mem_units", Int p.mem_units);
        ( "fu_latency",
          fu_table_to_json (fun c ->
              J.Int p.fu_latency.(Isa.Instr.fu_index c)) );
        ( "issue_ports",
          fu_table_to_json (fun c ->
              J.Str
                (Uarch.Params.port_name
                   p.issue_ports.(Isa.Instr.fu_index c))) );
        ("phys_int_regs", Int p.phys_int_regs);
        ("phys_fp_regs", Int p.phys_fp_regs);
        ("max_spec_branches", Int p.max_spec_branches) ]

  let cache_config_to_json (c : Cachesim.Config.t) : J.t =
    Obj
      [ ("l1_size", Int c.l1_size);
        ("l1_ways", Int c.l1_ways);
        ("l1_line", Int c.l1_line);
        ("l1_hit_latency", Int c.l1_hit_latency);
        ("l1_miss_penalty", Int c.l1_miss_penalty);
        ("l1_mshrs", Int c.l1_mshrs);
        ("l2_size", Int c.l2_size);
        ("l2_ways", Int c.l2_ways);
        ("l2_line", Int c.l2_line);
        ("l2_hit_latency", Int c.l2_hit_latency);
        ("l2_mshrs", Int c.l2_mshrs);
        ("mem_latency", Int c.mem_latency);
        ("bus_width", Int c.bus_width) ]

  let to_json t : J.t =
    let fields =
      [ ("version", J.Int version);
        ("params", params_to_json t.params);
        ("cache_config", cache_config_to_json t.cache_config);
        ("predictor", J.Str (predictor_to_string t.predictor));
        ("policy", J.Str (policy_to_string t.policy)) ]
    in
    let fields =
      if t.max_cycles = max_int then fields
      else fields @ [ ("max_cycles", J.Int t.max_cycles) ]
    in
    Obj fields

  let spec_error fmt = Printf.ksprintf (fun m -> failwith ("spec: " ^ m)) fmt

  let fold_obj ~path ~field init j =
    strict_obj ~error:(fun m -> failwith ("spec: " ^ m)) ~path ~field init j

  (* Typed accessors that blame the offending JSON path on a mismatch. *)
  let int_at path v =
    match J.to_int v with
    | n -> n
    | exception J.Parse_error m -> spec_error "%s: %s" path m

  let str_at path v =
    match J.to_str v with
    | s -> s
    | exception J.Parse_error m -> spec_error "%s: %s" path m

  (* Runs a raising decoder and reflects its failures — including
     ill-typed values, which surface as [Json.Parse_error] from the
     accessors — into a [Result]. *)
  let decode_result decode j =
    match decode j with
    | v -> Ok v
    | exception Failure m -> Error m
    | exception J.Parse_error m -> Error ("spec: " ^ m)

  let fu_index_of_name path k =
    let rec find i =
      if i >= Isa.Instr.fu_count then
        spec_error "%s: unknown fu class %S" path k
      else if String.equal (Isa.Instr.fu_name Isa.Instr.fu_classes.(i)) k
      then i
      else find (i + 1)
    in
    find 0

  (* Per-fu-class table ({"int-alu": v, ...}): overlays present entries
     onto a copy of [base] (never onto [base] itself — records derived
     from [default] share its arrays). *)
  let fu_table_decode ~path ~value base j =
    let a = Array.copy base in
    fold_obj ~path () j ~field:(fun () k v ->
        let idx = fu_index_of_name path k in
        a.(idx) <- value (path ^ "." ^ k) v;
        Some ());
    a

  let params_decode ?(path = "$.params") j : Uarch.Params.t =
    fold_obj ~path Uarch.Params.default j
      ~field:(fun (p : Uarch.Params.t) k v ->
        let i () = int_at (path ^ "." ^ k) v in
        match k with
        | "fetch_width" -> Some { p with fetch_width = i () }
        | "decode_width" -> Some { p with decode_width = i () }
        | "issue_width" -> Some { p with issue_width = i () }
        | "retire_width" -> Some { p with retire_width = i () }
        | "active_list" -> Some { p with active_list = i () }
        | "int_queue" -> Some { p with int_queue = i () }
        | "fp_queue" -> Some { p with fp_queue = i () }
        | "addr_queue" -> Some { p with addr_queue = i () }
        | "int_units" -> Some { p with int_units = i () }
        | "fp_units" -> Some { p with fp_units = i () }
        | "mem_units" -> Some { p with mem_units = i () }
        | "fu_latency" ->
          Some
            { p with
              fu_latency =
                fu_table_decode ~path:(path ^ ".fu_latency") ~value:int_at
                  p.fu_latency v }
        | "issue_ports" ->
          Some
            { p with
              issue_ports =
                fu_table_decode ~path:(path ^ ".issue_ports")
                  ~value:(fun path v ->
                    match Uarch.Params.port_of_string (str_at path v) with
                    | Ok port -> port
                    | Error m -> spec_error "%s: %s" path m)
                  p.issue_ports v }
        | "phys_int_regs" -> Some { p with phys_int_regs = i () }
        | "phys_fp_regs" -> Some { p with phys_fp_regs = i () }
        | "max_spec_branches" -> Some { p with max_spec_branches = i () }
        | _ -> None)

  let cache_config_decode ?(path = "$.cache_config") j : Cachesim.Config.t =
    fold_obj ~path Cachesim.Config.default j
      ~field:(fun (c : Cachesim.Config.t) k v ->
        let i () = int_at (path ^ "." ^ k) v in
        match k with
        | "l1_size" -> Some { c with l1_size = i () }
        | "l1_ways" -> Some { c with l1_ways = i () }
        | "l1_line" -> Some { c with l1_line = i () }
        | "l1_hit_latency" -> Some { c with l1_hit_latency = i () }
        | "l1_miss_penalty" -> Some { c with l1_miss_penalty = i () }
        | "l1_mshrs" -> Some { c with l1_mshrs = i () }
        | "l2_size" -> Some { c with l2_size = i () }
        | "l2_ways" -> Some { c with l2_ways = i () }
        | "l2_line" -> Some { c with l2_line = i () }
        | "l2_hit_latency" -> Some { c with l2_hit_latency = i () }
        | "l2_mshrs" -> Some { c with l2_mshrs = i () }
        | "mem_latency" -> Some { c with mem_latency = i () }
        | "bus_width" -> Some { c with bus_width = i () }
        | _ -> None)

  let decode j : t =
    let ok_or_fail path = function
      | Ok v -> v
      | Error m -> spec_error "%s: %s" path m
    in
    fold_obj ~path:"$" default j ~field:(fun t k v ->
        match k with
        | "version" ->
          let n = int_at "$.version" v in
          if n < 1 || n > version then
            spec_error
              "$.version: unsupported spec version %d (this decoder knows \
               1..%d)" n version;
          Some t
        | "params" -> Some { t with params = params_decode v }
        | "cache_config" ->
          Some { t with cache_config = cache_config_decode v }
        | "predictor" ->
          Some
            { t with
              predictor =
                ok_or_fail "$.predictor"
                  (predictor_of_string (str_at "$.predictor" v)) }
        | "policy" ->
          Some
            { t with
              policy =
                ok_or_fail "$.policy"
                  (policy_of_string (str_at "$.policy" v)) }
        | "max_cycles" -> Some { t with max_cycles = int_at "$.max_cycles" v }
        | _ -> None)

  let params_of_json_result j = decode_result params_decode j
  let cache_config_of_json_result j = decode_result cache_config_decode j
  let of_json_result j = decode_result decode j

  (* ---- self-describing schema --------------------------------------- *)
  (* One entry per accepted JSON path, with the type the decoder expects,
     the default the field overlays, and a one-line doc. This is the
     source for [fastsim spec schema] and [fastsim sweep --list-params];
     docs/CONFIG.md is the prose companion. The table is written by hand
     next to the decoders above — a new decoder case and its schema row
     belong in the same change. *)

  type schema_field = {
    sf_path : string;     (* e.g. "$.params.fetch_width" *)
    sf_type : string;     (* human-readable type *)
    sf_default : string;  (* rendered default value *)
    sf_doc : string;
  }

  let schema : schema_field list =
    let p = Uarch.Params.default in
    let c = Cachesim.Config.default in
    let f sf_path sf_type sf_default sf_doc =
      { sf_path; sf_type; sf_default; sf_doc }
    in
    let pi name v doc = f ("$.params." ^ name) "int" (string_of_int v) doc in
    let ci name v doc =
      f ("$.cache_config." ^ name) "int" (string_of_int v) doc
    in
    [ f "$.version" "int" (string_of_int version)
        "wire-format version; absent means 1 (pre-versioning documents); \
         versions 1 through the current one decode, later are rejected";
      pi "fetch_width" p.fetch_width "instructions fetched per cycle";
      pi "decode_width" p.decode_width
        "instructions decoded and renamed per cycle";
      pi "issue_width" p.issue_width
        "total instructions issued per cycle across all ports; 0 means \
         uncapped (per-port unit counts still limit issue)";
      pi "retire_width" p.retire_width "instructions retired per cycle";
      pi "active_list" p.active_list
        "active-list (reorder buffer) entries; bounds in-flight \
         instructions and the snapshot entry count, so at most 255";
      pi "int_queue" p.int_queue "integer issue-queue entries";
      pi "fp_queue" p.fp_queue "floating-point issue-queue entries";
      pi "addr_queue" p.addr_queue "address (memory) issue-queue entries";
      pi "int_units" p.int_units "functional units on the int port";
      pi "fp_units" p.fp_units "functional units on the fp port";
      pi "mem_units" p.mem_units "functional units on the mem port";
      f "$.params.fu_latency" "{fu-class: int}"
        (J.to_string
           (fu_table_to_json (fun cl ->
                J.Int p.fu_latency.(Isa.Instr.fu_index cl))))
        "execution latency in cycles per functional-unit class; a partial \
         object overlays the defaults; every latency must be >= 1";
      f "$.params.issue_ports" "{fu-class: \"int\"|\"fp\"|\"mem\"}"
        (J.to_string
           (fu_table_to_json (fun cl ->
                J.Str
                  (Uarch.Params.port_name
                     p.issue_ports.(Isa.Instr.fu_index cl)))))
        "issue port — and therefore issue queue — per functional-unit \
         class; a partial object overlays the defaults";
      pi "phys_int_regs" p.phys_int_regs
        "integer physical registers; the rename freelist holds this minus \
         the 32 architectural registers, so it must exceed 32";
      pi "phys_fp_regs" p.phys_fp_regs
        "floating-point physical registers; must exceed 32, as above";
      pi "max_spec_branches" p.max_spec_branches
        "unresolved conditional branches fetch may speculate past \
         (= branch shadow-map slots)";
      ci "l1_size" c.l1_size "L1 data cache size in bytes";
      ci "l1_ways" c.l1_ways "L1 associativity";
      ci "l1_line" c.l1_line "L1 line size in bytes";
      ci "l1_hit_latency" c.l1_hit_latency "cycles to data on an L1 hit";
      ci "l1_miss_penalty" c.l1_miss_penalty
        "cycles to reach L2 after an L1 miss";
      ci "l1_mshrs" c.l1_mshrs "L1 outstanding-miss registers";
      ci "l2_size" c.l2_size "L2 cache size in bytes";
      ci "l2_ways" c.l2_ways "L2 associativity";
      ci "l2_line" c.l2_line "L2 line size in bytes";
      ci "l2_hit_latency" c.l2_hit_latency "L2 array access time in cycles";
      ci "l2_mshrs" c.l2_mshrs "L2 outstanding-miss registers";
      ci "mem_latency" c.mem_latency
        "cycles from bus grant to the first data beat";
      ci "bus_width" c.bus_width "bytes per bus cycle";
      f "$.predictor" "string"
        (Printf.sprintf "%S" (predictor_to_string default.predictor))
        "branch predictor: \"standard\" (BHT + BTB + RAS), \"not-taken\" \
         or \"taken\"";
      f "$.policy" "string"
        (Printf.sprintf "%S" (policy_to_string default.policy))
        "p-action cache policy (fast engine only): \"unbounded\", \
         \"flush:BYTES\", \"copy:BYTES\" or \"gen:NURSERY:TOTAL\"";
      f "$.max_cycles" "int" "(absent: unlimited)"
        "cycle budget; the run stops and reports truncated = true when it \
         is reached" ]

  let schema_to_json () : J.t =
    Obj
      [ ("version", Int version);
        ( "fields",
          List
            (Stdlib.List.map
               (fun s ->
                 J.Obj
                   [ ("path", J.Str s.sf_path);
                     ("type", J.Str s.sf_type);
                     ("default", J.Str s.sf_default);
                     ("doc", J.Str s.sf_doc) ])
               schema) ) ]
end

(* ---------------------------------------------------------------- *)
(* Wire codec for {!result}. Every field — including the final
   architectural state and the optional memo/pcache statistics — crosses
   the JSON boundary and decodes back structurally equal (floats rely on
   Json's exact round-trip printing). The sweep report and the serve
   daemon both emit this shape; derived conveniences (ipc,
   detailed_fraction, avg_chain) ride along for human consumers and are
   accepted-but-ignored on decode. *)

let result_error fmt = Printf.ksprintf (fun m -> failwith ("result: " ^ m)) fmt

(* Imperative flavour of [strict_obj]: [field] returns whether it
   recognised the key and stashes the value in a ref. *)
let result_obj ~path ~field j =
  strict_obj ~error:(fun m -> failwith ("result: " ^ m)) ~path () j
    ~field:(fun () k v -> if field k v then Some () else None)

let result_need what = function
  | Some v -> v
  | None -> result_error "missing %s" what

let branch_stats_to_json (b : branch_stats) : J.t =
  Obj
    [ ("conditionals", Int b.conditionals);
      ("mispredicted", Int b.mispredicted);
      ("indirects", Int b.indirects);
      ("misfetched", Int b.misfetched) ]

let branch_stats_decode j : branch_stats =
  let c = ref None and m = ref None and i = ref None and f = ref None in
  result_obj ~path:"$.branches" j ~field:(fun k v ->
      match k with
      | "conditionals" -> c := Some (J.to_int v); true
      | "mispredicted" -> m := Some (J.to_int v); true
      | "indirects" -> i := Some (J.to_int v); true
      | "misfetched" -> f := Some (J.to_int v); true
      | _ -> false);
  { conditionals = result_need "branches.conditionals" !c;
    mispredicted = result_need "branches.mispredicted" !m;
    indirects = result_need "branches.indirects" !i;
    misfetched = result_need "branches.misfetched" !f }

let cache_stats_to_json (c : Cachesim.Hierarchy.stats) : J.t =
  Obj
    [ ("loads", Int c.loads);
      ("stores", Int c.stores);
      ("l1_hits", Int c.l1_hits);
      ("l1_misses", Int c.l1_misses);
      ("l2_hits", Int c.l2_hits);
      ("l2_misses", Int c.l2_misses);
      ("writebacks", Int c.writebacks);
      ("merged_misses", Int c.merged_misses) ]

let cache_stats_decode j : Cachesim.Hierarchy.stats =
  let got = Hashtbl.create 8 in
  result_obj ~path:"$.cache" j ~field:(fun k v ->
      match k with
      | "loads" | "stores" | "l1_hits" | "l1_misses" | "l2_hits" | "l2_misses"
      | "writebacks" | "merged_misses" ->
        Hashtbl.replace got k (J.to_int v);
        true
      | _ -> false);
  let need k =
    match Hashtbl.find_opt got k with
    | Some v -> v
    | None -> result_error "missing cache.%s" k
  in
  { Cachesim.Hierarchy.loads = need "loads";
    stores = need "stores";
    l1_hits = need "l1_hits";
    l1_misses = need "l1_misses";
    l2_hits = need "l2_hits";
    l2_misses = need "l2_misses";
    writebacks = need "writebacks";
    merged_misses = need "merged_misses" }

let memo_stats_to_json (m : Memo.Stats.t) : J.t =
  Obj
    [ ("detailed_retired", Int m.detailed_retired);
      ("replayed_retired", Int m.replayed_retired);
      ("detailed_cycles", Int m.detailed_cycles);
      ("replayed_cycles", Int m.replayed_cycles);
      ("detailed_fraction", Float (Memo.Stats.detailed_fraction m));
      ("actions_replayed", Int m.actions_replayed);
      ("groups_replayed", Int m.groups_replayed);
      ("chain_current", Int m.chain_current);
      ("chain_max", Int m.chain_max);
      ("avg_chain", Float (Memo.Stats.avg_chain m));
      ("episodes", Int m.episodes);
      ("detailed_entries", Int m.detailed_entries) ]

let memo_stats_decode j : Memo.Stats.t =
  let s = Memo.Stats.create () in
  result_obj ~path:"$.memo" j ~field:(fun k v ->
      match k with
      | "detailed_retired" -> s.Memo.Stats.detailed_retired <- J.to_int v; true
      | "replayed_retired" -> s.Memo.Stats.replayed_retired <- J.to_int v; true
      | "detailed_cycles" -> s.Memo.Stats.detailed_cycles <- J.to_int v; true
      | "replayed_cycles" -> s.Memo.Stats.replayed_cycles <- J.to_int v; true
      | "actions_replayed" -> s.Memo.Stats.actions_replayed <- J.to_int v; true
      | "groups_replayed" -> s.Memo.Stats.groups_replayed <- J.to_int v; true
      | "chain_current" -> s.Memo.Stats.chain_current <- J.to_int v; true
      | "chain_max" -> s.Memo.Stats.chain_max <- J.to_int v; true
      | "episodes" -> s.Memo.Stats.episodes <- J.to_int v; true
      | "detailed_entries" -> s.Memo.Stats.detailed_entries <- J.to_int v; true
      | "detailed_fraction" | "avg_chain" -> ignore (J.to_float v); true
      | _ -> false);
  s

let pcache_counters_to_json (p : Memo.Pcache.counters) : J.t =
  Obj
    [ ("static_configs", Int p.static_configs);
      ("static_actions", Int p.static_actions);
      ("live_configs", Int p.live_configs);
      ("modeled_bytes", Int p.modeled_bytes);
      ("peak_modeled_bytes", Int p.peak_modeled_bytes);
      ("flushes", Int p.flushes);
      ("minor_collections", Int p.minor_collections);
      ("full_collections", Int p.full_collections);
      ("last_gc_survivors", Int p.last_gc_survivors);
      ("last_gc_population", Int p.last_gc_population);
      ("stride_compactions", Int p.stride_compactions);
      ("stride_expansions", Int p.stride_expansions) ]

let pcache_counters_decode j : Memo.Pcache.counters =
  let got = Hashtbl.create 16 in
  result_obj ~path:"$.pcache" j ~field:(fun k v ->
      match k with
      | "static_configs" | "static_actions" | "live_configs" | "modeled_bytes"
      | "peak_modeled_bytes" | "flushes" | "minor_collections"
      | "full_collections" | "last_gc_survivors" | "last_gc_population"
      | "stride_compactions" | "stride_expansions" ->
        Hashtbl.replace got k (J.to_int v);
        true
      | _ -> false);
  let need k =
    match Hashtbl.find_opt got k with
    | Some v -> v
    | None -> result_error "missing pcache.%s" k
  in
  { Memo.Pcache.static_configs = need "static_configs";
    static_actions = need "static_actions";
    live_configs = need "live_configs";
    modeled_bytes = need "modeled_bytes";
    peak_modeled_bytes = need "peak_modeled_bytes";
    flushes = need "flushes";
    minor_collections = need "minor_collections";
    full_collections = need "full_collections";
    last_gc_survivors = need "last_gc_survivors";
    last_gc_population = need "last_gc_population";
    stride_compactions = need "stride_compactions";
    stride_expansions = need "stride_expansions" }

(* FP registers must round-trip bit-exactly, and JSON has no literal
   for NaN or the infinities (the printer would emit null). Finite
   values stay ordinary JSON floats; non-finite ones are carried as
   "bits:<16 hex digits>" strings of their IEEE-754 representation. *)
let freg_to_json v =
  if Float.is_finite v then J.Float v
  else J.Str (Printf.sprintf "bits:%016Lx" (Int64.bits_of_float v))

let freg_of_json = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | J.Str s when String.length s = 21 && String.sub s 0 5 = "bits:" -> (
    match Int64.of_string_opt ("0x" ^ String.sub s 5 16) with
    | Some bits -> Int64.float_of_bits bits
    | None -> result_error "final_state.fregs: bad bits literal %S" s)
  | _ -> result_error "final_state.fregs: expected a float"

let final_state_to_json (s : Emu.Arch_state.t) : J.t =
  Obj
    [ ("pc", Int s.Emu.Arch_state.pc);
      ( "iregs",
        List
          (Array.to_list
             (Array.map (fun v -> J.Int v) s.Emu.Arch_state.iregs)) );
      ( "fregs",
        List
          (Array.to_list
             (Array.map freg_to_json s.Emu.Arch_state.fregs)) ) ]

let final_state_decode j : Emu.Arch_state.t =
  let pc = ref None and iregs = ref None and fregs = ref None in
  result_obj ~path:"$.final_state" j ~field:(fun k v ->
      match k with
      | "pc" -> pc := Some (J.to_int v); true
      | "iregs" ->
        iregs := Some (Array.of_list (List.map J.to_int (J.to_list v)));
        true
      | "fregs" ->
        fregs := Some (Array.of_list (List.map freg_of_json (J.to_list v)));
        true
      | _ -> false);
  { Emu.Arch_state.pc = result_need "final_state.pc" !pc;
    iregs = result_need "final_state.iregs" !iregs;
    fregs = result_need "final_state.fregs" !fregs }

let provenance_to_json (p : provenance) : J.t =
  Obj
    ([ ("strategy", J.Str p.prov_strategy);
       ("intervals", J.Int p.prov_intervals);
       ("accepted", J.Int p.prov_accepted);
       ("repaired", J.Int p.prov_repaired) ]
    @ (match p.prov_fallback with
       | None -> []
       | Some f -> [ ("fallback", J.Str f) ])
    @
    match p.prov_errors with
    | [] -> []
    | errs ->
      [ ("errors", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) errs)) ])

let provenance_decode j : provenance =
  let strat = ref None and n = ref None and acc = ref None and rep = ref None in
  let fb = ref None and errs = ref [] in
  result_obj ~path:"$.provenance" j ~field:(fun k v ->
      match k with
      | "strategy" -> strat := Some (J.to_str v); true
      | "intervals" -> n := Some (J.to_int v); true
      | "accepted" -> acc := Some (J.to_int v); true
      | "repaired" -> rep := Some (J.to_int v); true
      | "fallback" -> fb := Some (J.to_str v); true
      | "errors" ->
        (match v with
         | J.Obj members ->
           errs := List.map (fun (k, v) -> (k, J.to_float v)) members
         | _ -> result_error "provenance.errors must be an object");
        true
      | _ -> false);
  { prov_strategy = result_need "provenance.strategy" !strat;
    prov_intervals = result_need "provenance.intervals" !n;
    prov_accepted = result_need "provenance.accepted" !acc;
    prov_repaired = result_need "provenance.repaired" !rep;
    prov_fallback = !fb;
    prov_errors = !errs }

let result_to_json (r : result) : J.t =
  Obj
    ([ ("cycles", J.Int r.cycles);
       ("retired", J.Int r.retired);
       ( "ipc",
         J.Float (float_of_int r.retired /. float_of_int (max 1 r.cycles)) );
       ("emulated_insts", J.Int r.emulated_insts);
       ("wrong_path_insts", J.Int r.wrong_path_insts);
       ( "retired_by_class",
         J.List
           (Array.to_list (Array.map (fun n -> J.Int n) r.retired_by_class))
       );
       ("branches", branch_stats_to_json r.branches);
       ("cache", cache_stats_to_json r.cache) ]
    @ (match r.memo with
       | None -> []
       | Some m -> [ ("memo", memo_stats_to_json m) ])
    @ (match r.pcache with
       | None -> []
       | Some p -> [ ("pcache", pcache_counters_to_json p) ])
    @ (match r.provenance with
       | None -> []
       | Some p -> [ ("provenance", provenance_to_json p) ])
    @ [ ("final_state", final_state_to_json r.final_state);
        ("truncated", J.Bool r.truncated) ])

let result_of_json j : (result, string) Stdlib.result =
  let decode j =
    let cycles = ref None and retired = ref None in
    let emulated = ref None and wrong_path = ref None in
    let classes = ref None and branches = ref None and cache = ref None in
    let memo = ref None and pcache = ref None and provenance = ref None in
    let final_state = ref None and truncated = ref None in
    result_obj ~path:"$" j ~field:(fun k v ->
        match k with
        | "cycles" -> cycles := Some (J.to_int v); true
        | "retired" -> retired := Some (J.to_int v); true
        | "ipc" -> ignore (J.to_float v); true
        | "emulated_insts" -> emulated := Some (J.to_int v); true
        | "wrong_path_insts" -> wrong_path := Some (J.to_int v); true
        | "retired_by_class" ->
          classes := Some (Array.of_list (List.map J.to_int (J.to_list v)));
          true
        | "branches" -> branches := Some (branch_stats_decode v); true
        | "cache" -> cache := Some (cache_stats_decode v); true
        | "memo" -> memo := Some (memo_stats_decode v); true
        | "pcache" -> pcache := Some (pcache_counters_decode v); true
        | "provenance" -> provenance := Some (provenance_decode v); true
        | "final_state" -> final_state := Some (final_state_decode v); true
        | "truncated" -> truncated := Some (J.to_bool v); true
        | _ -> false);
    { cycles = result_need "cycles" !cycles;
      retired = result_need "retired" !retired;
      retired_by_class = result_need "retired_by_class" !classes;
      emulated_insts = result_need "emulated_insts" !emulated;
      wrong_path_insts = result_need "wrong_path_insts" !wrong_path;
      branches = result_need "branches" !branches;
      cache = result_need "cache" !cache;
      memo = !memo;
      pcache = !pcache;
      final_state = result_need "final_state" !final_state;
      truncated = result_need "truncated" !truncated;
      provenance = !provenance }
  in
  match decode j with
  | v -> Ok v
  | exception Failure m -> Error m
  | exception J.Parse_error m -> Error ("result: " ^ m)

(* Baseline results are reshaped into {!result} so every engine answers
   through one type. The baseline model has no direct-execution
   decoupling and no per-class retirement accounting, so the fields it
   cannot produce are zero ([emulated_insts], [retired_by_class],
   conditional/indirect fetch counts) — only [mispredicted] is real. *)
let baseline_result (b : Baseline.result) : result =
  { cycles = b.Baseline.cycles;
    retired = b.Baseline.retired;
    retired_by_class = Array.make Isa.Instr.fu_count 0;
    emulated_insts = 0;
    wrong_path_insts = b.Baseline.wrong_path_insts;
    branches =
      { conditionals = 0;
        mispredicted = b.Baseline.mispredicts;
        indirects = 0;
        misfetched = 0 };
    cache = b.Baseline.cache;
    memo = None;
    pcache = None;
    final_state = b.Baseline.final_state;
    truncated = b.Baseline.truncated;
    provenance = None }

let run ?(strategy = Serial) ~engine (spec : Spec.t) prog =
  let serial () =
    match engine with
    | `Slow ->
      slow_sim ~params:spec.Spec.params ~cache_config:spec.Spec.cache_config
        ~predictor:spec.Spec.predictor ~max_cycles:spec.Spec.max_cycles
        ?observer:spec.Spec.observer ?obs:spec.Spec.obs prog
    | `Fast ->
      fast_sim ~params:spec.Spec.params ~cache_config:spec.Spec.cache_config
        ~predictor:spec.Spec.predictor ~max_cycles:spec.Spec.max_cycles
        ~policy:spec.Spec.policy ?pcache:spec.Spec.pcache
        ?store:spec.Spec.store ?obs:spec.Spec.obs prog
    | `Baseline ->
      let max_cycles =
        if spec.Spec.max_cycles = max_int then None
        else Some spec.Spec.max_cycles
      in
      baseline_result
        (Baseline.run ~cache_config:spec.Spec.cache_config ?max_cycles prog)
  in
  match (strategy, engine) with
  | Serial, _ -> serial ()
  | Parallel _, `Baseline ->
    let r = serial () in
    { r with
      provenance = Some (no_provenance ~strategy:"parallel" "baseline-engine") }
  | Sampled _, `Baseline ->
    let r = serial () in
    { r with
      provenance = Some (no_provenance ~strategy:"sampled" "baseline-engine") }
  | Parallel { interval_insns; warmup_insns; fanout }, ((`Fast | `Slow) as e)
    ->
    run_parallel ~engine:e ~params:spec.Spec.params
      ~cache_config:spec.Spec.cache_config ~predictor:spec.Spec.predictor
      ~max_cycles:spec.Spec.max_cycles ~policy:spec.Spec.policy
      ?store:spec.Spec.store ~pcache:spec.Spec.pcache ~serial prog
      ~interval_insns ~warmup_insns ~fanout
  | Sampled { sample_insns; sample_period; warmup_insns }, ((`Fast | `Slow) as e)
    ->
    run_sampled ~engine:e ~params:spec.Spec.params
      ~cache_config:spec.Spec.cache_config ~predictor:spec.Spec.predictor
      ~max_cycles:spec.Spec.max_cycles ~policy:spec.Spec.policy
      ?store:spec.Spec.store ~pcache:spec.Spec.pcache ~serial prog
      ~sample_insns ~sample_period ~warmup_insns
