type result =
  | Diverged of { config : Action.config; prefix : Action.item list }
  | Replay_halted
  | Replay_budget of Action.config

type group_step =
  | G_next of Action.config
  | G_halt
  | G_diverge of Action.item list

(* Test-only fault injection (docs/FUZZ.md): when the environment variable
   FASTSIM_REPLAY_FAULT_EVERY is a positive integer n, every n-th fully
   replayed group charges one extra cycle. This deliberately breaks the
   fast ≡ slow equivalence so the differential fuzzing harness (and CI)
   can prove it detects and shrinks such bugs. Unset (the normal case),
   replay is exact. Engines read it once per simulation ([fault_every]);
   otherwise each [run] re-reads it. *)
let fault_period () =
  match Sys.getenv_opt "FASTSIM_REPLAY_FAULT_EVERY" with
  | None | Some "" -> 0
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 0)

let run ?(max_cycles = max_int) ?(max_retired = max_int) ?trace ?metrics
    ?fault_every pc (stats : Stats.t) ~(oracle : Uarch.Oracle.t) ~cycle
    ~classes ~start =
  (* Observability (docs/OBSERVABILITY.md): one [engine]-category replay
     span per run, synthetic per-group events reconstructed from the action
     chains as they are walked, and chain/episode-length histograms.
     Strictly passive. *)
  let h_chain =
    Option.map
      (fun m -> Fastsim_obs.Metrics.histogram m "memo.replay_chain_length")
      metrics
  in
  let h_episode =
    Option.map
      (fun m -> Fastsim_obs.Metrics.histogram m "memo.episode_cycles")
      metrics
  in
  let cycle0 = !cycle in
  let actions0 = stats.Stats.actions_replayed in
  let groups0 = stats.Stats.groups_replayed in
  let retired0 = stats.Stats.replayed_retired in
  (* Retirement budget (strategy engines, docs/STRATEGY.md): replaying a
     group that would bring this run's retirement tally to [max_retired]
     or past it would overshoot a boundary whose exact crossing cycle is
     recorded only as a whole-group aggregate. Same contract as the
     [max_cycles] guard: stop {e before} such a group, hand its
     configuration back, and let the caller re-simulate in detail up to
     the exact crossing point. *)
  let retire_budget_hit g_retired =
    stats.Stats.replayed_retired - retired0 + g_retired >= max_retired
  in
  (match trace with
   | None -> ()
   | Some tr ->
     Fastsim_obs.Trace.emit tr
       (Fastsim_obs.Event.span_begin ~ts:cycle0 ~cat:"engine" "replay"));
  (* All exit paths funnel through here; [Stats.end_episode] is idempotent
     and empty episodes are not counted, so observe the chain length under
     the same guard. *)
  let end_episode () =
    (match h_chain with
     | Some h when stats.Stats.chain_current > 0 ->
       Fastsim_obs.Metrics.observe h stats.Stats.chain_current
     | Some _ | None -> ());
    Stats.end_episode stats
  in
  let group_done ~silent ~retired =
    match trace with
    | None -> ()
    | Some tr ->
      Fastsim_obs.Trace.emit tr
        (Fastsim_obs.Event.instant ~ts:!cycle ~cat:"memo" "group_replayed"
           ~args:
             [ ("silent", Fastsim_obs.Json.Int silent);
               ("retired", Fastsim_obs.Json.Int retired) ]);
      Fastsim_obs.Trace.emit tr
        (Fastsim_obs.Event.counter ~ts:!cycle ~cat:"engine" "retired"
           (stats.Stats.detailed_retired + stats.Stats.replayed_retired))
  in
  let fault_every = Option.value fault_every ~default:(fault_period ()) in
  let cur = ref start in
  let result = ref None in
  (* ---- stride replay (docs/INTERNALS.md "Hot path") ----------------
     A stride is a compacted linear run of groups replayed as one step.
     Every observable effect — oracle call order and [~now] stamps,
     per-group cycle/retirement/class charging, fault-injection skew,
     budget truncation, note_action counts — matches what plain replay
     of the uncompacted run would do, so statistics are bit-identical. *)
  (* Re-perform one segment's recorded items against the live oracle.
     Returns [`Ok] or the consumed outcomes (live values, including the
     diverging one) exactly as the plain walk builds its prefix. *)
  let perform_ops ops now =
    let prefix = ref [] in
    let n = Array.length ops in
    let i = ref 0 in
    let diverged = ref false in
    while (not !diverged) && !i < n do
      (match ops.(!i) with
       | Action.I_load lat ->
         let live = oracle.Uarch.Oracle.cache_load ~now in
         prefix := Action.I_load live :: !prefix;
         if Int.equal live lat then Stats.note_action stats
         else diverged := true
       | Action.I_store ->
         oracle.Uarch.Oracle.cache_store ~now;
         prefix := Action.I_store :: !prefix;
         Stats.note_action stats
       | Action.I_ctl c ->
         let out = oracle.Uarch.Oracle.fetch_control () in
         prefix := Action.I_ctl out :: !prefix;
         if Action.ctl_equal out c then Stats.note_action stats
         else diverged := true
       | Action.I_rollback idx ->
         oracle.Uarch.Oracle.rollback ~index:idx;
         prefix := Action.I_rollback idx :: !prefix;
         Stats.note_action stats);
      incr i
    done;
    if !diverged then `Diverge (List.rev !prefix) else `Ok
  in
  (* Whole-group charging, identical to the plain G_next/G_halt paths:
     one boundary note_action (the goto/halt/segment boundary the plain
     chain would have walked), the same fault-injection skew formula, the
     same cycle advance. *)
  let charge_segment ~silent ~retired ~seg_classes =
    Stats.note_action stats;
    let skew =
      if
        fault_every > 0
        && (stats.Stats.groups_replayed + 1) mod fault_every = 0
      then 1
      else 0
    in
    cycle := !cycle + silent + 1 + skew;
    stats.replayed_cycles <- stats.replayed_cycles + silent + 1;
    stats.replayed_retired <- stats.replayed_retired + retired;
    stats.groups_replayed <- stats.groups_replayed + 1;
    Array.iteri (fun i v -> classes.(i) <- classes.(i) + v) seg_classes;
    group_done ~silent ~retired
  in
  let replay_stride (cfg : Action.config) (g : Action.group)
      (s : Action.stride_node) =
    (* The owner group's budget was checked by the caller's guard. *)
    match perform_ops s.Action.s_ops (!cycle + g.Action.g_silent) with
    | `Diverge prefix ->
      (* Expand the whole run back into exact plain groups, then report
         the divergence against the owner — the detailed simulator merges
         into a plain chain, never into a stride. *)
      ignore (Pcache.expand_stride pc cfg : Action.config array);
      end_episode ();
      result := Some (Diverged { config = cfg; prefix })
    | `Ok ->
      charge_segment ~silent:g.Action.g_silent ~retired:g.Action.g_retired
        ~seg_classes:g.Action.g_classes;
      let nseg = Array.length s.Action.s_segs in
      let i = ref 0 in
      let stopped = ref false in
      while (not !stopped) && !i < nseg do
        let seg = s.Action.s_segs.(!i) in
        Pcache.touch pc seg.Action.sg_cfg;
        if
          !cycle + seg.Action.sg_silent >= max_cycles
          || retire_budget_hit seg.Action.sg_retired
        then begin
          (* Same contract as the plain [Replay_budget]: stop before the
             segment, nothing performed, nothing charged; the caller
             re-simulates the truncated tail in detail from this
             configuration's key. The stride itself stays compacted. *)
          end_episode ();
          result := Some (Replay_budget seg.Action.sg_cfg);
          stopped := true
        end
        else begin
          match perform_ops seg.Action.sg_ops (!cycle + seg.Action.sg_silent)
          with
          | `Diverge prefix ->
            let resolved = Pcache.expand_stride pc cfg in
            let target =
              if !i < Array.length resolved then resolved.(!i)
              else seg.Action.sg_cfg
            in
            end_episode ();
            result := Some (Diverged { config = target; prefix });
            stopped := true
          | `Ok ->
            charge_segment ~silent:seg.Action.sg_silent
              ~retired:seg.Action.sg_retired
              ~seg_classes:seg.Action.sg_classes;
            incr i
        end
      done;
      if not !stopped then begin
        match s.Action.s_term with
        | Action.N_goto gn -> cur := Pcache.resolve_goto pc gn
        | Action.N_halt ->
          end_episode ();
          result := Some Replay_halted
        | _ ->
          raise
            (Pcache.Determinism_violation
               "stride terminal must be goto or halt")
      end
  in
  while !result = None do
    let cfg = !cur in
    Pcache.touch pc cfg;
    match cfg.Action.cfg_group with
    | None ->
      end_episode ();
      result := Some (Diverged { config = cfg; prefix = [] })
    | Some g
      when !cycle + g.Action.g_silent >= max_cycles
           || retire_budget_hit g.Action.g_retired ->
      (* The cycle budget falls inside this group: its interaction cycle
         would land at or past [max_cycles]. Replaying it would overshoot
         the budget mid-group — performing interactions a detailed run
         stopped at the same budget never performs, and charging cycles and
         retirement that are recorded only as whole-group aggregates. Hand
         the configuration back instead; the caller re-simulates the
         truncated tail in detail, stopping exactly at the budget with
         exact partial statistics, so Fast ≡ Slow at every truncation
         point. *)
      end_episode ();
      result := Some (Replay_budget cfg)
    | Some ({ Action.g_first = Action.N_stride s; _ } as g) ->
      replay_stride cfg g s
    | Some g ->
      let base = !cycle in
      let now = base + g.Action.g_silent in
      let prefix = ref [] in
      let push item = prefix := item :: !prefix in
      (* Walk this group's chain, re-performing interactions live. *)
      let rec walk node =
        match node with
        | Action.N_load ln -> (
          let lat = oracle.cache_load ~now in
          push (Action.I_load lat);
          match Action.load_edge lat ln.Action.l_edges with
          | Some next ->
            Stats.note_action stats;
            walk next
          | None -> G_diverge (List.rev !prefix))
        | Action.N_store next ->
          oracle.cache_store ~now;
          push Action.I_store;
          Stats.note_action stats;
          walk next
        | Action.N_ctl cn -> (
          let out = oracle.fetch_control () in
          push (Action.I_ctl out);
          match Action.ctl_edge out cn.Action.c_edges with
          | Some next ->
            Stats.note_action stats;
            walk next
          | None -> G_diverge (List.rev !prefix))
        | Action.N_rollback (i, next) ->
          oracle.rollback ~index:i;
          push (Action.I_rollback i);
          Stats.note_action stats;
          walk next
        | Action.N_halt ->
          Stats.note_action stats;
          G_halt
        | Action.N_goto gn ->
          Stats.note_action stats;
          G_next (Pcache.resolve_goto pc gn)
        | Action.N_stride _ ->
          (* Strides only ever head a group's chain; the dispatch above
             routes them to [replay_stride]. *)
          raise
            (Pcache.Determinism_violation "stride node inside a chain")
      in
      let skew =
        (* see [fault_period] above; 0 unless fault injection is enabled *)
        if
          fault_every > 0
          && (stats.Stats.groups_replayed + 1) mod fault_every = 0
        then 1
        else 0
      in
      (match walk g.Action.g_first with
       | G_next target ->
         cycle := now + 1 + skew;
         stats.replayed_cycles <- stats.replayed_cycles + g.Action.g_silent + 1;
         stats.replayed_retired <- stats.replayed_retired + g.Action.g_retired;
         stats.groups_replayed <- stats.groups_replayed + 1;
         Array.iteri
           (fun i v -> classes.(i) <- classes.(i) + v)
           g.Action.g_classes;
         group_done ~silent:g.Action.g_silent ~retired:g.Action.g_retired;
         cur := target
       | G_halt ->
         cycle := now + 1 + skew;
         stats.replayed_cycles <- stats.replayed_cycles + g.Action.g_silent + 1;
         stats.replayed_retired <- stats.replayed_retired + g.Action.g_retired;
         stats.groups_replayed <- stats.groups_replayed + 1;
         Array.iteri
           (fun i v -> classes.(i) <- classes.(i) + v)
           g.Action.g_classes;
         group_done ~silent:g.Action.g_silent ~retired:g.Action.g_retired;
         end_episode ();
         result := Some Replay_halted
       | G_diverge prefix ->
         (* The cycle counter stays at the group start: the detailed
            simulator re-simulates this group's cycles, consuming [prefix]
            instead of re-performing its side effects. *)
         end_episode ();
         result := Some (Diverged { config = cfg; prefix }))
  done;
  (match h_episode with
   | Some h when !cycle > cycle0 ->
     Fastsim_obs.Metrics.observe h (!cycle - cycle0)
   | Some _ | None -> ());
  (match trace with
   | None -> ()
   | Some tr ->
     Fastsim_obs.Trace.emit tr
       (Fastsim_obs.Event.span_end ~ts:!cycle ~cat:"engine" "replay"
          ~args:
            [ ( "groups",
                Fastsim_obs.Json.Int (stats.Stats.groups_replayed - groups0) );
              ( "actions",
                Fastsim_obs.Json.Int (stats.Stats.actions_replayed - actions0)
              ) ]));
  match !result with Some r -> r | None -> assert false
