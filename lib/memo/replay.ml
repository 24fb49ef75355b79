type result =
  | Diverged of { config : Action.config; prefix : Action.item list }
  | Replay_halted
  | Replay_budget of Action.config

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

let add_classes classes delta =
  for i = 0 to Array.length delta - 1 do
    classes.(i) <- classes.(i) + delta.(i)
  done

(* Codes returned by the plain chain walk. *)
let step_next = 0
let step_halt = 1
let step_diverge = 2

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
  (* Called only when a trace is attached, so an untraced run never
     builds the event arguments. *)
  let group_done tr ~silent ~retired =
    Fastsim_obs.Trace.emit tr
      (Fastsim_obs.Event.instant ~ts:!cycle ~cat:"memo" "group_replayed"
         ~args:
           [ ("silent", Fastsim_obs.Json.Int silent);
             ("retired", Fastsim_obs.Json.Int retired) ]);
    Fastsim_obs.Trace.emit tr
      (Fastsim_obs.Event.counter ~ts:!cycle ~cat:"engine" "retired"
         (stats.Stats.detailed_retired + stats.Stats.replayed_retired))
  in
  (* A match, not [Option.value ~default], so the environment is read
     only when the caller passes no period. *)
  let fault_every =
    match fault_every with Some n -> n | None -> fault_period ()
  in
  (* The live outcomes consumed by a diverging group, including the
     diverging one. Built only when a divergence happens: up to that
     point every recorded item equals its live counterpart. *)
  let prefix = ref [] in
  let cur = ref start in
  let result = ref None in
  (* ---- stride replay (docs/INTERNALS.md "Hot path") ----------------
     A stride is a compacted linear run of groups replayed as one step.
     Every observable effect — oracle call order and [~now] stamps,
     per-group cycle/retirement/class charging, fault-injection skew,
     budget truncation, note_action counts — matches what plain replay
     of the uncompacted run would do, so statistics are bit-identical. *)
  (* Re-perform one segment's recorded items against the live oracle.
     Returns -1, or the index of the diverging item after setting
     [prefix] to the items before it plus the live diverging outcome —
     exactly what the plain walk reports. *)
  let diverge_at ops i live =
    let rec build k acc =
      if k < 0 then acc else build (k - 1) (ops.(k) :: acc)
    in
    prefix := build (i - 1) [ live ];
    i
  in
  let rec perform_ops ops now i =
    if i >= Array.length ops then -1
    else
      match ops.(i) with
      | Action.I_load lat ->
        let live = oracle.Uarch.Oracle.cache_load ~now in
        if Int.equal live lat then begin
          Stats.note_action stats;
          perform_ops ops now (i + 1)
        end
        else diverge_at ops i (Action.I_load live)
      | Action.I_store ->
        oracle.Uarch.Oracle.cache_store ~now;
        Stats.note_action stats;
        perform_ops ops now (i + 1)
      | Action.I_ctl c ->
        let out = oracle.Uarch.Oracle.fetch_control () in
        if Action.ctl_equal out c then begin
          Stats.note_action stats;
          perform_ops ops now (i + 1)
        end
        else diverge_at ops i (Action.I_ctl out)
      | Action.I_rollback idx ->
        oracle.Uarch.Oracle.rollback ~index:idx;
        Stats.note_action stats;
        perform_ops ops now (i + 1)
  in
  (* Whole-group charging, identical to the plain walk's next/halt paths:
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
    add_classes classes seg_classes;
    match trace with None -> () | Some tr -> group_done tr ~silent ~retired
  in
  let replay_stride (cfg : Action.config) (g : Action.group)
      (s : Action.stride_node) =
    (* The owner group's budget was checked by the caller's guard. *)
    if perform_ops s.Action.s_ops (!cycle + g.Action.g_silent) 0 >= 0 then
    begin
      (* Expand the whole run back into exact plain groups, then report
         the divergence against the owner — the detailed simulator merges
         into a plain chain, never into a stride. *)
      ignore (Pcache.expand_stride pc cfg : Action.config array);
      end_episode ();
      result := Some (Diverged { config = cfg; prefix = !prefix })
    end
    else begin
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
        else if
          perform_ops seg.Action.sg_ops (!cycle + seg.Action.sg_silent) 0
          >= 0
        then begin
          let resolved = Pcache.expand_stride pc cfg in
          let target =
            if !i < Array.length resolved then resolved.(!i)
            else seg.Action.sg_cfg
          in
          end_episode ();
          result := Some (Diverged { config = target; prefix = !prefix });
          stopped := true
        end
        else begin
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
    end
  in
  (* Walk one group's chain, re-performing interactions live and
     following the edge that matches each live outcome. Returns a step
     code; [step_next] leaves the successor in [next_cfg]. Each matched
     frame prepends its live item to [prefix] on the way back out of a
     divergence, so nothing is consed while the chain matches. *)
  let next_cfg = ref start in
  let rec walk now node =
    match node with
    | Action.N_load ln ->
      let lat = oracle.cache_load ~now in
      walk_load now lat ln.Action.l_edges
    | Action.N_store next ->
      oracle.cache_store ~now;
      Stats.note_action stats;
      let step = walk now next in
      if step = step_diverge then prefix := Action.I_store :: !prefix;
      step
    | Action.N_ctl cn ->
      let out = oracle.fetch_control () in
      walk_ctl now out cn.Action.c_edges
    | Action.N_rollback (i, next) ->
      oracle.rollback ~index:i;
      Stats.note_action stats;
      let step = walk now next in
      if step = step_diverge then prefix := Action.I_rollback i :: !prefix;
      step
    | Action.N_halt ->
      Stats.note_action stats;
      step_halt
    | Action.N_goto gn ->
      Stats.note_action stats;
      next_cfg := Pcache.resolve_goto pc gn;
      step_next
    | Action.N_stride _ ->
      (* Strides only ever head a group's chain; the dispatch below
         routes them to [replay_stride]. *)
      raise (Pcache.Determinism_violation "stride node inside a chain")
  (* Edge lookups compare with [Int.equal] and {!Action.ctl_equal}, never
     polymorphic equality. *)
  and walk_load now lat = function
    | [] ->
      prefix := [ Action.I_load lat ];
      step_diverge
    | (l, next) :: rest ->
      if Int.equal l lat then begin
        Stats.note_action stats;
        let step = walk now next in
        if step = step_diverge then prefix := Action.I_load lat :: !prefix;
        step
      end
      else walk_load now lat rest
  and walk_ctl now out = function
    | [] ->
      prefix := [ Action.I_ctl out ];
      step_diverge
    | (c, next) :: rest ->
      if Action.ctl_equal c out then begin
        Stats.note_action stats;
        let step = walk now next in
        if step = step_diverge then prefix := Action.I_ctl out :: !prefix;
        step
      end
      else walk_ctl now out rest
  in
  while match !result with None -> true | Some _ -> false do
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
      let now = !cycle + g.Action.g_silent in
      let skew =
        (* see [fault_period] above; 0 unless fault injection is enabled *)
        if
          fault_every > 0
          && (stats.Stats.groups_replayed + 1) mod fault_every = 0
        then 1
        else 0
      in
      let step = walk now g.Action.g_first in
      if step = step_diverge then begin
        (* The cycle counter stays at the group start: the detailed
           simulator re-simulates this group's cycles, consuming [prefix]
           instead of re-performing its side effects. *)
        end_episode ();
        result := Some (Diverged { config = cfg; prefix = !prefix })
      end
      else begin
        cycle := now + 1 + skew;
        stats.replayed_cycles <- stats.replayed_cycles + g.Action.g_silent + 1;
        stats.replayed_retired <- stats.replayed_retired + g.Action.g_retired;
        stats.groups_replayed <- stats.groups_replayed + 1;
        add_classes classes g.Action.g_classes;
        (match trace with
         | None -> ()
         | Some tr ->
           group_done tr ~silent:g.Action.g_silent ~retired:g.Action.g_retired);
        if step = step_next then cur := !next_cfg
        else begin
          end_episode ();
          result := Some Replay_halted
        end
      end
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
