(** The fast-forwarding engine (paper §4.2).

    Starting from a configuration, walks the p-action cache: advances the
    cycle counter over silent cycles, re-performs each interaction against
    the live oracle (cache simulator, direct execution), and follows the
    edge matching the live outcome. Replay leaves the graph whenever it
    reaches a configuration with no recorded group or an interaction whose
    live outcome has no edge; in the latter case it reports the already
    consumed outcomes of the current group as a {e prefix}, so the detailed
    simulator can re-derive the mid-group state without re-performing the
    side effects (paper: "previously unseen behaviors terminate
    fast-forwarding, so that the detailed simulator can simulate the new
    scenario"). *)

type result =
  | Diverged of {
      config : Action.config;
          (** the configuration whose group must (re)run in detail. *)
      prefix : Action.item list;
          (** outcomes already consumed live within this group, in order,
              including the diverging one. Empty when [config] simply has
              no group yet. *)
    }
  | Replay_halted
      (** the recorded chain reached [Halt]: simulation is complete. *)
  | Replay_budget of Action.config
      (** the caller's cycle or retirement bound falls inside [config]'s
          group: replaying it would overshoot [max_cycles] (or
          [max_retired]) mid-group. Replay stops {e before} touching the
          group — no interactions performed, no cycles or retirement
          charged — and hands the configuration back so the caller can
          re-simulate the truncated tail in detail, stopping exactly at
          the budget. This keeps Fast ≡ Slow (identical cycles and
          statistics) at every truncation point. *)

val run :
  ?max_cycles:int ->
  ?max_retired:int ->
  ?trace:Fastsim_obs.Trace.t ->
  ?metrics:Fastsim_obs.Metrics.t ->
  ?fault_every:int ->
  Pcache.t ->
  Stats.t ->
  oracle:Uarch.Oracle.t ->
  cycle:int ref ->
  classes:int array ->
  start:Action.config ->
  result
(** Fast-forwards from [start] until the graph runs out. [max_retired]
    bounds the number of instructions this call may retire via replay
    (strategy-engine interval boundaries, docs/STRATEGY.md); a group that
    would reach or cross it is handed back as [Replay_budget]. [cycle] is
    advanced for fully replayed groups, and [classes] accumulates their
    per-FU-class retirement counts (indexed by [Isa.Instr.fu_index]); on
    divergence the cycle counter is left at the start of the diverging
    group (the detailed simulator re-simulates that group's cycles).

    [trace] makes fast-forwarded regions observable (the memoized engine is
    otherwise a black box): each run emits an [engine]-category [replay]
    span, and each fully replayed group emits a synthetic
    [memo]/[group_replayed] instant plus a cumulative [retired] counter
    sample, reconstructed from the recorded action chains as they are
    walked. [metrics] feeds the [memo.replay_chain_length] and
    [memo.episode_cycles] histograms. Both are strictly passive (see
    docs/OBSERVABILITY.md). [fault_every] defaults to {!fault_period}. *)

val fault_period : unit -> int
(** The test-only fault-injection period from [FASTSIM_REPLAY_FAULT_EVERY]
    (docs/FUZZ.md; 0 when unset): every n-th replayed group charges one
    extra cycle. Engines read it once per simulation. *)
