(** The FastSim driver: speculative direct-execution + out-of-order timing
    simulation, with or without fast-forwarding (paper Figures 2 and 4).

    Two engines over identical components, selected by {!run}:

    - [`Slow] — "SlowSim": the detailed µ-architecture simulator runs
      every cycle (memoization disabled, nothing recorded).
    - [`Fast] — "FastSim": µ-architecture configurations and simulator
      actions are recorded in a p-action cache and replayed on repeat
      visits.

    Both produce {e identical} cycle counts and statistics — the paper's
    central claim, enforced by an extensive equivalence test suite.

    Both engines accept an optional {!Fastsim_obs.Ctx.t} observability
    context (event tracing, metrics, host profiling — see
    [docs/OBSERVABILITY.md]) through {!Spec.with_obs}. Observability is
    strictly passive: every field of {!result} is bit-identical with and
    without it, which the equivalence suite also enforces. *)

exception Deadlock of string
(** Raised when the pipeline makes no progress for an implausibly long
    time; indicates a broken test program (e.g. an infinite loop of direct
    jumps) or a simulator bug. Hitting a caller-supplied [max_cycles]
    budget is {e not} a deadlock: it returns a normal {!result} with
    [truncated = true]. *)

type branch_stats = {
  conditionals : int;  (** conditional-branch outcomes fetched. *)
  mispredicted : int;
  indirects : int;     (** indirect-jump outcomes fetched. *)
  misfetched : int;    (** indirect jumps the front end could not predict. *)
}

(** How to spread a strategy engine's interval work over workers. [f_map]
    evaluates [f 0 .. f (n-1)] (in any order, possibly concurrently) and
    returns the results in index order, [None] for a worker that crashed
    or was skipped — the stitcher repairs such intervals serially.
    [f_pcache_mode] says whether workers may share the caller's p-action
    cache ([`Inherit]: same process or fork-with-COW) or must build their
    own ([`Isolate]: e.g. domains, where sharing would race).
    {!Fastsim_exec.Strategy_pool.fanout} builds one over the process
    pool; {!inline_fanout} runs workers sequentially in-process. *)
type fanout = {
  f_map : 'a. (int -> 'a) -> int -> 'a option array;
  f_pcache_mode : [ `Inherit | `Isolate ];
}

val inline_fanout : fanout

(** Simulation strategy (docs/STRATEGY.md):

    - [Serial] — the plain engines; exact.
    - [Parallel] — time-parallel simulation: the program is split at
      functional checkpoints every [interval_insns] retired instructions;
      each interval is simulated independently (cold microarchitectural
      start [warmup_insns] earlier), and intervals whose boundary state
      matches the exact boundary are stitched, the rest re-simulated
      serially. The result is {e bit-identical} to the serial run.
    - [Sampled] — SMARTS-style sampling: every [sample_period] retired
      instructions, a window of [warmup_insns] (detailed, discarded) +
      [sample_insns] (measured) runs from a functional checkpoint; timing
      statistics are scaled estimates with per-statistic relative-error
      bounds in [provenance.prov_errors]; architectural results
      ([retired], [retired_by_class], [emulated_insts], [final_state])
      stay exact. *)
type strategy =
  | Serial
  | Parallel of {
      interval_insns : int;
      warmup_insns : int;
      fanout : fanout option;  (** [None] = {!inline_fanout}. *)
    }
  | Sampled of {
      sample_insns : int;
      sample_period : int;
      warmup_insns : int;
    }

(** How a non-serial strategy produced its result. *)
type provenance = {
  prov_strategy : string;  (** ["parallel"] or ["sampled"]. *)
  prov_intervals : int;    (** intervals simulated / windows sampled. *)
  prov_accepted : int;     (** parallel: intervals stitched speculatively. *)
  prov_repaired : int;     (** parallel: intervals re-simulated serially. *)
  prov_fallback : string option;
      (** set when the strategy fell back to a plain serial run (e.g.
          ["single-interval"], ["baseline-engine"], ["max-cycles"]). *)
  prov_errors : (string * float) list;
      (** sampled: relative 95%-confidence error per statistic. *)
}

val strategy_to_string : strategy -> string
(** ["serial"], ["parallel:INSNS:WARMUP"] or
    ["sampled:INSNS:PERIOD:WARMUP"] — the CLI/fuzz syntax. *)

val strategy_of_string : string -> (strategy, string) Stdlib.result
(** Inverse of {!strategy_to_string} (modulo [fanout], which is
    runtime-only and decodes to [None]). *)

type result = {
  cycles : int;             (** simulated cycles to program completion. *)
  retired : int;            (** instructions retired (includes [Halt]). *)
  retired_by_class : int array;
      (** retired instructions per functional-unit class, indexed by
          {!Isa.Instr.fu_index} — identical between engines, part of the
          paper's "all other processor statistics" claim. *)
  emulated_insts : int;     (** architectural instructions executed by
                                direct execution (excludes [Halt]). *)
  wrong_path_insts : int;   (** speculative instructions executed and then
                                rolled back. *)
  branches : branch_stats;  (** fetched control-flow outcomes (includes
                                wrong-path branches, which real hardware
                                also predicts); identical between
                                engines. *)
  cache : Cachesim.Hierarchy.stats;
  memo : Memo.Stats.t option;          (** FastSim only. *)
  pcache : Memo.Pcache.counters option;(** FastSim only. *)
  final_state : Emu.Arch_state.t;      (** architectural register state. *)
  truncated : bool;
      (** the run stopped at the [max_cycles] budget before the program
          halted. A truncated result is still exact for the cycles that
          ran: [cycles] equals the budget and every statistic reflects the
          simulation up to that point, identically for the fast and slow
          engines at {e every} truncation point (enforced by a property
          test sweeping budgets across replay-group boundaries). *)
  provenance : provenance option;
      (** [None] for serial runs (so serialised serial results are
          byte-identical to pre-strategy versions); [Some] whenever {!run}
          was given a non-serial strategy, including fallbacks. *)
}

type predictor_kind = Standard | Not_taken | Taken
(** [Standard] is the paper's front end (2-bit/512 BHT + BTB + RAS). *)

type engine = [ `Fast | `Slow | `Baseline ]
(** The three timing engines behind {!run}: the memoizing simulator, the
    detailed-every-cycle simulator, and the SimpleScalar-style
    register-update-unit baseline. ([Fastsim.Sim.functional] remains a
    separate, untimed entry point.) *)

(** A simulation specification: every knob of every engine in one record,
    with builder-style setters —

    {[
      Sim.Spec.default
      |> Sim.Spec.with_predictor Sim.Not_taken
      |> Sim.Spec.with_policy (Memo.Pcache.Flush_on_full 16_384)
      |> Sim.run ~engine:`Fast
    ]}

    The record splits into a {e serialisable} part (params, cache_config,
    predictor, max_cycles, policy — see {!Spec.to_json} and
    {!Spec.of_json_result}) that sweep manifests and reports use to
    identify a configuration, and a {e runtime-only} part (pcache, obs,
    observer) that cannot cross a process boundary and is never
    serialised. *)
module Spec : sig
  type observer =
    int -> Uarch.Detailed.t -> Uarch.Detailed.cycle_result -> unit
  (** Per-cycle callback, honoured by the slow engine only (a
      fast-forwarded cycle never exists concretely to call it on). *)

  type t = {
    params : Uarch.Params.t;
    cache_config : Cachesim.Config.t;
    predictor : predictor_kind;
    max_cycles : int;         (** cycle budget; [max_int] = unlimited. *)
    policy : Memo.Pcache.policy;   (** fast engine only. *)
    pcache : Memo.Pcache.t option;
        (** warm p-action cache (fast engine only); overrides [policy]. *)
    store : Memo.Store.t option;
        (** chain store freshly created p-action caches intern stride
            rules into (fast engine only; ignored when [pcache] is set —
            a warm cache brings its own). The serve registry passes one
            shared store per program so every spec's cache dedupes its
            compressed chains against the others'. Runtime-only, never
            serialised. *)
    obs : Fastsim_obs.Ctx.t option;
    observer : observer option;
  }

  val default : t
  (** The paper's Table 1 processor and cache, standard predictor,
      unbounded p-action cache, no cycle limit, no instrumentation. *)

  val with_params : Uarch.Params.t -> t -> t
  val with_cache_config : Cachesim.Config.t -> t -> t
  val with_predictor : predictor_kind -> t -> t
  val with_max_cycles : int -> t -> t
  val with_policy : Memo.Pcache.policy -> t -> t
  val with_pcache : Memo.Pcache.t -> t -> t
  val with_store : Memo.Store.t -> t -> t
  val with_obs : Fastsim_obs.Ctx.t -> t -> t
  val with_observer : observer -> t -> t

  val predictor_to_string : predictor_kind -> string
  val predictor_of_string : string -> (predictor_kind, string) Stdlib.result

  val policy_to_string : Memo.Pcache.policy -> string
  (** ["unbounded"], ["flush:BYTES"], ["copy:BYTES"] or
      ["gen:NURSERY:TOTAL"] — the syntax the CLI and manifests accept. *)

  val policy_of_string : string -> (Memo.Pcache.policy, string) Stdlib.result

  val engine_to_string : engine -> string
  val engine_of_string : string -> (engine, string) Stdlib.result

  val version : int
  (** Current spec wire-format version, emitted by {!to_json}. Version 1
      is the pre-versioning format (a document without a ["version"]
      field); version 2 added [params.issue_width], [params.fu_latency]
      and [params.issue_ports]. {!of_json_result} accepts versions
      [1..version] — every new field overlays the default the older
      engine hard-coded, so old documents decode to identical behaviour —
      and rejects later versions. *)

  val params_to_json : Uarch.Params.t -> Fastsim_obs.Json.t
  val cache_config_to_json : Cachesim.Config.t -> Fastsim_obs.Json.t

  val to_json : t -> Fastsim_obs.Json.t
  (** Serialises the configuration part of the spec. Runtime-only fields
      (pcache, obs, observer) are omitted; [max_cycles] is omitted when
      unlimited. *)

  val of_json_result : Fastsim_obs.Json.t -> (t, string) Stdlib.result
  (** Decodes a (possibly partial) spec object by overlaying its fields
      on {!default}; [params] and [cache_config] sub-objects may also be
      partial. Unknown keys, {e duplicate} keys and ill-typed values are
      errors, so a manifest typo — or a malformed wire request — fails
      loudly instead of silently running the default (or last-wins)
      configuration, and every error message names the JSON path of the
      offending value (e.g. [$.params.fu_latency.mem]). This is the
      primary decoder; the serve daemon, manifest reader and fuzz
      loaders all consume untrusted input through it. *)

  val params_of_json_result :
    Fastsim_obs.Json.t -> (Uarch.Params.t, string) Stdlib.result

  val cache_config_of_json_result :
    Fastsim_obs.Json.t -> (Cachesim.Config.t, string) Stdlib.result

  (** {2 Self-describing schema}

      One {!schema_field} per JSON path the decoders accept, used by
      [fastsim spec schema] and [fastsim sweep --list-params] (and kept
      in lock-step with the decoders; [docs/CONFIG.md] is the prose
      companion). *)

  type schema_field = {
    sf_path : string;     (** JSON path, e.g. ["$.params.fetch_width"]. *)
    sf_type : string;     (** human-readable expected type. *)
    sf_default : string;  (** rendered default value. *)
    sf_doc : string;      (** one-line description. *)
  }

  val schema : schema_field list

  val schema_to_json : unit -> Fastsim_obs.Json.t
  (** [{"version": v, "fields": [{"path", "type", "default", "doc"}...]}] *)
end

val result_to_json : result -> Fastsim_obs.Json.t
(** Serialises a {!result} completely — including [final_state] and the
    optional [memo]/[pcache] statistics (omitted when [None]) — so that
    {!result_of_json} decodes it back structurally equal ([=]); float
    fields rely on {!Fastsim_obs.Json}'s exact round-trip printing. Also
    emits derived conveniences for human consumers ([ipc],
    [memo.detailed_fraction], [memo.avg_chain]) which the decoder accepts
    but ignores. The sweep report and the serve daemon's [result] frames
    both use this encoding. *)

val result_of_json : Fastsim_obs.Json.t -> (result, string) Stdlib.result
(** Strict decoder for {!result_to_json}'s output: unknown keys,
    duplicate keys, ill-typed values and missing required fields are
    errors. *)

val run : ?strategy:strategy -> engine:engine -> Spec.t -> Isa.Program.t -> result
(** Runs one simulation under [strategy] (default [Serial]). Non-serial
    strategies apply to [`Fast] and [`Slow] only ([`Baseline] falls back
    to a plain serial run, recorded in [provenance]); they ignore
    [Spec.obs]/[Spec.observer] (segments run uninstrumented) and report
    [memo = None]/[pcache = None]. [Parallel] results are bit-identical
    to the serial run of the same spec and engine (including truncation
    at [max_cycles]); [Sampled] results are estimates (exact
    architectural fields, scaled timing statistics with error bounds in
    [provenance]) and fall back to serial when [max_cycles] is bounded.

    [`Fast] and [`Slow] produce identical cycle
    counts and statistics (the paper's central claim); [`Baseline] runs
    the SimpleScalar-style model, which ignores [params], [predictor]
    (it has its own fixed front end matching the default configuration),
    [policy], [pcache], [obs] and [observer], and reports only the
    statistics its model tracks — [retired_by_class], [emulated_insts]
    and the conditional/indirect fetch counts are zero, [mispredicted]
    is real.

    For [`Fast], [Spec.pcache] starts from (and extends) an existing
    p-action cache — e.g. one restored with {!Memo.Persist.Codec.load} for the
    same program — and ignores [Spec.policy].

    [Spec.obs] attaches the observability layer to either timing engine:
    an event-trace sink (pipeline, cache and memoization events), a
    metrics registry, and host-profiling phase timers. Under memoization,
    fast-forwarded regions emit {e synthetic} events reconstructed from
    the replayed action chains (control outcomes, cache misses, per-group
    retirement, p-action cache activity), so a FastSim trace covers both
    detailed and replayed execution. See [docs/OBSERVABILITY.md].

    [Spec.observer] is called after every [`Slow] cycle with the cycle
    number, the live pipeline (inspect it with {!Uarch.Detailed.dump} /
    {!Uarch.Detailed.snapshot}), and that cycle's result — the hook behind
    the CLI's pipeline-trace command. The per-cycle callback is
    slow-engine-only (a fast-forwarded cycle never exists concretely to
    call it on). *)

val functional :
  ?max_insts:int -> Isa.Program.t -> Emu.Arch_state.t * Emu.Memory.t * int
(** Pure functional execution (no timing): the "original, uninstrumented
    executable" baseline of Tables 2 and 3. Re-exported from
    {!Emu.Emulator.run_functional}. *)
