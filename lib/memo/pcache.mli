(** The p-action cache: configurations, action chains, and the replacement
    policies of paper §4.3.

    Sizes are tracked in {e modeled bytes} (the paper's accounting: 16 bytes
    + 1.5 per instruction + 4 per indirect jump for configurations; small
    fixed costs per action and per outcome edge), so budget experiments
    (Figure 7) are directly comparable with the paper regardless of the
    OCaml heap representation. *)

type policy =
  | Unbounded
      (** trivial policy: grow without limit. *)
  | Flush_on_full of int
      (** discard everything when modeled bytes exceed the budget. *)
  | Copying_gc of int
      (** when over budget, keep only configurations (and their action
          chains) used since the last collection. *)
  | Generational_gc of { nursery : int; total : int }
      (** two generations: recently used nursery configurations promote to
          the old generation on a minor collection; a full collection runs
          when the total budget is exceeded. *)

type t

exception Determinism_violation of string
(** Raised if a recorded group disagrees with the graph — e.g. a replayed
    path re-recorded with a different silent-cycle count or action
    sequence. This can only mean the detailed simulator is not a pure
    function of (configuration, outcomes): a memoization-soundness bug. *)

val create : ?policy:policy -> ?store:Store.t -> unit -> t
(** [store] is the chain store stride rules are interned into — pass one
    shared instance to let several caches of the same program dedupe
    their compressed chains (the serve registry does, keyed by
    [program_digest] only); defaults to a fresh private store. Creation
    registers the cache as a store holder ({!Store.addref});
    {!release_rules} deregisters it. *)

val policy : t -> policy

val store : t -> Store.t
(** The chain store this cache interns into (shared or private). *)

val release_rules : t -> unit
(** Returns every rule reference this cache holds (one per stride) to
    the store and deregisters the cache as a holder. Call exactly once,
    when discarding the cache while its — possibly shared — store lives
    on; the registry's eviction path does. The cache must not record or
    replay afterwards. *)

val attach_obs :
  t ->
  ?trace:Fastsim_obs.Trace.t ->
  ?metrics:Fastsim_obs.Metrics.t ->
  now:(unit -> int) ->
  unit ->
  unit
(** Attaches observability (docs/OBSERVABILITY.md) to this cache: [pcache]
    category [insert] / [flush] / [minor_gc] / [full_gc] trace events
    (timestamped with [now ()], the simulated cycle), plus the
    [pcache.inserts] / [pcache.intern_hits] counters and the
    [pcache.modeled_bytes] gauge. Attached after creation because a
    (possibly warm-started) cache outlives any one engine run; the fast
    engine calls this when given an observability context. Strictly
    passive: recording and replacement behaviour are unaffected. *)

val detach_obs : t -> unit
(** Removes any attached instruments (the engine detaches on exit so a
    persisted or reused cache does not keep a stale cycle source). *)

val intern : t -> Uarch.Snapshot.key -> Action.config
(** Finds or creates the configuration node for a key. *)

val intern_arena : t -> Uarch.Snapshot.Arena.t -> Action.config
(** Like {!intern}, but probes the table directly with the arena's bytes
    and precomputed FNV-1a hash ({!Uarch.Snapshot.Arena.hash}): a warm hit
    materialises no string and allocates nothing. Only a miss pays for
    {!Uarch.Snapshot.Arena.key}. This is the engine's hot path. *)

val find : t -> Uarch.Snapshot.key -> Action.config option

val find_arena : t -> Uarch.Snapshot.Arena.t -> Action.config option
(** Zero-allocation lookup against an arena (no interning on miss). *)

val merge_group :
  t ->
  Action.config ->
  silent:int ->
  retired:int ->
  classes:int array ->
  items:Action.item list ->
  terminal:Action.terminal ->
  Action.config option
(** Records one group under a configuration: creates the group if the
    configuration had none, otherwise walks the existing chain and grafts
    the suffix after the first unseen outcome (Figure 6). Returns the
    successor configuration for [T_goto], [None] for [T_halt].

    When the successor already owns a group (the engine is about to switch
    from recording to replay — typically a loop just closed), its chain is
    offered to {!compact}. *)

val compact : t -> Action.config -> bool
(** Stride compaction (docs/INTERNALS.md "Hot path"): if [config]'s group
    heads a linear run — every action on the chain and on its successors'
    chains has exactly one recorded outcome — collapse up to 64 successor
    groups into a single {!Action.N_stride} replayed as one step. The
    absorbed configurations stay interned but lose their groups; modeled
    bytes shrink accordingly. Returns whether anything was compacted. *)

val expand_stride : t -> Action.config -> Action.config array
(** Exact inverse of {!compact}: rebuilds the plain per-configuration
    groups a stride absorbed (preferring live twins of since-evicted
    configurations) and re-attaches a plain chain to the owner. Returns
    the absorbed configurations in chain order, [[||]] if the owner's
    group is not a stride. The replay engine calls this before reporting
    a mid-stride divergence so the detailed simulator resumes against
    plain chains. *)

val resolve_goto : t -> Action.goto_node -> Action.config
(** Follows a group-terminating link, transparently re-pointing edges whose
    target was evicted but has since been regenerated. *)

val touch : t -> Action.config -> unit
(** Marks a configuration as used in the current collection epoch (called
    by the replay engine). *)

val check_budget : t -> [ `Kept | `Flushed | `Collected ]
(** Applies the replacement policy if the budget is exceeded. After
    anything but [`Kept], configuration nodes previously obtained from
    [intern] may be stale; callers must re-intern the keys they hold. *)

type counters = {
  static_configs : int;   (** configurations allocated over the whole run. *)
  static_actions : int;   (** action nodes allocated over the whole run. *)
  live_configs : int;
  modeled_bytes : int;
  peak_modeled_bytes : int;
  flushes : int;
  minor_collections : int;
  full_collections : int;
  last_gc_survivors : int;
  last_gc_population : int;
  stride_compactions : int;  (** linear runs collapsed ({!compact}). *)
  stride_expansions : int;   (** strides expanded back on divergence. *)
}

val counters : t -> counters
val iter_configs : (Action.config -> unit) -> t -> unit

val iter_chain : (Action.node -> unit) -> Action.node -> unit
(** Visits every node of an action chain once, depth first, with an
    explicit worklist (no stack proportional to chain depth). *)

val install_group :
  t -> Action.config -> silent:int -> retired:int -> classes:int array ->
  first:Action.node -> unit
(** Low-level constructor used by {!Persist.Codec.load}: attaches a prebuilt
    action chain to a group-less configuration and accounts its size.
    Raises {!Determinism_violation} if the configuration already has a
    group. *)
