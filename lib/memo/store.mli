(** Immutable, refcounted chain store (docs/INTERNALS.md
    "Memoization 2.0").

    A store owns grammar-compressed chain rules ({!Action.rule}):
    cons spines over portable segments, hash-consed by shallow structural
    key (payload plus child identity) so
    identical chain suffixes — within one stride, across strides, and
    across the p-action caches of every spec sharing the store — are
    represented once, with [R_rep] nodes capturing tandem repetition
    (loop bodies, nested). Rules are immutable; the store tracks their
    reference counts ([ru_refs] = parent rules + external holders such
    as a stride's [s_rule]) and frees a rule's modeled bytes when the
    last reference goes away.

    One store instance is shareable across specs and shards keyed by
    [program_digest] only (see {!Fastsim_serve.Registry.chain_store}):
    rules reference configurations by snapshot {e key}, never by node,
    so they are meaningful in any p-action cache of the same program. *)

type t

type counters = {
  live_rules : int;          (** rules currently in the table. *)
  live_rep_rules : int;      (** of which [R_rep]. *)
  modeled_bytes : int;       (** summed [ru_bytes] of live rules. *)
  peak_modeled_bytes : int;
  holders : int;             (** attached caches / registry entries. *)
  interned_runs : int;       (** {!intern_segs} calls. *)
  dedup_hits : int;          (** constructions answered by hash-consing. *)
  released_rules : int;      (** rules freed at refcount zero. *)
}

val create : ?budget_bytes:int -> ?max_rep_depth:int -> unit -> t
(** [budget_bytes] is advisory: the store never refuses an intern (rules
    may arrive from a persist stream that must load whole), but
    {!over_budget} flips and producers — {!Pcache.compact} — stop
    creating new rules. [max_rep_depth] bounds [R_rep] nesting
    (default 8); 0 disables repeat detection entirely. *)

val nil : t -> Action.rule
(** The empty rule. Pinned: retain/release on it are no-ops. *)

val intern_segs : t -> Action.pseg array -> Action.rule
(** Rewrites a flat segment run as a (possibly nested) rule, folding
    tandem repeats that save modeled bytes into [R_rep] nodes and
    hash-consing every node. The returned rule carries one reference
    owned by the caller; release it with {!release}. *)

val cons : t -> Action.pseg -> Action.rule -> Action.rule
(** Hash-consed single-segment extension. The returned rule is {e not}
    retained for the caller (use {!retain}); a freshly created node
    retains its children itself. *)

val rep : t -> body:Action.rule -> count:int -> Action.rule -> Action.rule
(** Hash-consed repetition node ([count] ≥ 2, non-empty body). Same
    ownership convention as {!cons}. *)

val retain : Action.rule -> unit

val release : t -> Action.rule -> unit
(** Drops one reference; at zero the rule leaves the table, its modeled
    bytes are returned, and the release cascades into its children.
    Raises [Invalid_argument] on a rule whose count is already zero. *)

val expand : Action.rule -> Action.pseg array
(** The exact inverse of {!intern_segs}: the flat segment run, worklist
    iteration (no stack proportional to chain length). *)

val prune_dead : t -> unit
(** Releases any refs-0 rules left in the table — only possible after an
    abandoned persist load whose rule table held entries no stride ended
    up referencing. *)

val bytes : t -> int
(** Modeled bytes of all live rules. *)

val live_rules : t -> int
val over_budget : t -> bool
val budget_bytes : t -> int option

val addref : t -> unit
(** Registers an external holder (a p-action cache attaching, a registry
    entry binding); {!decref} reverses. Purely observational — the store
    is never torn down by holder count — but surfaced in serve stats to
    prove cross-spec sharing. *)

val decref : t -> unit
val holders : t -> int

val counters : t -> counters
