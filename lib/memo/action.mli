(** P-action cache data model (paper §4.2, Figures 5–6).

    The p-action cache is a graph: {e configuration} nodes (compressed
    µ-architecture snapshots) each own a {e group} — the number of silent
    cycles until the next interaction cycle, the instructions retired over
    those cycles, and a chain of {e action} nodes describing the
    interactions of that final cycle in order. Actions whose outcome varies
    (cache-load latencies, control-flow outcomes) branch: each previously
    seen outcome labels an edge to the rest of the chain. The last action
    of a group links to the following configuration, "forming an unbroken
    chain of actions" that fast-forwarding walks without re-running the
    detailed simulator. *)

type ctl = Uarch.Oracle.ctl_outcome

type item =
  | I_load of int     (** a load issued to the cache; payload = latency. *)
  | I_store           (** a store issued to the cache. *)
  | I_ctl of ctl      (** a control outcome pulled from direct execution. *)
  | I_rollback of int (** a misprediction repair; payload = bQ index. *)

type node =
  | N_load of load_node
  | N_store of node
  | N_ctl of ctl_node
  | N_rollback of int * node
  | N_halt
  | N_goto of goto_node
  | N_stride of stride_node

and load_node = { mutable l_edges : (int * node) list }
and ctl_node = { mutable c_edges : (ctl * node) list }

and goto_node = { mutable target : config }
(** Mutable so collections can "fix pointers" lazily: when a target was
    evicted and later regenerated, the first traversal re-points the edge
    to the live node (the moral equivalent of the copying collector's
    pointer forwarding). *)

and stride_node = {
  s_ops : item array;  (** the owner group's interaction items. *)
  s_segs : stride_seg array;
      (** the absorbed successor groups, in chain order — the replay
          engine's materialised view; always consistent with [s_rule]. *)
  s_term : node;  (** the run's final [N_goto] or [N_halt]. *)
  s_rule : rule;
      (** the canonical grammar-compressed form of [s_segs] in the
          owning {!Store}: hash-consed, suffix-deduplicated across
          strides (and, through a shared store, across specs and
          shards). The stride holds one reference; {!Pcache} releases it
          when the stride is expanded or discarded. *)
}
(** A stride: a linear run of groups — every action on the run has exactly
    one recorded outcome — collapsed into one node and replayed as one
    step ({!Pcache.compact}). Only ever appears as a group's [g_first].
    The owner keeps its group (with the stride as its chain); absorbed
    configurations stay interned but lose theirs, and on any mid-stride
    divergence the run is expanded back into exact plain groups before
    the detailed simulator takes over. *)

and stride_seg = {
  sg_cfg : config;      (** the absorbed configuration (still interned). *)
  sg_silent : int;
  sg_retired : int;
  sg_classes : int array;
  sg_ops : item array;  (** its single recorded outcome sequence. *)
}

and rule = {
  ru_id : int;         (** creation order within the owning store. *)
  ru_hash : int;
      (** hash of the owning store's shallow structural key: the node's
          payload plus the identities ([ru_id]) of its children. *)
  ru_node : rule_node;
  ru_nsegs : int;      (** segments after full expansion. *)
  ru_bytes : int;      (** modeled bytes of this node alone. *)
  mutable ru_refs : int;
      (** parent rules + external holders; managed by {!Store}. *)
}
(** A grammar-compressed chain rule (docs/INTERNALS.md "Memoization 2.0"):
    an immutable cons spine over {e portable} segments, hash-consed by
    its owning {!Store} so identical suffixes are
    stored once, with [R_rep] capturing tandem repetition (loop bodies)
    — the body is itself a rule, so nesting expresses loop nests. *)

and rule_node =
  | R_nil
  | R_seg of { rs_seg : pseg; rs_rest : rule }
  | R_rep of { rp_body : rule; rp_count : int; rp_rest : rule }

and pseg = {
  pg_key : Uarch.Snapshot.key;
      (** the absorbed configuration's {e key} — not its node, so a rule
          never pins a particular p-action cache's intern table and can
          be shared across caches of the same program. *)
  pg_silent : int;
  pg_retired : int;
  pg_classes : int array;
  pg_ops : item array;
}

and config = {
  cfg_key : Uarch.Snapshot.key;
  cfg_hash : int;
      (** FNV-1a hash of [cfg_key] ([Uarch.Snapshot.hash_key]), computed
          once at intern time so table probes never rehash. *)
  cfg_bytes : int;  (** modeled size (paper's accounting). *)
  mutable cfg_action_bytes : int;
      (** modeled bytes of the action nodes this config's group owns. *)
  mutable cfg_group : group option;
  mutable cfg_touched : int;   (** GC epoch of last use. *)
  mutable cfg_hits : int;      (** times the replay engine visited this. *)
  mutable cfg_dropped : bool;  (** evicted from the table by a collection. *)
  mutable cfg_old_gen : bool;  (** promoted by the generational collector. *)
  mutable cfg_mark : int;
      (** stamp of the last stride compaction that visited this config
          (its O(1) cycle check); meaningless outside [Pcache.compact]. *)
}

and group = {
  g_silent : int;   (** cycles before the interaction cycle. *)
  g_retired : int;  (** instructions retired across the whole group. *)
  g_classes : int array;
      (** retired counts per functional-unit class
          (indexed by [Isa.Instr.fu_index]); replayed like [g_retired], so
          instruction-mix statistics are identical under memoization. *)
  g_first : node;
}

type terminal = T_goto of config | T_halt
(** How a recorded group ends: linked to the next configuration — already
    interned by the caller, typically via the zero-allocation
    [Pcache.intern_arena] — or the retirement of [Halt]. *)

val ctl_equal : ctl -> ctl -> bool
(** Dedicated structural equality for control outcomes. The replay engine
    and the p-action cache merge walk use this (never polymorphic [=]) to
    match live outcomes against recorded edges. *)

val item_equal : item -> item -> bool

val pseg_equal : pseg -> pseg -> bool
(** Structural equality on portable segments (items via {!item_equal});
    used by the store's tandem-repeat detector. *)

val load_edge : int -> (int * node) list -> node option
(** Looks up a latency edge with [Int.equal]. *)

val ctl_edge : ctl -> (ctl * node) list -> node option
(** Looks up a control-outcome edge with {!ctl_equal}. *)

val node_bytes : node -> int
(** Modeled size of one action node (excluding nodes it links to):
    16 bytes for outcome-branching actions plus 8 per additional edge,
    8 bytes for the rest. *)

val pp_item : Format.formatter -> item -> unit
val pp_node_shallow : Format.formatter -> node -> unit
