(** The detailed (cycle-by-cycle) out-of-order pipeline simulator.

    Models an R10000-like processor (the paper's Figure 1 / Table 1 at
    the default {!Params}): configurable fetch/decode/issue/retire
    widths, per-port issue queues and unit counts, per-class latencies,
    a bounded physical register file behind an explicit rename stage
    ({!Rename}: freelist + branch shadow maps), and speculation through
    a bounded number of conditional branches. Structural occupancies are
    recomputed every cycle from the iQ, and the rename state is a
    deterministic function of the iQ (rebuilt on {!restore}), so the
    iQ + fetch state remains the complete inter-cycle state.

    The simulator is timing-only: it never sees program data. Addresses
    reach the cache simulator through the {!Oracle.t}, control-flow
    outcomes arrive through it, and that is the complete interface.

    Determinism contract (the foundation of fast-forwarding): two [t]
    values with equal {!snapshot}s, stepped with oracles that return equal
    outcomes, perform identical oracle calls in identical order and end in
    equal snapshots. This is tested property-style in the test suite. *)

type t

val create : ?params:Params.t -> Isa.Program.t -> t
(** Pipeline empty, fetch starting at the program entry point. *)

val create_at : ?params:Params.t -> Isa.Program.t -> pc:int -> t
(** Like {!create} but fetching from [pc] instead of the entry point:
    the cold-start state of a strategy-engine interval whose functional
    checkpoint resumes mid-program (docs/STRATEGY.md). *)

val restore :
  ?params:Params.t -> ?from:t -> Isa.Program.t -> Snapshot.key -> t
(** Rebuilds a simulator from a configuration snapshot. [from], an
    earlier simulator of the same program, lends its pre-decoded program
    table ({!Pipeline.decoded}); without it (or for another program) the
    table is built afresh. *)

type cycle_result = {
  retired : int;      (** instructions retired this cycle. *)
  interactions : int; (** oracle calls made this cycle. *)
  halted : bool;      (** a [Halt] retired: simulation is complete. *)
}

val step_cycle : t -> now:int -> Oracle.t -> cycle_result
(** Simulates one cycle: retire, execute/complete (issuing loads and stores
    to the cache as their address generation finishes, resolving branches,
    triggering rollbacks), issue, decode/rename, fetch. [now] is the
    current cycle number, used only to timestamp cache calls. *)

val snapshot : t -> Snapshot.key
(** The current configuration (valid between cycles). *)

val snapshot_arena : t -> Snapshot.Arena.t
(** Like {!snapshot}, but encodes into this simulator's reusable scratch
    arena (no allocation) and returns it. The arena is overwritten by the
    next [snapshot_arena] call on the same [t]; callers must consume (or
    intern) it first. *)

val halted : t -> bool

val retired_by_class : t -> int array
(** Cumulative retired-instruction counts per functional-unit class,
    indexed by {!Isa.Instr.fu_index} (a fresh copy). *)

val in_flight : t -> int
(** Number of iQ entries (for tests and diagnostics). *)

val free_phys : t -> int * int
(** Free (integer, FP) physical registers on the rename stage's freelists
    (for tests and diagnostics). *)

val fetch_state : t -> Pipeline.fetch_state

val dump : Format.formatter -> t -> unit
(** Human-readable pipeline dump for debugging and the examples. *)
