(** The boundary between the µ-architecture simulator and the rest of
    FastSim.

    Everything the detailed simulator learns from outside — cache latencies
    and control-flow outcomes — and every effect it causes outside —
    issuing loads/stores to the cache simulator, rolling back direct
    execution — flows through this record. This is precisely the set of
    "simulator actions" that fast-forwarding must record and replay
    (paper §4.2); keeping the interface this narrow is what makes
    configurations + outcomes a complete determinant of behaviour. *)

type ctl_outcome =
  | C_cond of { taken : bool; mispredicted : bool }
      (** Outcome of the next conditional branch on the fetch path: the
          four-way taken/not-taken × predicted/mispredicted outcome of the
          paper. *)
  | C_indirect of { target : int; hit : bool }
      (** Outcome of the next indirect jump: actual target, and whether the
          front-end predicted it (BTB/RAS hit with the correct target). *)
  | C_stalled
      (** Direct execution cannot supply the outcome because the (wrong)
          path faulted or reached [Halt] speculatively; fetch must stall
          until a rollback. *)

val cond : taken:bool -> mispredicted:bool -> ctl_outcome
(** [C_cond { taken; mispredicted }] as one of four shared, preallocated
    values, so reporting a conditional outcome allocates nothing. *)

type t = {
  cache_load : now:int -> int;
      (** Issue the oldest pending load to the cache simulator at cycle
          [now]; returns the latency until its data is available (>= 1). *)
  cache_store : now:int -> unit;
      (** Issue the oldest pending store to the cache simulator. *)
  fetch_control : unit -> ctl_outcome;
      (** Ask direct execution for the next control-flow outcome on the
          fetch path. *)
  rollback : index:int -> unit;
      (** Repair the [index]-th oldest outstanding misprediction in direct
          execution (restore registers and memory, resume on the corrected
          path). *)
}
