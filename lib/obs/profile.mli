(** Host-profiling hooks: monotonic wall-clock timers partitioning
    simulator time into phases.

    Accounting is {e exclusive}: entering a nested phase stops the clock of
    the enclosing one, so the per-phase seconds sum to the total elapsed
    time. Time spent outside any phase accrues to {!Other}.

    The engines map their work onto phases as follows: the detailed
    cycle-by-cycle simulator runs under {!Detailed}; the memo write path
    it drives at each group boundary (snapshot intern, group merge,
    stride compaction, the cache budget check and any flush) nests
    {!Record} inside it; fast-forwarding runs under {!Replay}; each
    oracle call nests {!Cachesim} (cache loads/stores) or {!Emulation}
    (direct-execution control pulls and rollbacks) inside whichever of
    the two is active. *)

type phase = Detailed | Record | Replay | Cachesim | Emulation | Other

type t

val create : unit -> t
(** The clock starts immediately; unattributed time accrues to {!Other}. *)

val enter : t -> phase -> unit
val leave : t -> unit
(** Unbalanced [leave] (empty phase stack) is a no-op. *)

val with_phase : t -> phase -> (unit -> 'a) -> 'a
(** [enter]/[leave] around a thunk, exception-safe. *)

val stop : t -> unit
(** Charges time since the last transition and stops accumulating; called
    automatically by the reporting functions below. Safe to call twice. *)

val seconds : t -> phase -> float
val total : t -> float
val phase_name : phase -> string
val all_phases : phase list

val to_json : t -> Json.t
(** [{ "detailed": s, "record": s, "replay": s, "cachesim": s,
      "emulation": s, "other": s, "total": s }] *)

val pp : Format.formatter -> t -> unit
(** A small table: seconds and percentage per phase. *)
