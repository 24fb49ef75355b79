(** Speculative direct-execution of SRISC programs.

    This module is the reproduction of FastSim's instrumented executable
    (paper §3.1–3.2): it executes target instructions functionally, in
    program order, while recording exactly the information the timing
    simulators need —

    - every load and store address (the lQ and sQ queues);
    - a control event at every conditional branch and indirect jump;
    - at every {e mispredicted} conditional branch, a register checkpoint
      (the bQ, at most {!max_checkpoints} deep) and, from then on, the
      pre-store value of every store so memory can be rolled back.

    Conditional branches are followed in the {e predicted} direction, so
    mispredicted paths execute for real — producing wrong-path loads,
    stores and further control events — until the µ-architecture simulator
    detects the misprediction and calls {!rollback_to}, which restores
    registers and memory and resumes execution at the corrected target.

    Indirect jumps (including returns) always follow their true target;
    the predicted target in the event lets the timing model decide whether
    fetch stalled (see DESIGN.md for this deliberate restriction of
    speculation to conditional branches). *)

type load_rec = { l_addr : int; l_width : int }
type store_rec = { s_addr : int; s_width : int }

type control =
  | Cond of {
      pc : int;
      taken : bool;
      predicted_taken : bool;
      fall_through : int;
      taken_target : int;
    }
  | Indirect of { pc : int; target : int; predicted : int option }
  | Halted of { pc : int }
      (** The program executed [Halt] on the architectural path. *)
  | Wedged of { pc : int }
      (** Wrong-path execution can no longer proceed (it ran off the code
          segment, misaligned an access, or reached [Halt] speculatively).
          Fetch must stall until a rollback repairs the path. *)

type t

exception Fault of string
(** Raised when the {e architectural} (non-speculative) path faults:
    executing outside the code segment, or a misaligned access. These
    indicate a broken test program, not a simulator condition. *)

val max_checkpoints : int
(** Capacity of the bQ. The processor model speculates through at most 4
    conditional branches, but direct execution runs one control event ahead
    of fetch (so that lQ/sQ always cover everything the pipeline can
    fetch), which can briefly add outstanding checkpoints; the capacity
    leaves headroom for that. *)

val create : ?read_ahead:bool -> ?predictor:Predictor.t -> Isa.Program.t -> t
(** Fresh emulator with the program loaded into memory and the PC at the
    entry point. Default predictor is {!Predictor.always_not_taken}.
    [read_ahead] (default true) pre-runs execution to the first control
    event so lQ/sQ always cover everything a decoupled pipeline can fetch;
    pass [false] when driving the emulator per-instruction with
    {!step_one}. *)

val next_event : t -> control
(** Runs forward to the next control event. If the emulator is already
    halted or wedged, returns that state again without executing. *)

val rollback_to : t -> index:int -> int
(** [rollback_to t ~index] repairs the misprediction of the [index]-th
    oldest outstanding checkpoint: restores its registers, unwinds all
    stores logged since it, discards it and all younger checkpoints, and
    resumes at the corrected target. Returns the corrected PC.
    Raises [Invalid_argument] if [index] is out of range. *)

val outstanding : t -> int
(** Number of unresolved misprediction checkpoints (depth of the bQ). *)

val pop_load : t -> load_rec
(** Consumes the oldest unconsumed lQ entry (µ-arch issues it to the cache
    simulator). Entries recorded on a squashed wrong path that were never
    consumed disappear at rollback. *)

val pop_store : t -> store_rec

val pop_load_addr : t -> int
(** {!pop_load} returning only the address, without allocating: what the
    cache simulator needs on the replay hot path. *)

val pop_store_addr : t -> int
(** Likewise for {!pop_store}. *)

val loads_pending : t -> int
val stores_pending : t -> int

val halted : t -> bool
val wedged : t -> bool

val insts_executed : t -> int
(** Instructions executed on the current (believed-correct) path; wrong-path
    work is subtracted again at rollback. *)

val wrong_path_insts : t -> int
(** Total instructions that were executed and later rolled back. *)

val state : t -> Arch_state.t
(** The live architectural state (shared, not a copy). *)

type stepped = {
  s_addr : int;               (** address of the executed instruction. *)
  s_event : control option;   (** control event produced, if any. *)
  s_load : load_rec option;   (** lQ entry recorded, if any. *)
  s_store : store_rec option; (** sQ entry recorded, if any. *)
}

val step_one : t -> stepped
(** Executes exactly one instruction, for simulators that interleave
    functional execution with timing per instruction (the
    SimpleScalar-style baseline). On an already halted or wedged emulator,
    returns the corresponding event without executing. Do not mix with
    {!next_event}'s read-ahead on the same instance. *)

val memory : t -> Memory.t

(** {1 Pure functional execution}

    The analogue of running the original, uninstrumented executable: no
    recording, no prediction, no speculation. Used as the "native execution
    time" baseline of Tables 2 and 3 and to cross-check architectural
    results. *)

val run_functional :
  ?max_insts:int -> Isa.Program.t -> Arch_state.t * Memory.t * int
(** [run_functional p] executes [p] to completion (or [max_insts]) and
    returns the final state, memory, and instruction count. *)

(** {1 Capture / restore}

    Full-state checkpointing at instruction boundaries, for the strategy
    engines (interval-parallel simulation, [docs/STRATEGY.md]). A capture
    is plain, closure-free data: safe to [Marshal] across a process
    boundary and safe to compare for behavioural equality via
    {!Capture.canonical}. *)

module Capture : sig
  type cap_ck = {
    k_regs : Arch_state.t;
    k_undo : int;
    k_lq : int;   (** relative to the consumed lQ head at capture. *)
    k_sq : int;
    k_insts : int;  (** relative to the captured instruction count. *)
  }

  type t = {
    c_state : Arch_state.t;
    c_pages : (int * string) array;   (** canonical memory image. *)
    c_undo : (int * int * int64) array;
    c_checkpoints : cap_ck list;      (** youngest first. *)
    c_lq : load_rec array;            (** unconsumed entries, oldest first. *)
    c_sq : store_rec array;
    c_halted : bool;
    c_wedged : bool;
    c_pending : control option;
        (** the one-event read-ahead, carried verbatim. Restoring a blank
            here and re-producing the event would re-train the predictor
            on outcomes it already saw — the latent checkpoint hazard
            pinned by test_strategy.ml. *)
    c_insts : int;     (** non-behavioural: statistics continuation. *)
    c_wp_insts : int;  (** non-behavioural: statistics continuation. *)
  }

  val canonical : t -> string
  (** Byte encoding of the {e behavioural} part of the capture (the
      counters [c_insts]/[c_wp_insts] are excluded): two captures with
      equal canonical strings produce identical future behaviour. *)
end

val capture : t -> Capture.t
(** Copies the complete emulator state out, including mid-speculation
    state: undo log, outstanding misprediction checkpoints (queue
    references re-based to the consumed head), unconsumed lQ/sQ entries
    and the pending read-ahead event. *)

val restore : ?predictor:Predictor.t -> Isa.Program.t -> Capture.t -> t
(** Rebuilds an emulator from a capture. The caller supplies the predictor
    (restore it separately via {!Bpred.handle}); the pending read-ahead
    event is restored verbatim, never re-produced. *)

val create_at :
  ?predictor:Predictor.t -> Isa.Program.t -> state:Arch_state.t ->
  mem:Memory.t -> insts:int -> t
(** Fresh (non-speculative, cold) emulator positioned at an architectural
    checkpoint: registers from [state] (copied), memory [mem] (owned by
    the new emulator — pass a {!Memory.copy} to keep the original), and
    the instruction counter at [insts]. Read-ahead is primed, so the
    predictor sees exactly what a cold start at this boundary would. *)

(** {1 Functional checkpointing} *)

type functional_ck = {
  f_state : Arch_state.t;
  f_mem : Memory.t;   (** private copy. *)
  f_insts : int;
}

(** Architectural observation hooks for {e functional warming} (the
    sampled strategy engine, docs/STRATEGY.md): while a functional pass
    fast-forwards between samples, these callbacks let the caller keep a
    cache model and a branch predictor trained on the architectural
    stream — the SMARTS insight that makes short detailed samples
    unbiased. Fired by {!run_functional_checkpoints} as each instruction
    executes: loads/stores with their effective address, conditional
    branches with their outcome, indirect jumps with their target, calls
    with their return address. *)
type warm_hooks = {
  wh_load : addr:int -> width:int -> unit;
  wh_store : addr:int -> width:int -> unit;
  wh_cond : pc:int -> taken:bool -> unit;
  wh_indirect : pc:int -> target:int -> unit;
  wh_call : pc:int -> return_to:int -> unit;
}

val run_functional_checkpoints :
  ?max_insts:int ->
  ?on_inst:(pc:int -> unit) ->
  ?hooks:warm_hooks ->
  Isa.Program.t ->
  at:int list ->
  functional_ck list * Arch_state.t * int * bool
(** Pure functional execution that snapshots the architectural state at
    each instruction count in [at] (deduplicated; 0 means the initial
    state). [on_inst] is called with the PC before each executed
    instruction (including the final [Halt]). Returns the checkpoints in
    ascending order, the final state, the instruction count, and whether
    the program halted (as opposed to hitting [max_insts]). *)

(** {1 lQ/sQ rings}

    FIFO queues addressed by absolute sequence number.

    The emulator's lQ and sQ are queues whose *producer* end can be rolled
    back: entries recorded down a mispredicted path must be discarded when
    the misprediction is repaired, while entries already consumed by the
    µ-architecture simulator stay consumed. Addressing both ends with
    monotonically increasing sequence numbers makes that truncation a
    constant-time pointer move.

    Entries are plain ints held unboxed in a ring, so pushing allocates
    nothing; the emulator packs each lQ/sQ record into one int. The ring
    lives in this module so the interpreter's pushes compile inline. *)

module Seq_queue : sig
  type t

  val create : unit -> t

  val push : t -> int -> unit
  (** Appends at the tail. *)

  val pop : t -> int
  (** Removes from the head. Raises [Invalid_argument] when empty. *)

  val peek : t -> int option

  val length : t -> int

  val head_seq : t -> int
  (** Sequence number of the next entry to be popped. *)

  val tail_seq : t -> int
  (** Sequence number the next pushed entry will receive. *)

  val truncate_to : t -> int -> unit
  (** [truncate_to q seq] discards entries with sequence number >= [seq].
      If consumption has already advanced past [seq], the queue simply
      becomes empty (consumed entries are never restored). *)

  val last : t -> int
  (** The most recently pushed entry. Raises [Invalid_argument] when no
      un-consumed entries remain. *)

  val iter : (int -> unit) -> t -> unit
  (** Iterates over un-consumed entries, head to tail. *)
end
