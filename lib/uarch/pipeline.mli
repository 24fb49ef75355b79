(** The iQ: FastSim's central pipeline data structure (paper §4.1).

    One entry per instruction in flight, from fetch to retirement, in
    program order. Between cycles, the iQ entries plus the fetch state are
    the {e entire} µ-architecture simulator state — everything else
    (queue occupancy, functional-unit availability, speculation depth) is
    recomputed every cycle, exactly as the paper prescribes, and the
    explicit rename-stage state ({!Rename}) is a deterministic function of
    the iQ, rebuilt on restore — so configurations stay small and
    memoizable.

    For speed, an entry's pipeline stage is stored unboxed as a tag plus a
    cycle counter ([st]/[counter]); the {!stage} view reconstructs the
    symbolic form for tests and display. *)

type stage =
  | Fetched              (** in the fetch buffer, awaiting decode/rename. *)
  | Queued               (** in its issue queue, awaiting operands + unit. *)
  | Exec of int          (** executing; cycles remaining (>= 1). *)
  | Wait_cache of int    (** load issued to the cache; cycles until data. *)
  | Done                 (** completed; retires when it reaches the head. *)

(** Unboxed stage tags, the values of [entry.st]. *)

val st_fetched : int
val st_queued : int
val st_exec : int
val st_wait : int
val st_done : int

type entry = {
  addr : int;
  insn : Isa.Instr.t;          (** decoded from [addr]; derived, not state. *)
  fu : Isa.Instr.fu_class;     (** derived from [insn]. *)
  srcs : Isa.Instr.dest array; (** source registers; derived, cached. *)
  dst : Isa.Instr.dest option; (** destination register; derived, cached. *)
  mutable st : int;            (** stage tag, one of the [st_*] values. *)
  mutable counter : int;       (** cycles remaining in [st_exec]/[st_wait]. *)
  mutable taken : bool;        (** conditional branches: actual direction. *)
  mutable mispredicted : bool; (** conditional branches: misprediction not
                                   yet repaired by a rollback. *)
  mutable ind_target : int;    (** indirect jumps: actual target; -1 else. *)
  mutable ind_stall : bool;    (** indirect jumps: fetch stalled on this
                                   entry until it resolves. *)
  mutable new_phys : int;      (** physical register allocated to [dst] at
                                   rename; -1 before decode / no dest. *)
  mutable old_phys : int;      (** previous mapping of [dst]'s architectural
                                   register, freed at retirement; -1 as
                                   above. *)
  mutable shadow_slot : int;   (** conditional branches: index of the shadow
                                   map saved at rename; -1 otherwise.
                                   These three fields are {!Rename} state
                                   riding on the entry. They are rebuilt
                                   deterministically from the iQ on restore
                                   and are deliberately {e not} part of the
                                   snapshot: physical-register identities
                                   never influence timing. *)
}

val stage : entry -> stage
val set_stage : entry -> stage -> unit

type fetch_state =
  | F_run of int         (** fetching at this byte address. *)
  | F_stall_indirect     (** stalled on the youngest entry's indirect jump. *)
  | F_stall_wedged       (** the (wrong) path cannot be fetched further;
                             only a rollback can redirect fetch. *)
  | F_halted             (** a [Halt] has been fetched. *)

type t
(** A bounded in-order buffer of entries (the active list). *)

val create : capacity:int -> t
val capacity : t -> int
val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val entry_of_addr : Isa.Program.t -> int -> entry
(** Fresh entry in the fetched stage; raises [Isa.Program.Fault] when
    [addr] is not a decodable instruction address. *)

(** {2 Pre-decoded programs}

    The static operands of an entry ([insn], [fu], [srcs], [dst]) depend
    only on its address. A [decoded] table computes them once per
    program; entries made from it share those immutable values instead
    of re-deriving (and re-allocating) them on every fetch and restore.
    A table holds no mutable state, so simulators running on different
    domains may share one. *)

type decoded

val decode_program : Isa.Program.t -> decoded

val decoded_index : decoded -> int -> int
(** The instruction index of a byte address, or -1 when the address is
    not a decodable instruction address (the [Isa.Program.fetch_opt]
    [None] case). *)

val decoded_control : decoded -> int -> Isa.Instr.control
(** [Isa.Instr.control] of the instruction at a valid index. *)

val decoded_target : decoded -> int -> int
(** The taken target of the conditional branch at a valid index; -1 for
    any other instruction. Its fall-through is the next address. *)

val entry_at : decoded -> int -> int -> entry
(** [entry_at d i addr] is {!entry_of_addr} for the instruction at valid
    index [i], whose address is [addr]. *)

val entry_of_decoded : decoded -> int -> entry
(** {!entry_of_addr} through a table; raises [Isa.Program.Fault] on the
    same addresses. *)

val push : t -> entry -> unit
(** Appends at the tail (youngest). Raises [Invalid_argument] when full. *)

val pop : t -> entry
(** Removes the head (oldest). Raises [Invalid_argument] when empty. *)

val peek : t -> entry option

val get : t -> int -> entry
(** [get t i] is the [i]-th oldest entry, [0 <= i < length t]. *)

val unsafe_get : t -> int -> entry
(** [get] without the bounds check, for the simulator's hot loops. *)

val truncate : t -> int -> unit
(** [truncate t n] squashes all but the [n] oldest entries. *)

val iteri : (int -> entry -> unit) -> t -> unit
(** Oldest to youngest. The callback must not modify the queue. *)

val successor : entry -> int option
(** The address of the instruction that follows [entry] on the {e fetched}
    path, derived from the entry's control bits: for conditional branches
    the predicted direction while a misprediction is pending and the actual
    direction afterwards, the static target for direct jumps, [ind_target]
    for indirect jumps, [None] after [Halt]. This is what lets
    configurations store only the oldest address plus control bits
    (paper §4.2). *)
