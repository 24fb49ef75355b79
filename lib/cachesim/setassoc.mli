(** Set-associative tag array with true-LRU replacement.

    This tracks only tags and dirty bits — never data. The cache simulator
    models timing; program data lives solely in the functional emulator's
    memory, as in FastSim. *)

type t

val create : size:int -> ways:int -> line:int -> t
(** Sizes must be powers of two with [size] divisible by [ways * line]. *)

val probe : t -> int -> bool
(** Tag check without any state change. *)

val touch : t -> int -> bool
(** Tag check; on a hit, updates LRU state and returns true. *)

val access : t -> int -> dirty:bool -> bool
(** {!touch} that also marks a resident line dirty when [dirty] holds
    (a clean access leaves the dirty bit as it was). *)

val fill : t -> int -> dirty:bool -> bool
(** Allocates the line (which must currently miss), evicting the LRU way.
    Returns whether the evicted line was dirty (false when an invalid way
    was filled). *)

val line_addr : t -> int -> int
(** Line-aligns an address. *)

val sets : t -> int
val invalidate_all : t -> unit

(** {1 Capture / restore}

    Checkpoint support for the strategy engines (docs/STRATEGY.md). A
    saved state stores the within-set LRU order as {e ranks} rather than
    raw stamps, which makes it canonical: two byte-equal states are
    behaviourally indistinguishable, regardless of how many LRU ticks
    each source cache had consumed. *)

type state = {
  st_tags : int array;
  st_dirty : bool array;
  st_rank : int array;  (** per-set recency rank (0 = LRU); -1 = invalid *)
}

val save : t -> state

val load : t -> state -> unit
(** Overwrites [t]'s replacement state. The saved geometry must match
    [t]'s ([Invalid_argument] otherwise). *)
