(** Sparse, demand-paged simulated memory.

    Memory is a flat 32-bit little-endian byte space backed by 4 KiB pages
    allocated on first touch. Reads from untouched pages return zero.
    Accesses must be naturally aligned; {!Unaligned} is raised otherwise
    (SRISC has no unaligned accesses).

    This is the *functional* memory used by direct execution; the cache
    simulator never reads or writes data, it only sees addresses — exactly
    as in FastSim, where "no program data is returned by the [cache]
    simulator, only the time taken to obtain the data". *)

type t

exception Unaligned of int

val create : unit -> t

val load8 : t -> int -> int   (** sign-extended byte. *)

val load8u : t -> int -> int

val load16 : t -> int -> int  (** sign-extended halfword. *)

val load16u : t -> int -> int

val load32 : t -> int -> int
(** 32-bit load, returned as a signed OCaml int in [-2{^31}, 2{^31}). *)

val load64 : t -> int -> int64

val store8 : t -> int -> int -> unit
val store16 : t -> int -> int -> unit
val store32 : t -> int -> int -> unit
val store64 : t -> int -> int64 -> unit

val load_double : t -> int -> float
val store_double : t -> int -> float -> unit

val init_segment : t -> int -> string -> unit
(** [init_segment m addr bytes] copies [bytes] into memory at [addr]
    (no alignment requirement). Used to load program data segments. *)

val load_program : t -> Isa.Program.t -> unit
(** Copies a program's encoded code and data segments into memory. *)

val pages_allocated : t -> int
(** Number of 4 KiB pages touched so far (for tests/diagnostics). *)

(** {1 Page TLB}

    The emulator's fast path. A direct-mapped cache of [tlb_size] page
    slots in front of the page table: a hit is two array reads, a miss
    costs one hash lookup (and creates the page on first touch). Every
    memory has its own TLB; {!copy} and {!of_pages} start with an empty
    one, so copies never share cached pages. *)

type tlb = private { keys : int array; slots : Bytes.t array }
(** Slot [k] holds the page numbered [keys.(k)] ([-1]: empty). *)

val tlb_size : int
(** Number of TLB slots (a power of two). *)

val page_bits : int
(** log2 of the page size. *)

val tlb : t -> tlb

val page : t -> int -> Bytes.t
(** [page m addr] is the 4 KiB page holding the 32-bit address [addr],
    looked up through the TLB. *)

val page_miss : t -> int -> Bytes.t
(** The TLB miss path of {!page}: fetches (or creates) the page holding
    [addr] and installs it in its TLB slot. *)

(** {1 Capture / restore}

    Used by the strategy engines (interval-parallel simulation,
    [docs/STRATEGY.md]) to checkpoint functional memory at instruction
    boundaries. *)

val copy : t -> t
(** Deep copy (pages are duplicated). *)

val to_pages : t -> (int * string) array
(** Canonical page image: (page index, 4 KiB contents) sorted by index,
    with all-zero pages dropped — a demand-created zero page is
    indistinguishable from an untouched one, so behaviourally identical
    memories always produce byte-equal arrays. *)

val of_pages : (int * string) array -> t
(** Rebuilds a memory from {!to_pages} output. *)
