(** A small open-addressed [int -> int] table.

    Same semantics as an [(int, int) Hashtbl.t] used only through
    [replace] (never [add]): one binding per key. Lookups, updates and
    removals hash with integer arithmetic and allocate nothing; only
    growth allocates. The cache hierarchy keeps its outstanding fills
    here, looked up and removed on every load. *)

type t

val create : unit -> t
val length : t -> int
val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** The key's binding, or [default] when it has none. *)

val replace : t -> int -> int -> unit
val remove : t -> int -> unit

val iter : (int -> int -> unit) -> t -> unit
(** Visits every binding once, in unspecified order. *)

val reset : t -> unit
(** Removes every binding and shrinks the table to its initial size. *)
