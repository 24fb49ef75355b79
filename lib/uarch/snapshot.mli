(** Compact configuration encoding (paper §4.1–4.2).

    A configuration is a byte-string snapshot of the µ-architecture state
    between cycles: the fetch state plus every iQ entry. Instruction
    addresses are not stored per entry — only the oldest entry's address is
    kept, and the rest are reconstructed by walking the program: one
    taken/not-taken bit per conditional branch and one 32-bit target per
    indirect jump suffice, exactly the compression the paper describes.

    Encoding then decoding is the identity on simulator state; this is the
    property that lets fast-forwarding resume detailed simulation from a
    configuration key alone. *)

type key = string
(** Immutable configuration key, suitable for hashing. *)

module Arena : sig
  type t
  (** A reusable scratch encode buffer plus the FNV-1a hash of its current
      contents. One arena per detailed simulator instance means the
      per-group hot path (encode the configuration, look it up in the
      p-action cache) allocates nothing on a warm cache: {!encode_into}
      rewrites the scratch bytes in place and
      [Memo.Pcache.intern_arena] probes the intern table directly against
      them, materialising a {!key} string only on a miss. *)

  val create : unit -> t

  val length : t -> int
  (** Valid bytes in {!buffer}. *)

  val hash : t -> int
  (** FNV-1a hash of those bytes (= {!hash_key} of {!key}). *)

  val buffer : t -> Bytes.t

  val key : t -> key
  (** Materialises the key string (allocates). *)
end

val encode_into :
  ?limit:int -> Arena.t -> fetch:Pipeline.fetch_state -> Pipeline.t -> unit
(** Encodes into the arena's scratch buffer (growing it if needed),
    computing the configuration hash in the same pass. Raises
    [Invalid_argument] — before writing anything, naming the configured
    limit — if the iQ holds more than [limit] entries. [limit] defaults
    to, and is clamped at, {!Params.snapshot_entry_limit} (255): the
    entry count is stored in one byte. {!Detailed} passes its
    params-derived active-list size. *)

val encode : ?limit:int -> fetch:Pipeline.fetch_state -> Pipeline.t -> key
(** [encode_into] a fresh arena; convenience for cold paths and tests. *)

val hash_key : key -> int
(** The same FNV-1a hash {!encode_into} computes, over an already
    materialised key (used when interning by string, e.g. on
    deserialisation). *)

val decode :
  ?decoded:Pipeline.decoded ->
  Isa.Program.t ->
  capacity:int ->
  key ->
  Pipeline.fetch_state * Pipeline.t
(** Rebuilds the fetch state and iQ. [decoded] is [prog]'s pre-decoded
    table; without it one is built for this call. Raises [Invalid_argument] on a
    malformed key and [Isa.Program.Fault] if the key references addresses
    outside the program (impossible for keys produced by [encode] against
    the same program). *)

val modeled_bytes : key -> int
(** Size of this configuration under the paper's accounting: 16 bytes of
    header + 1.5 bytes per instruction + 4 bytes per indirect jump. Used
    for the p-action cache budget (Table 5, Figure 7) so that budget
    experiments are comparable with the paper regardless of OCaml's actual
    representation overhead. *)

val entry_count : key -> int
val pp : Format.formatter -> key -> unit
(** Human-readable dump (for the memo-explorer example). *)
