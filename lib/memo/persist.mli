(** Saving and restoring the p-action cache.

    An extension beyond the paper: FastSim's p-action cache lived only for
    one simulation; persisting it lets a later run of the {e same program}
    start warm and skip most detailed simulation from the first cycle.
    Soundness is unchanged — replay still validates every outcome against
    the live cache simulator and direct execution, so a stale edge merely
    exits to detailed simulation.

    The format is a self-describing binary stream tied to the program: a
    digest of the code image is stored and checked, because configuration
    keys embed instruction addresses and are only meaningful against the
    program that produced them.

    All entry points live in {!Codec}. *)

exception Format_error of string

(** Versioned stream codecs.

    - [current] (FSPC0004) is grammar-compressed: configuration keys go
      through a deduplicated string table and strides reference the chain
      store's rule table ('G' targets and stride bodies are indices), so
      chain suffixes shared by many strides — or, via a shared
      {!Store.t}, by many caches — are written once.
    - [v3] (FSPC0003) stores strides with inline segments. Its reader
      migrates streams into the store representation on load; its writer
      is kept only so benchmarks can compare sizes, and is deprecated.
    - [v2] (FSPC0002) predates strides and is read-only; the v3 reader
      covers it. *)
module Codec : sig
  type info = {
    version : int;
    magic : string;   (** the stream's leading 8 bytes. *)
    writable : bool;  (** whether {!save} accepts this codec. *)
  }

  val current : info
  val v3 : info
  val v2 : info
  val supported : info list

  val of_magic : string -> info option

  val save :
    ?codec:info -> Pcache.t -> program:Isa.Program.t -> out_channel -> unit
  (** Writes every live configuration and its action chains in
      [codec]'s format (default {!current}). Raises [Invalid_argument]
      for a read-only codec. *)

  val save_file :
    ?codec:info -> Pcache.t -> program:Isa.Program.t -> string -> unit

  val load :
    ?policy:Pcache.policy ->
    ?store:Store.t ->
    program:Isa.Program.t ->
    in_channel ->
    Pcache.t
  (** Rebuilds a p-action cache, auto-detecting the stream version from
      its magic. [store] is the chain store rules land in — pass the
      registry's shared per-program store to dedupe against caches
      already loaded; defaults to a fresh private store. Raises
      {!Format_error} on a corrupt or truncated stream (a premature
      end-of-file is reported as {!Format_error}, never as a raw
      [End_of_file]) or when the stream was saved for a different
      program; on error, any rules the partial load interned are
      released so a shared store is left clean. Save and load traverse
      action chains with explicit worklists, so arbitrarily deep chains
      round-trip without exhausting the call stack. *)

  val load_string :
    ?policy:Pcache.policy ->
    ?store:Store.t ->
    program:Isa.Program.t ->
    string ->
    Pcache.t
  (** [load] over an in-memory stream; same error behaviour. *)

  val load_file :
    ?policy:Pcache.policy ->
    ?store:Store.t ->
    program:Isa.Program.t ->
    string ->
    Pcache.t
  (** Loads a saved cache by [mmap]ing the file and parsing in place, so
      spilled registry shards reload without copying the stream through
      stdio buffers (the kernel pages the file in lazily). Falls back to
      a plain read where [mmap] is unavailable. *)
end

val program_digest : Isa.Program.t -> string
(** Digest used for the program check (exposed for tests).

    Covers the {e code words only} — intentionally. Configuration keys
    embed instruction addresses and decoded µ-ops, so a saved cache is
    meaningful only against the same code image; data is consumed through
    the live oracle during replay, which validates every outcome anyway.
    Excluding data from the digest is what allows a warm start across
    reseeded inputs of the same kernel (docs/SWEEP.md): data-dependent
    paths simply diverge to detailed simulation. Do not "fix" this by
    digesting the whole image — test/test_persist.ml pins the semantics. *)
