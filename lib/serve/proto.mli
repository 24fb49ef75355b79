(** The serve wire protocol (docs/SERVE.md).

    Frames are length-prefixed JSON: a 4-byte big-endian byte count
    followed by exactly that many bytes of one JSON object. The protocol
    is versioned by {!version}: a client opens with a [hello] frame and
    the server answers [hello] (or an [unsupported_proto] error) before
    anything else flows.

    The JSON schemas are shared with the rest of the system rather than
    re-invented: a request's [spec] is {!Fastsim.Sim.Spec.to_json} (the
    same object sweep manifests embed) and a [result] frame's payload is
    {!Fastsim.Sim.result_to_json} — so a daemon response, a sweep report
    entry and a fuzz artifact are mutually intelligible. *)

val version : int
(** Current protocol version (1). *)

val max_frame : int
(** Upper bound on one frame's body size; oversized frames are a
    protocol error, never an allocation. *)

(** How a [run] request names its program. *)
type program_ref =
  | Workload of { name : string; scale : int option }
      (** a suite workload ({!Workloads.Suite.find} name), optionally at
          an explicit scale (default: the workload's default scale). *)
  | Asm of string
      (** inline SRISC assembly source ({!Isa.Parse.program}). *)
  | By_digest of string
      (** hex code digest of a program this server has already built for
          an earlier request (see the [digest] field of result frames);
          saves re-shipping the source. *)

type request =
  | Hello of { proto : int }
  | Run of {
      id : string;             (** caller-chosen; echoed on every frame. *)
      engine : Fastsim.Sim.engine;
      spec : Fastsim.Sim.Spec.t;
      program : program_ref;
      fault : string option;
          (** test-only crash injection; rejected unless the server was
              started with [allow_fault]. *)
    }
  | Stats of { id : string }
  | Telemetry of { id : string; include_trace : bool }
      (** live telemetry scrape: a {!Fastsim_obs.Metrics.snapshot} of
          every server instrument plus server/registry sections; with
          [include_trace], also the buffered request spans as JSON (see
          docs/OBSERVABILITY.md for the schema). Wire form:
          [{"type":"telemetry","id":...,"trace":true?}]. *)
  | Cancel of { id : string }  (** [id] of an in-flight [run]. *)
  | Ping of { id : string }
  | Shutdown of { id : string }
      (** graceful drain: running and queued work finishes, new work is
          refused with [shutting_down]. *)

type error_code =
  | Overloaded        (** request queue full — back off and retry. *)
  | Bad_request
  | Unknown_workload
  | Unknown_digest
  | Worker_crashed
  | Timeout
  | Cancelled
  | Shutting_down
  | Unsupported_proto
  | Internal

val error_code_to_string : error_code -> string
val error_code_of_string : string -> (error_code, string) result

type response =
  | R_hello of { proto : int }
  | Accepted of { id : string }  (** the run is queued. *)
  | Result of {
      id : string;
      result : Fastsim.Sim.result;
      wall_s : float;
      warm : bool;   (** served from a warm registry pcache. *)
      digest : string;
          (** hex code digest of the program that ran; usable in a later
              {!By_digest} request. *)
    }
  | Error of { id : string option; code : error_code; message : string }
  | R_stats of { id : string; stats : Fastsim_obs.Json.t }
  | R_telemetry of { id : string; telemetry : Fastsim_obs.Json.t }
  | Pong of { id : string }

val request_to_json : request -> Fastsim_obs.Json.t
val request_of_json : Fastsim_obs.Json.t -> (request, string) result

val response_to_json : response -> Fastsim_obs.Json.t
val response_of_json : Fastsim_obs.Json.t -> (response, string) result
(** Strict decoders: unknown keys, duplicate keys, ill-typed values and
    missing required fields are errors (malformed input must become an
    [Error] frame, never a daemon crash). *)

(* ---- framing ---------------------------------------------------- *)

val encode_frame : Fastsim_obs.Json.t -> bytes
(** Length prefix + serialised JSON. Raises [Invalid_argument] if the
    body exceeds {!max_frame}. *)

val write_frame : Unix.file_descr -> Fastsim_obs.Json.t -> unit
(** Blocking write of one frame. Raises [Unix.Unix_error] when the write
    fails; {!send_frame} is the total form. *)

val send_frame :
  Unix.file_descr -> Fastsim_obs.Json.t -> (unit, string) result
(** Blocking write of one frame; every I/O error (a reset or closed peer)
    is [Error], never an exception. *)

val read_frame : Unix.file_descr -> (Fastsim_obs.Json.t option, string) result
(** Blocking read of one frame. [Ok None] is a clean EOF at a frame
    boundary; EOF mid-frame, an I/O error (a reset peer), an oversized
    length or unparseable JSON is [Error]. Never raises [Unix_error]. *)

(** Incremental decoder for nonblocking servers: feed raw bytes as they
    arrive, pull complete frames out. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed d b n] appends the first [n] bytes of [b]. *)

  val next : t -> (Fastsim_obs.Json.t option, string) result
  (** [Ok None]: no complete frame buffered yet. An [Error] (oversized
      or unparseable frame) poisons the connection: the caller should
      close it. *)
end

(* ---- addresses -------------------------------------------------- *)

type address = [ `Unix_path of string | `Tcp of string * int ]

val address_of_string : string -> (address, string) result
(** ["unix:PATH"] (or a bare path) and ["tcp:HOST:PORT"]. *)

val address_to_string : address -> string
