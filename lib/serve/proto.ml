module J = Fastsim_obs.Json
module Spec = Fastsim.Sim.Spec

let version = 1
let max_frame = 16 * 1024 * 1024

type program_ref =
  | Workload of { name : string; scale : int option }
  | Asm of string
  | By_digest of string

type request =
  | Hello of { proto : int }
  | Run of {
      id : string;
      engine : Fastsim.Sim.engine;
      spec : Fastsim.Sim.Spec.t;
      program : program_ref;
      fault : string option;
    }
  | Stats of { id : string }
  | Telemetry of { id : string; include_trace : bool }
  | Cancel of { id : string }
  | Ping of { id : string }
  | Shutdown of { id : string }

type error_code =
  | Overloaded
  | Bad_request
  | Unknown_workload
  | Unknown_digest
  | Worker_crashed
  | Timeout
  | Cancelled
  | Shutting_down
  | Unsupported_proto
  | Internal

let error_code_to_string = function
  | Overloaded -> "overloaded"
  | Bad_request -> "bad_request"
  | Unknown_workload -> "unknown_workload"
  | Unknown_digest -> "unknown_digest"
  | Worker_crashed -> "worker_crashed"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"
  | Shutting_down -> "shutting_down"
  | Unsupported_proto -> "unsupported_proto"
  | Internal -> "internal"

let error_code_of_string = function
  | "overloaded" -> Ok Overloaded
  | "bad_request" -> Ok Bad_request
  | "unknown_workload" -> Ok Unknown_workload
  | "unknown_digest" -> Ok Unknown_digest
  | "worker_crashed" -> Ok Worker_crashed
  | "timeout" -> Ok Timeout
  | "cancelled" -> Ok Cancelled
  | "shutting_down" -> Ok Shutting_down
  | "unsupported_proto" -> Ok Unsupported_proto
  | "internal" -> Ok Internal
  | s -> Error (Printf.sprintf "unknown error code %S" s)

type response =
  | R_hello of { proto : int }
  | Accepted of { id : string }
  | Result of {
      id : string;
      result : Fastsim.Sim.result;
      wall_s : float;
      warm : bool;
      digest : string;
    }
  | Error of { id : string option; code : error_code; message : string }
  | R_stats of { id : string; stats : J.t }
  | R_telemetry of { id : string; telemetry : J.t }
  | Pong of { id : string }

(* ---------------------------------------------------------------- *)
(* Strict object decoding, same discipline as Sim's spec/result codecs:
   one pass, unknown and duplicate keys rejected. The fold carries a
   [unit] accumulator; fields stash their values in refs. *)

let fail fmt = Printf.ksprintf (fun m -> failwith m) fmt

let strict ~what ~field j =
  match j with
  | J.Obj members ->
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (k, v) ->
        if Hashtbl.mem seen k then fail "duplicate %s field %S" what k;
        Hashtbl.add seen k ();
        if not (field k v) then fail "unknown %s field %S" what k)
      members
  | _ -> fail "%s must be an object" what

let need what = function Some v -> v | None -> fail "missing %s" what

let as_result what decode j =
  match decode j with
  | v -> Ok v
  | exception Failure m -> Error (what ^ ": " ^ m)
  | exception J.Parse_error m -> Error (what ^ ": " ^ m)

(* ---------------------------------------------------------------- *)
(* Program references. *)

let program_ref_to_json = function
  | Workload { name; scale } ->
    J.Obj
      ([ ("kind", J.Str "workload"); ("name", J.Str name) ]
      @ match scale with None -> [] | Some s -> [ ("scale", J.Int s) ])
  | Asm source -> J.Obj [ ("kind", J.Str "asm"); ("source", J.Str source) ]
  | By_digest d -> J.Obj [ ("kind", J.Str "digest"); ("digest", J.Str d) ]

let program_ref_decode j =
  let kind = ref None and name = ref None and scale = ref None in
  let source = ref None and digest = ref None in
  strict ~what:"program" j ~field:(fun k v ->
      match k with
      | "kind" -> kind := Some (J.to_str v); true
      | "name" -> name := Some (J.to_str v); true
      | "scale" -> scale := Some (J.to_int v); true
      | "source" -> source := Some (J.to_str v); true
      | "digest" -> digest := Some (J.to_str v); true
      | _ -> false);
  match need "program.kind" !kind with
  | "workload" ->
    Workload { name = need "program.name" !name; scale = !scale }
  | "asm" -> Asm (need "program.source" !source)
  | "digest" -> By_digest (need "program.digest" !digest)
  | k -> fail "unknown program kind %S (want workload, asm or digest)" k

(* ---------------------------------------------------------------- *)
(* Requests. *)

let request_to_json = function
  | Hello { proto } ->
    J.Obj [ ("type", J.Str "hello"); ("proto", J.Int proto) ]
  | Run { id; engine; spec; program; fault } ->
    J.Obj
      ([ ("type", J.Str "run");
         ("id", J.Str id);
         ("engine", J.Str (Spec.engine_to_string engine));
         ("spec", Spec.to_json spec);
         ("program", program_ref_to_json program) ]
      @ match fault with None -> [] | Some f -> [ ("fault", J.Str f) ])
  | Stats { id } -> J.Obj [ ("type", J.Str "stats"); ("id", J.Str id) ]
  | Telemetry { id; include_trace } ->
    J.Obj
      ([ ("type", J.Str "telemetry"); ("id", J.Str id) ]
      @ if include_trace then [ ("trace", J.Bool true) ] else [])
  | Cancel { id } -> J.Obj [ ("type", J.Str "cancel"); ("id", J.Str id) ]
  | Ping { id } -> J.Obj [ ("type", J.Str "ping"); ("id", J.Str id) ]
  | Shutdown { id } -> J.Obj [ ("type", J.Str "shutdown"); ("id", J.Str id) ]

let ok_or_fail = function Ok v -> v | Error m -> fail "%s" m

let request_decode j =
  let typ = ref None and id = ref None and proto = ref None in
  let engine = ref None and spec = ref None and program = ref None in
  let fault = ref None and trace = ref None in
  strict ~what:"request" j ~field:(fun k v ->
      match k with
      | "type" -> typ := Some (J.to_str v); true
      | "id" -> id := Some (J.to_str v); true
      | "proto" -> proto := Some (J.to_int v); true
      | "trace" -> trace := Some (J.to_bool v); true
      | "engine" ->
        engine := Some (ok_or_fail (Spec.engine_of_string (J.to_str v)));
        true
      | "spec" -> spec := Some (ok_or_fail (Spec.of_json_result v)); true
      | "program" -> program := Some (program_ref_decode v); true
      | "fault" -> fault := Some (J.to_str v); true
      | _ -> false);
  let id () = need "id" !id in
  match need "type" !typ with
  | "hello" -> Hello { proto = need "proto" !proto }
  | "run" ->
    Run
      { id = id ();
        engine = need "engine" !engine;
        spec = need "spec" !spec;
        program = need "program" !program;
        fault = !fault }
  | "stats" -> Stats { id = id () }
  | "telemetry" ->
    Telemetry
      { id = id ();
        include_trace = (match !trace with Some b -> b | None -> false) }
  | "cancel" -> Cancel { id = id () }
  | "ping" -> Ping { id = id () }
  | "shutdown" -> Shutdown { id = id () }
  | t -> fail "unknown request type %S" t

let request_of_json j = as_result "request" request_decode j

(* ---------------------------------------------------------------- *)
(* Responses. *)

let response_to_json = function
  | R_hello { proto } ->
    J.Obj [ ("type", J.Str "hello"); ("proto", J.Int proto) ]
  | Accepted { id } -> J.Obj [ ("type", J.Str "accepted"); ("id", J.Str id) ]
  | Result { id; result; wall_s; warm; digest } ->
    J.Obj
      [ ("type", J.Str "result");
        ("id", J.Str id);
        ("result", Fastsim.Sim.result_to_json result);
        ("wall_s", J.Float wall_s);
        ("warm", J.Bool warm);
        ("digest", J.Str digest) ]
  | Error { id; code; message } ->
    J.Obj
      ([ ("type", J.Str "error") ]
      @ (match id with None -> [] | Some id -> [ ("id", J.Str id) ])
      @ [ ("code", J.Str (error_code_to_string code));
          ("message", J.Str message) ])
  | R_stats { id; stats } ->
    J.Obj [ ("type", J.Str "stats"); ("id", J.Str id); ("stats", stats) ]
  | R_telemetry { id; telemetry } ->
    J.Obj
      [ ("type", J.Str "telemetry"); ("id", J.Str id);
        ("telemetry", telemetry) ]
  | Pong { id } -> J.Obj [ ("type", J.Str "pong"); ("id", J.Str id) ]

let response_decode j =
  let typ = ref None and id = ref None and proto = ref None in
  let result = ref None and wall_s = ref None and warm = ref None in
  let digest = ref None and code = ref None and message = ref None in
  let stats = ref None and telemetry = ref None in
  strict ~what:"response" j ~field:(fun k v ->
      match k with
      | "type" -> typ := Some (J.to_str v); true
      | "id" -> id := Some (J.to_str v); true
      | "proto" -> proto := Some (J.to_int v); true
      | "result" ->
        (match Fastsim.Sim.result_of_json v with
         | Ok r -> result := Some r
         | Error m -> fail "%s" m);
        true
      | "wall_s" -> wall_s := Some (J.to_float v); true
      | "warm" -> warm := Some (J.to_bool v); true
      | "digest" -> digest := Some (J.to_str v); true
      | "code" ->
        code := Some (ok_or_fail (error_code_of_string (J.to_str v)));
        true
      | "message" -> message := Some (J.to_str v); true
      | "stats" -> stats := Some v; true
      | "telemetry" -> telemetry := Some v; true
      | _ -> false);
  let rid () = need "id" !id in
  match need "type" !typ with
  | "hello" -> R_hello { proto = need "proto" !proto }
  | "accepted" -> Accepted { id = rid () }
  | "result" ->
    Result
      { id = rid ();
        result = need "result" !result;
        wall_s = need "wall_s" !wall_s;
        warm = need "warm" !warm;
        digest = need "digest" !digest }
  | "error" ->
    Error
      { id = !id;
        code = need "code" !code;
        message = need "message" !message }
  | "stats" -> R_stats { id = rid (); stats = need "stats" !stats }
  | "telemetry" ->
    R_telemetry { id = rid (); telemetry = need "telemetry" !telemetry }
  | "pong" -> Pong { id = rid () }
  | t -> fail "unknown response type %S" t

let response_of_json j = as_result "response" response_decode j

(* ---------------------------------------------------------------- *)
(* Framing. *)

let encode_frame j =
  let body = J.to_string j in
  let n = String.length body in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Proto.encode_frame: %d-byte frame" n);
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 b 4 n;
  b

(* Every [Unix_error] but [EINTR] is returned, never raised: a peer
   that resets the connection is an ordinary outcome at this boundary. *)
let rec write_all fd b off len =
  if len <= 0 then Ok ()
  else
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | exception Unix.Unix_error (e, fn, _) -> Error (e, fn)

let send_frame fd j =
  let b = encode_frame j in
  match write_all fd b 0 (Bytes.length b) with
  | Ok () -> Ok ()
  | Error (e, fn) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let write_frame fd j =
  let b = encode_frame j in
  match write_all fd b 0 (Bytes.length b) with
  | Ok () -> ()
  | Error (e, fn) -> raise (Unix.Unix_error (e, fn, ""))

(* Blocking read of exactly [len] bytes; [`Eof] only when the very first
   byte is missing (a clean close between frames). *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Ok b
    else
      match Unix.read fd b off (len - off) with
      | 0 -> if off = 0 then Error `Eof else Error `Truncated
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, fn, _) ->
        Error (`Io (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  in
  go 0

let be32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let read_frame fd =
  match read_exact fd 4 with
  | Error `Eof -> Ok None
  | Error `Truncated -> Error "EOF inside frame header"
  | Error (`Io m) -> Error m
  | Ok hdr -> (
    let len = be32 hdr 0 in
    if len > max_frame then
      Error (Printf.sprintf "frame of %d bytes exceeds limit" len)
    else
      match read_exact fd len with
      | Error (`Eof | `Truncated) -> Error "EOF inside frame body"
      | Error (`Io m) -> Error m
      | Ok body -> (
        match J.of_string (Bytes.to_string body) with
        | j -> Ok (Some j)
        | exception J.Parse_error m -> Error ("bad frame: " ^ m)))

module Decoder = struct
  type t = { mutable data : string }

  let create () = { data = "" }

  let feed d b n = d.data <- d.data ^ Bytes.sub_string b 0 n

  let next d =
    if String.length d.data < 4 then Ok None
    else begin
      let hdr = Bytes.of_string (String.sub d.data 0 4) in
      let len = be32 hdr 0 in
      if len > max_frame then
        Error (Printf.sprintf "frame of %d bytes exceeds limit" len)
      else if String.length d.data < 4 + len then Ok None
      else begin
        let body = String.sub d.data 4 len in
        d.data <-
          String.sub d.data (4 + len) (String.length d.data - 4 - len);
        match J.of_string body with
        | j -> Ok (Some j)
        | exception J.Parse_error m -> Error ("bad frame: " ^ m)
      end
    end
end

(* ---------------------------------------------------------------- *)

type address = [ `Unix_path of string | `Tcp of string * int ]

let address_of_string s =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None ->
      Stdlib.Error
        (Printf.sprintf "bad tcp address %S (want HOST:PORT)" rest)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (`Tcp (host, p))
      | _ -> Stdlib.Error (Printf.sprintf "bad port %S" port))
  in
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (`Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    tcp (String.sub s 4 (String.length s - 4))
  else Ok (`Unix_path s)

let address_to_string = function
  | `Unix_path p -> "unix:" ^ p
  | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
