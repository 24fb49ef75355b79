type t = { fd : Unix.file_descr }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let connect ?(retries = 0) ?(retry_delay_s = 0.1) address =
  let sockaddr, domain =
    match address with
    | `Unix_path p -> (Unix.ADDR_UNIX p, Unix.PF_UNIX)
    | `Tcp (host, port) ->
      let addr =
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      (Unix.ADDR_INET (addr, port), Unix.PF_INET)
  in
  let rec attempt n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      if n < retries then begin
        Unix.sleepf retry_delay_s;
        attempt (n + 1)
      end
      else
        Error
          (Printf.sprintf "connect %s: %s"
             (Proto.address_to_string address)
             (Unix.error_message e))
  in
  match attempt 0 with
  | Error _ as e -> e
  | Ok fd -> (
    let t = { fd } in
    let fail m =
      close t;
      Error m
    in
    match
      Proto.send_frame fd
        (Proto.request_to_json (Proto.Hello { proto = Proto.version }))
    with
    | Error m -> fail ("hello: " ^ m)
    | Ok () -> (
      match Proto.read_frame fd with
      | Error m -> fail ("hello: " ^ m)
      | Ok None -> fail "hello: server closed the connection"
      | Ok (Some j) -> (
        match Proto.response_of_json j with
        | Error m -> fail ("hello: " ^ m)
        | Ok (Proto.R_hello { proto }) when proto = Proto.version -> Ok t
        | Ok (Proto.R_hello { proto }) ->
          fail (Printf.sprintf "server speaks unsupported proto %d" proto)
        | Ok (Proto.Error { message; _ }) -> fail message
        | Ok _ -> fail "hello: unexpected response")))

let send t req = Proto.send_frame t.fd (Proto.request_to_json req)

let recv t =
  match Proto.read_frame t.fd with
  | Error m -> Error m
  | Ok None -> Error "connection closed"
  | Ok (Some j) -> Proto.response_of_json j

let ( let* ) r f = match r with Error m -> Error m | Ok v -> f v

let run t ~id ~engine ~spec ?fault program =
  let* () = send t (Proto.Run { id; engine; spec; program; fault }) in
  let rec await () =
    let* resp = recv t in
    match resp with
    | Proto.Accepted { id = rid } when rid = id -> await ()
    | Proto.Result { id = rid; _ } when rid = id -> Ok resp
    | Proto.Error { id = rid; _ } when rid = None || rid = Some id ->
      Ok resp
    | other ->
      Error
        (Printf.sprintf "unexpected frame %s"
           (Fastsim_obs.Json.to_string (Proto.response_to_json other)))
  in
  await ()

let stats t ~id =
  let* () = send t (Proto.Stats { id }) in
  let* resp = recv t in
  match resp with
  | Proto.R_stats { id = rid; stats } when rid = id -> Ok stats
  | Proto.Error { message; _ } -> Error message
  | _ -> Error "unexpected response to stats"

let telemetry t ~id ?(include_trace = false) () =
  let* () = send t (Proto.Telemetry { id; include_trace }) in
  let* resp = recv t in
  match resp with
  | Proto.R_telemetry { id = rid; telemetry } when rid = id -> Ok telemetry
  | Proto.Error { message; _ } -> Error message
  | _ -> Error "unexpected response to telemetry"

let ping t ~id =
  let* () = send t (Proto.Ping { id }) in
  let* resp = recv t in
  match resp with
  | Proto.Pong { id = rid } when rid = id -> Ok ()
  | Proto.Error { message; _ } -> Error message
  | _ -> Error "unexpected response to ping"

let shutdown t ~id =
  let* () = send t (Proto.Shutdown { id }) in
  let* resp = recv t in
  match resp with
  | Proto.Accepted { id = rid } when rid = id -> Ok ()
  | Proto.Error { message; _ } -> Error message
  | _ -> Error "unexpected response to shutdown"
