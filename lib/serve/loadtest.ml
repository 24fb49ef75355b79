module J = Fastsim_obs.Json
module Sim = Fastsim.Sim
module Spec = Fastsim.Sim.Spec

type config = {
  backend : Server.backend;
  transport : Fleet.transport;
  jobs : int;
  clients : int;
  requests_per_client : int;
  workloads : string list;
  scale : int option;
  registry_budget : int option;
  phase_timeout_s : float;
}

let default =
  { backend = `Fleet; transport = `Process; jobs = 2; clients = 100;
    requests_per_client = 2; workloads = [ "li"; "compress"; "go" ];
    scale = None; registry_budget = None; phase_timeout_s = 300. }

type phase = {
  ph_requests : int;
  ph_errors : int;
  ph_warm_hits : int;
  ph_wall_s : float;
  ph_rps : float;
  ph_p50_ms : float;
  ph_p90_ms : float;
  ph_p99_ms : float;
  ph_mean_ms : float;
}

type report = {
  lt_backend : string;
  lt_transport : string;
  lt_jobs : int;
  lt_clients : int;
  lt_requests_per_client : int;
  lt_workloads : string list;
  lt_cold : phase;
  lt_warm : phase;
  lt_divergent : int;
}

(* The comparable part of a result: warm and cold runs agree on
   everything architectural; the memo/pcache introspection counters
   necessarily differ (a warm run replays more). *)
let arch_str r =
  match Sim.result_to_json r with
  | J.Obj fields ->
    J.to_string
      (J.Obj (List.filter (fun (k, _) -> k <> "memo" && k <> "pcache") fields))
  | j -> J.to_string j

(* ---------------------------------------------------------------- *)
(* One concurrent client: a nonblocking socket with its own decoder,
   write backlog and latency samples. One request in flight at a time
   (per connection — concurrency comes from the number of clients). *)

type client = {
  fd : Unix.file_descr;
  dec : Proto.Decoder.t;
  rbuf : Bytes.t;
  mutable outb : Bytes.t;
  mutable out_off : int;
  wname : string;
  wref : Proto.program_ref;
  idx : int;
  mutable greeted : bool;
  mutable sent : int;          (* requests issued this phase *)
  mutable got : int;           (* terminal responses this phase *)
  mutable t_send : float;
  mutable dead : bool;
}

let enqueue c json =
  let frame = Proto.encode_frame json in
  if c.out_off >= Bytes.length c.outb then begin
    c.outb <- frame;
    c.out_off <- 0
  end
  else begin
    let rest = Bytes.length c.outb - c.out_off in
    let b = Bytes.create (rest + Bytes.length frame) in
    Bytes.blit c.outb c.out_off b 0 rest;
    Bytes.blit frame 0 b rest (Bytes.length frame);
    c.outb <- b;
    c.out_off <- 0
  end

let pump_write c =
  let len = Bytes.length c.outb - c.out_off in
  if len > 0 then
    match Unix.write c.fd c.outb c.out_off len with
    | n -> c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> c.dead <- true

let has_output c = Bytes.length c.outb - c.out_off > 0

(* Read whatever is available and return the decoded frames, oldest
   first. A closed or poisoned connection marks the client dead. *)
let pump_read c =
  let frames = ref [] in
  (match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
   | 0 -> c.dead <- true
   | n -> Proto.Decoder.feed c.dec c.rbuf n
   | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
     -> ()
   | exception Unix.Unix_error _ -> c.dead <- true);
  let rec drain () =
    match Proto.Decoder.next c.dec with
    | Ok (Some j) ->
      frames := j :: !frames;
      drain ()
    | Ok None -> ()
    | Error _ -> c.dead <- true
  in
  drain ();
  List.rev !frames

(* ---------------------------------------------------------------- *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let spec_for (_ : config) = Spec.default

(* Drive every client through [n] sequential requests; returns the
   phase stats and folds each result's architectural string into
   [observe wname arch]. *)
let run_phase cfg clients ~n ~observe =
  let lats = ref [] in
  let errors = ref 0 in
  let warm_hits = ref 0 in
  List.iter
    (fun c ->
      c.sent <- 0;
      c.got <- 0)
    clients;
  let spec = spec_for cfg in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. cfg.phase_timeout_s in
  let unfinished () =
    List.exists (fun c -> (not c.dead) && c.got < n) clients
  in
  while unfinished () && Unix.gettimeofday () < deadline do
    (* issue the next request on every idle connection *)
    List.iter
      (fun c ->
        if (not c.dead) && c.sent < n && c.sent = c.got then begin
          let id = Printf.sprintf "c%d-%d" c.idx c.sent in
          enqueue c
            (Proto.request_to_json
               (Proto.Run
                  { id; engine = `Fast; spec; program = c.wref;
                    fault = None }));
          c.sent <- c.sent + 1;
          c.t_send <- Unix.gettimeofday ()
        end)
      clients;
    let live = List.filter (fun c -> not c.dead) clients in
    let reads = List.map (fun c -> c.fd) live in
    let writes =
      List.filter_map (fun c -> if has_output c then Some c.fd else None) live
    in
    (match Unix.select reads writes [] 0.1 with
     | readable, writable, _ ->
       List.iter
         (fun c ->
           if (not c.dead) && List.mem c.fd writable then pump_write c)
         live;
       List.iter
         (fun c ->
           if (not c.dead) && List.mem c.fd readable then
             List.iter
               (fun j ->
                 match Proto.response_of_json j with
                 | Ok (Proto.Accepted _) -> ()
                 | Ok (Proto.Result { result; warm; _ }) ->
                   lats :=
                     ((Unix.gettimeofday () -. c.t_send) *. 1000.) :: !lats;
                   if warm then incr warm_hits;
                   observe c.wname (arch_str result);
                   c.got <- c.got + 1
                 | Ok (Proto.Error _) ->
                   incr errors;
                   c.got <- c.got + 1
                 | Ok _ -> ()
                 | Error _ -> c.dead <- true)
               (pump_read c))
         live
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  let timed_out = unfinished () in
  let wall = Unix.gettimeofday () -. t0 in
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let total = Array.fold_left ( +. ) 0. sorted in
  let requests = Array.length sorted + !errors in
  let phase =
    { ph_requests = requests;
      ph_errors = !errors;
      ph_warm_hits = !warm_hits;
      ph_wall_s = wall;
      ph_rps = (if wall > 0. then float_of_int requests /. wall else 0.);
      ph_p50_ms = percentile sorted 0.50;
      ph_p90_ms = percentile sorted 0.90;
      ph_p99_ms = percentile sorted 0.99;
      ph_mean_ms =
        (if sorted = [||] then 0.
         else total /. float_of_int (Array.length sorted)) }
  in
  if timed_out then
    Error
      (Printf.sprintf "phase timed out after %.0fs (%d/%d responses)"
         cfg.phase_timeout_s
         (List.fold_left (fun acc c -> acc + c.got) 0 clients)
         (n * List.length clients))
  else Ok phase

(* ---------------------------------------------------------------- *)

let run ?(progress = fun (_ : string) -> ()) cfg =
  if cfg.clients < 1 then Error "loadtest: clients must be >= 1"
  else if cfg.requests_per_client < 1 then
    Error "loadtest: requests-per-client must be >= 1"
  else if cfg.workloads = [] then Error "loadtest: no workloads"
  else
    match
      List.find_opt
        (fun n ->
          match Workloads.Suite.find n with
          | (_ : Workloads.Workload.t) -> false
          | exception Not_found -> true)
        cfg.workloads
    with
    | Some n -> Error (Printf.sprintf "loadtest: unknown workload %s" n)
    | None ->
      Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-loadtest" (fun dir ->
          let sock = Filename.concat dir "lt.sock" in
          let address = `Unix_path sock in
          let server_cfg =
            { (Server.default_config address) with
              Server.backend = cfg.backend;
              fleet_transport = cfg.transport;
              jobs = cfg.jobs;
              (* every client may queue at once; the loadtest must
                 measure latency, not exercise admission control *)
              queue_max = (cfg.clients * 2) + 16;
              registry_budget = cfg.registry_budget;
              scratch_dir = Some (Filename.concat dir "scratch");
              quiet = true }
          in
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 -> (
            try
              Server.run server_cfg;
              Unix._exit 0
            with _ -> Unix._exit 1)
          | daemon_pid ->
            let finish () =
              (try Unix.kill daemon_pid Sys.sigterm
               with Unix.Unix_error _ -> ());
              let rec reap tries =
                match Unix.waitpid [ Unix.WNOHANG ] daemon_pid with
                | 0, _ when tries > 0 ->
                  Unix.sleepf 0.05;
                  reap (tries - 1)
                | 0, _ ->
                  (try Unix.kill daemon_pid Sys.sigkill
                   with Unix.Unix_error _ -> ());
                  ignore (Unix.waitpid [] daemon_pid)
                | _ -> ()
              in
              reap 200
            in
            Fun.protect ~finally:finish (fun () ->
                (* wait for the socket, then open every connection with a
                   blocking hello exchange (simple, and it cannot deadlock:
                   the daemon answers hello synchronously) *)
                let rec wait_sock tries =
                  if Sys.file_exists sock then Ok ()
                  else if tries = 0 then Error "daemon did not come up"
                  else begin
                    Unix.sleepf 0.05;
                    wait_sock (tries - 1)
                  end
                in
                match wait_sock 200 with
                | Error m -> Error m
                | Ok () -> (
                  let workloads = Array.of_list cfg.workloads in
                  let connect idx =
                    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                    match
                      Unix.connect fd (Unix.ADDR_UNIX sock);
                      Proto.write_frame fd
                        (Proto.request_to_json
                           (Proto.Hello { proto = Proto.version }));
                      Proto.read_frame fd
                    with
                    | Ok (Some j) -> (
                      match Proto.response_of_json j with
                      | Ok (Proto.R_hello _) ->
                        Unix.set_nonblock fd;
                        let wname =
                          workloads.(idx mod Array.length workloads)
                        in
                        let w = Workloads.Suite.find wname in
                        let scale =
                          match cfg.scale with
                          | Some s -> s
                          | None -> w.Workloads.Workload.test_scale
                        in
                        Ok
                          { fd; dec = Proto.Decoder.create ();
                            rbuf = Bytes.create 65536;
                            outb = Bytes.create 0; out_off = 0; wname;
                            wref =
                              Proto.Workload
                                { name = wname; scale = Some scale };
                            idx; greeted = true; sent = 0; got = 0;
                            t_send = 0.; dead = false }
                      | Ok _ | Error _ ->
                        Unix.close fd;
                        Error "unexpected hello reply"
                    )
                    | Ok None -> Unix.close fd; Error "daemon closed during hello"
                    | Error m -> Unix.close fd; Error m
                    | exception Unix.Unix_error (e, fn, _) ->
                      (try Unix.close fd with _ -> ());
                      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
                  in
                  let rec connect_all acc i =
                    if i = cfg.clients then Ok (List.rev acc)
                    else
                      match connect i with
                      | Ok c -> connect_all (c :: acc) (i + 1)
                      | Error m ->
                        List.iter (fun c -> try Unix.close c.fd with _ -> ()) acc;
                        Error (Printf.sprintf "client %d: %s" i m)
                  in
                  match connect_all [] 0 with
                  | Error m -> Error m
                  | Ok clients ->
                    progress
                      (Printf.sprintf
                         "daemon up (%s backend, %d jobs); %d clients \
                          connected"
                         (Server.backend_name cfg.backend) cfg.jobs
                         cfg.clients);
                    Fun.protect
                      ~finally:(fun () ->
                        List.iter
                          (fun c -> try Unix.close c.fd with _ -> ())
                          clients)
                      (fun () ->
                        (* (workload -> distinct architectural results
                           observed); bit-identity means one per key *)
                        let seen : (string, string list) Hashtbl.t =
                          Hashtbl.create 8
                        in
                        let observe w arch =
                          let l =
                            Option.value ~default:[] (Hashtbl.find_opt seen w)
                          in
                          if not (List.mem arch l) then
                            Hashtbl.replace seen w (arch :: l)
                        in
                        let n = cfg.requests_per_client in
                        match run_phase cfg clients ~n ~observe with
                        | Error m -> Error ("cold " ^ m)
                        | Ok cold -> (
                          progress
                            (Printf.sprintf
                               "cold phase: %d requests in %.2fs (%.1f \
                                req/s, p50 %.1fms, p99 %.1fms)"
                               cold.ph_requests cold.ph_wall_s cold.ph_rps
                               cold.ph_p50_ms cold.ph_p99_ms);
                          match run_phase cfg clients ~n ~observe with
                          | Error m -> Error ("warm " ^ m)
                          | Ok warm ->
                            progress
                              (Printf.sprintf
                                 "warm phase: %d requests in %.2fs (%.1f \
                                  req/s, p50 %.1fms, p99 %.1fms, %d warm \
                                  hits)"
                                 warm.ph_requests warm.ph_wall_s warm.ph_rps
                                 warm.ph_p50_ms warm.ph_p99_ms
                                 warm.ph_warm_hits);
                            (* verification: daemon results vs direct runs,
                               fast cycles vs slow cycles *)
                            let divergent = ref 0 in
                            (* only workloads some client requested have
                               daemon results to compare *)
                            List.iter
                              (fun wname ->
                                let w = Workloads.Suite.find wname in
                                let scale =
                                  match cfg.scale with
                                  | Some s -> s
                                  | None -> w.Workloads.Workload.test_scale
                                in
                                let prog = w.Workloads.Workload.build scale in
                                let spec = spec_for cfg in
                                let fast =
                                  Sim.run ~engine:`Fast
                                    (Spec.with_pcache
                                       (Memo.Pcache.create
                                          ~policy:spec.Spec.policy ())
                                       spec)
                                    prog
                                in
                                let slow = Sim.run ~engine:`Slow spec prog in
                                let expect = arch_str fast in
                                let got = Hashtbl.find seen wname in
                                let ok =
                                  List.for_all (( = ) expect) got
                                  && fast.Sim.cycles = slow.Sim.cycles
                                  && fast.Sim.retired = slow.Sim.retired
                                in
                                if not ok then incr divergent)
                              (List.filter (Hashtbl.mem seen) cfg.workloads);
                            progress
                              (Printf.sprintf
                                 "verification: %d divergent workload(s)"
                                 !divergent);
                            Ok
                              { lt_backend = Server.backend_name cfg.backend;
                                lt_transport =
                                  Fleet.transport_to_string cfg.transport;
                                lt_jobs = cfg.jobs;
                                lt_clients = cfg.clients;
                                lt_requests_per_client = n;
                                lt_workloads = cfg.workloads;
                                lt_cold = cold;
                                lt_warm = warm;
                                lt_divergent = !divergent })))))

let phase_to_json p =
  J.Obj
    [ ("requests", J.Int p.ph_requests);
      ("errors", J.Int p.ph_errors);
      ("warm_hits", J.Int p.ph_warm_hits);
      ("wall_s", J.Float p.ph_wall_s);
      ("rps", J.Float p.ph_rps);
      ("p50_ms", J.Float p.ph_p50_ms);
      ("p90_ms", J.Float p.ph_p90_ms);
      ("p99_ms", J.Float p.ph_p99_ms);
      ("mean_ms", J.Float p.ph_mean_ms) ]

let report_to_json r =
  J.Obj
    [ ("backend", J.Str r.lt_backend);
      ("transport", J.Str r.lt_transport);
      ("jobs", J.Int r.lt_jobs);
      ("clients", J.Int r.lt_clients);
      ("requests_per_client", J.Int r.lt_requests_per_client);
      ("workloads", J.List (List.map (fun w -> J.Str w) r.lt_workloads));
      ("cold", phase_to_json r.lt_cold);
      ("warm", phase_to_json r.lt_warm);
      ("divergent_workloads", J.Int r.lt_divergent) ]
