(* The daemon workload: a fleet daemon ([jobs] = 2) under a closed loop
   of two connections from this process. Each connection sends its next
   run request only when the previous one has completed; requests cycle
   through the workload's jobs in an order drawn from the seed. Every
   response is checked against a direct SlowSim run of the same program
   and spec (not against the loadtest's divergence counter, which counts
   a configured workload that no client requested as divergent). *)

module Sim = Fastsim.Sim
module J = Fastsim_obs.Json
module Proto = Fastsim_serve.Proto
module Client = Fastsim_serve.Client
module Server = Fastsim_serve.Server

let connections = 2

type session = {
  pid : int;          (** the daemon. *)
  dir : string;
  ctl : Client.t;     (** stats, telemetry and shutdown; idle while timed. *)
  conns : Unix.file_descr array;
  setup_ns : int;
}

let hello fd =
  Proto.write_frame fd
    (Proto.request_to_json (Proto.Hello { proto = Proto.version }));
  match Proto.read_frame fd with
  | Ok (Some j) -> (
    match Proto.response_of_json j with
    | Ok (Proto.R_hello _) -> ()
    | _ -> failwith "daemon: unexpected hello reply")
  | Ok None -> failwith "daemon closed the connection during hello"
  | Error m -> failwith ("daemon hello: " ^ m)

let rec connect sock tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
    Unix.close fd;
    Unix.sleepf 0.0002;
    connect sock (tries - 1)

(* Set-up, timed as a whole: build the programs, start the daemon, and
   greet every connection. *)
let open_session (w : Units.t) jobs =
  let t0 = Clock.ns () in
  let progs = List.map Units.build jobs in
  ignore (Sys.opaque_identity progs);
  let dir = Tmp.fresh_dir () in
  let sock = Filename.concat dir "sock" in
  let cfg =
    { (Server.default_config (`Unix_path sock)) with
      Server.jobs = 2;
      registry_budget = w.Units.registry_budget;
      scratch_dir = Some (Filename.concat dir "scratch");
      quiet = true }
  in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 -> (
      try
        Server.run cfg;
        Unix._exit 0
      with _ -> Unix._exit 1)
    | pid -> pid
  in
  let conns =
    Array.init connections (fun _ ->
        let fd = connect sock 25_000 in
        hello fd;
        fd)
  in
  let ctl =
    match
      Client.connect ~retries:100 ~retry_delay_s:0.01 (`Unix_path sock)
    with
    | Ok c -> c
    | Error m -> failwith ("daemon control connection: " ^ m)
  in
  let setup_ns = Clock.ns () - t0 in
  Array.iter Unix.set_nonblock conns;
  { pid; dir; ctl; conns; setup_ns }

let close_session s =
  ignore (Client.shutdown s.ctl ~id:"bye" : (unit, string) result);
  Client.close s.ctl;
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    s.conns;
  ignore (Proc.waitpid s.pid : Unix.process_status);
  Tmp.rm_rf s.dir

(* Daemon processes: the server and its shard workers. *)
let fleet_pids stats =
  match J.member "fleet" stats with
  | J.List shards ->
    List.filter_map
      (fun s -> match J.member "pid" s with J.Int p -> Some p | _ -> None)
      shards
  | _ | (exception J.Parse_error _) -> []

let stats s =
  match Client.stats s.ctl ~id:"stats" with
  | Ok j -> j
  | Error m -> failwith ("daemon stats: " ^ m)

let daemon_rss_mb s =
  let pids = s.pid :: fleet_pids (stats s) in
  float_of_int
    (List.fold_left (fun a p -> a + Proc.peak_rss_kb (Some p)) 0 pids)
  /. 1024.

(* ---- the closed loop ---------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  dec : Proto.Decoder.t;
  mutable out : Bytes.t;
  mutable off : int;
  mutable inflight : (int * int) option;  (** job index, send time (ns). *)
}

type sample = {
  job : int;
  rt_ns : int;  (** client round trip. *)
  outcome : (Sim.result * float, string) result;
      (** the result and the daemon's run wall time in seconds. *)
}

let rbuf = Bytes.create 65536

let would_block = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

let pump_write c =
  let len = Bytes.length c.out - c.off in
  if len > 0 then
    match Unix.write c.fd c.out c.off len with
    | n -> c.off <- c.off + n
    | exception Unix.Unix_error (e, _, _) when would_block e -> ()

let read_frames c =
  (match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
   | 0 -> failwith "daemon closed a client connection"
   | n -> Proto.Decoder.feed c.dec rbuf n
   | exception Unix.Unix_error (e, _, _) when would_block e -> ());
  let rec drain acc =
    match Proto.Decoder.next c.dec with
    | Ok (Some j) -> drain (j :: acc)
    | Ok None -> List.rev acc
    | Error m -> failwith ("bad frame from daemon: " ^ m)
  in
  drain []

(* Issues requests for [seconds], then lets the in-flight ones finish.
   Returns the samples and the wall time from the first send to the last
   completion. *)
let drive s (jobs : Units.job array) ~next ~seconds =
  let conns =
    Array.map
      (fun fd ->
        { fd; dec = Proto.Decoder.create (); out = Bytes.empty; off = 0;
          inflight = None })
      s.conns
  in
  let samples = ref [] and seq = ref 0 in
  let t0 = Clock.ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let last = ref t0 in
  let issue c =
    let j = next () in
    let job = jobs.(j) in
    incr seq;
    c.out <-
      Proto.encode_frame
        (Proto.request_to_json
           (Proto.Run
              { id = string_of_int !seq; engine = `Fast;
                spec = job.Units.spec;
                program =
                  Proto.Workload
                    { name = job.Units.kernel; scale = Some job.Units.scale };
                fault = None }));
    c.off <- 0;
    c.inflight <- Some (j, Clock.ns ());
    pump_write c
  in
  let complete c outcome =
    match c.inflight with
    | None -> ()
    | Some (job, sent) ->
      let now = Clock.ns () in
      last := now;
      samples := { job; rt_ns = now - sent; outcome } :: !samples;
      c.inflight <- None
  in
  let receive c j =
    match Proto.response_of_json j with
    | Ok (Proto.Result { result; wall_s; _ }) ->
      complete c (Ok (result, wall_s))
    | Ok (Proto.Error { message; _ }) -> complete c (Error message)
    | Ok _ -> ()
    | Error m -> complete c (Error ("undecodable response: " ^ m))
  in
  let busy () =
    List.filter (fun c -> c.inflight <> None) (Array.to_list conns)
  in
  let rec loop () =
    if Clock.ns () < deadline then
      Array.iter (fun c -> if c.inflight = None then issue c) conns;
    match busy () with
    | [] -> ()
    | busy ->
      let writes =
        List.filter_map
          (fun c -> if Bytes.length c.out > c.off then Some c.fd else None)
          busy
      in
      (match Unix.select (List.map (fun c -> c.fd) busy) writes [] 0.1 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, writable, _ ->
         List.iter
           (fun c ->
             if List.memq c.fd writable then pump_write c;
             if List.memq c.fd readable then
               List.iter (receive c) (read_frames c))
           busy);
      loop ()
  in
  loop ();
  (List.rev !samples, Clock.secs (!last - t0))

(* Endless request order: one seeded shuffle of the jobs after another. *)
let order ~seed n =
  let st = Random.State.make [| seed; n |] in
  let perm = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos >= n then begin
      for i = n - 1 downto 1 do
        let k = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(k);
        perm.(k) <- t
      done;
      pos := 0
    end;
    let j = perm.(!pos) in
    incr pos;
    j

(* Checks every sample against its job's reference; returns the number
   that failed, noting each. *)
let failures jobs refs samples =
  let keys =
    Array.of_list (List.map (fun (r : Check.reference) -> r.Check.key) refs)
  in
  List.fold_left
    (fun n s ->
      let fail what =
        Report.note "FAIL %s: %s" (Units.label jobs.(s.job)) what;
        n + 1
      in
      match s.outcome with
      | Ok (r, _) when Check.arch_key r = keys.(s.job) -> n
      | Ok _ -> fail "response differs from SlowSim"
      | Error m -> fail m)
    0 samples

(* References for [jobs], then [setups] sessions timed from start to the
   last greeting; the last one stays open for [f], which receives it, the
   set-up times and the checking function for its samples. *)
let with_session (w : Units.t) jobs ~setups f =
  let jobs_a = Array.of_list jobs in
  let refs = Check.references (List.map (fun j -> (j, Units.build j)) jobs) in
  let rec sessions acc k =
    let s = open_session w jobs in
    if k = 1 then (s, Clock.secs s.setup_ns :: acc)
    else begin
      close_session s;
      sessions (Clock.secs s.setup_ns :: acc) (k - 1)
    end
  in
  let s, setup_s = sessions [] setups in
  Fun.protect ~finally:(fun () ->
      close_session s;
      Tmp.cleanup ())
  @@ fun () -> f s jobs_a setup_s (failures jobs_a refs)

let setup_reps = 7

(* Host probes taken before and after the window (none run inside it,
   where they would take cores from the daemon). *)
let probes = 5

let run (w : Units.t) ~seed ~seconds =
  with_session w w.Units.jobs ~setups:setup_reps
  @@ fun s jobs setups check ->
  Host.sample Host.Typical probes;
  let samples, wall =
    drive s jobs ~next:(order ~seed (Array.length jobs)) ~seconds
  in
  Host.sample Host.Typical probes;
  let failed = check samples in
  let ok = List.filter_map (fun s -> Result.to_option s.outcome) samples in
  let n = List.length samples in
  let rt =
    Array.of_list (List.map (fun s -> Clock.secs s.rt_ns *. 1e3) samples)
  in
  let retired = List.fold_left (fun a (r, _) -> a + r.Sim.retired) 0 ok in
  let slowdown = Host.slowdown Host.Typical in
  let corrected = Report.corrected ~slowdown in
  corrected ~samples:n `Rate "sim_kips" "kinst/s"
    (float_of_int retired /. wall /. 1e3);
  corrected ~samples:n `Rate "rps" "1/s" (float_of_int n /. wall);
  corrected ~samples:n `Time "latency_p50_ms" "ms" (Stat.percentile rt 0.5);
  corrected ~samples:n `Time "latency_p99_ms" "ms" (Stat.percentile rt 0.99);
  corrected ~samples:setup_reps `Time "setup_s" "s"
    (Stat.median (Array.of_list setups));
  Report.add "peak_rss_mb" "MB" (daemon_rss_mb s);
  Report.add ~samples:n ~in_result:false "fail_ratio" "ratio"
    (Stat.ratio failed n);
  (n, failed)

(* ---- per-layer view of a session (traced run) ----------------------- *)

let telemetry s =
  let snap =
    match Client.telemetry s.ctl ~id:"telemetry" () with
    | Ok j -> Fastsim_obs.Metrics.snapshot_of_json (J.member "metrics" j)
    | Error m -> Error m
  in
  match snap with
  | Ok snap -> snap
  | Error m -> failwith ("daemon telemetry: " ^ m)

let registry_counter stats k =
  J.to_int (J.member k (J.member "registry" stats))

let shard_requests stats =
  match J.member "fleet" stats with
  | J.List shards ->
    List.map (fun s -> float_of_int (J.to_int (J.member "requests" s))) shards
  | _ -> []

(* A session over [jobs] with the serve layer's own counters: registry
   hit ratio, spills and reloads, queue wait, run time and the daemon's
   overhead on top of it, and how evenly the shards were loaded. *)
let per_layer (w : Units.t) jobs ~seed ~seconds =
  with_session w jobs ~setups:1 @@ fun s jobs _ check ->
  let st0 = stats s and tm0 = telemetry s in
  let samples, _ =
    drive s jobs ~next:(order ~seed (Array.length jobs)) ~seconds
  in
  let st1 = stats s and tm1 = telemetry s in
  let failed = check samples in
  let delta k = registry_counter st1 k - registry_counter st0 k in
  let hits = delta "hits" and misses = delta "misses" in
  Report.add ~samples:(hits + misses) "serve.registry.hit_ratio" "ratio"
    (Stat.ratio hits (hits + misses));
  Report.count "serve.registry.spills" (delta "spills");
  Report.count "serve.registry.reloads" (delta "reloads");
  let module M = Fastsim_obs.Metrics in
  let wait =
    match
      List.assoc_opt "serve.queue_wait_us"
        (M.snapshot_diff ~after:tm1 ~before:tm0).M.s_histograms
    with
    | Some h -> h
    | None -> failwith "daemon telemetry has no serve.queue_wait_us"
  in
  let wait_ms p = M.hsnap_quantile wait p /. 1e3 in
  Report.add ~samples:wait.M.s_count "serve.queue_wait_ms.p50" "ms"
    (wait_ms 0.5);
  Report.add ~samples:wait.M.s_count "serve.queue_wait_ms.p99" "ms"
    (wait_ms 0.99);
  let run_ms, overhead_ms =
    List.split
      (List.filter_map
         (fun s ->
           match s.outcome with
           | Ok (_, wall_s) ->
             Some (wall_s *. 1e3, (Clock.secs s.rt_ns -. wall_s) *. 1e3)
           | Error _ -> None)
         samples)
  in
  let n = List.length run_ms in
  Report.add ~samples:n "serve.run_ms.p50" "ms"
    (Stat.median (Array.of_list run_ms));
  Report.add ~samples:n "serve.overhead_ms.p50" "ms"
    (Stat.median (Array.of_list overhead_ms));
  let per_shard =
    List.map2 ( -. ) (shard_requests st1) (shard_requests st0)
  in
  let mean =
    List.fold_left ( +. ) 0. per_shard /. float_of_int (List.length per_shard)
  in
  Report.add ~samples:(List.length per_shard) "serve.shard_imbalance" "ratio"
    (List.fold_left Float.max 0. per_shard /. mean);
  (List.length samples, failed)
