(* Fastsim_serve: the persistent daemon. Wire-protocol codecs and
   framing, the warm p-action-cache registry (LRU spill and reload),
   and a live daemon forked per test — bit-identity against direct
   Sim.run over every engine, warm-registry replay on repeat requests,
   concurrent clients, and injected worker faults. *)

module J = Fastsim_obs.Json
module Sim = Fastsim.Sim
module Spec = Fastsim.Sim.Spec
module Proto = Fastsim_serve.Proto
module Registry = Fastsim_serve.Registry
module Server = Fastsim_serve.Server
module Client = Fastsim_serve.Client

let check = Alcotest.check

let workload name =
  let w = Workloads.Suite.find name in
  (w, w.Workloads.Workload.build w.Workloads.Workload.test_scale)

let wref name =
  let w = Workloads.Suite.find name in
  Proto.Workload { name; scale = Some w.Workloads.Workload.test_scale }

(* Direct (no daemon) reference run with the same cold-start the server
   performs: a fresh pcache at the spec's policy for the fast engine. *)
let direct engine spec prog =
  let spec =
    match engine with
    | `Fast -> Spec.with_pcache (Memo.Pcache.create ~policy:spec.Spec.policy ()) spec
    | `Slow | `Baseline -> spec
  in
  Sim.run ~engine spec prog

let result_str r = J.to_string (Sim.result_to_json r)

(* Warm and cold runs agree on everything architectural and on timing;
   the memo/pcache introspection counters necessarily differ (a warm
   run replays more). This is the comparable part. *)
let arch_str r =
  match Sim.result_to_json r with
  | J.Obj fields ->
    J.to_string
      (J.Obj
         (List.filter (fun (k, _) -> k <> "memo" && k <> "pcache") fields))
  | j -> J.to_string j

(* ---------------------------------------------------------------- *)
(* Protocol codecs: every frame type round-trips through its JSON
   encoding, byte-for-byte. *)

let rt_request r =
  let j = Proto.request_to_json r in
  match Proto.request_of_json (J.of_string (J.to_string j)) with
  | Error m -> Alcotest.failf "request decode: %s" m
  | Ok r' ->
    check Alcotest.string "request round-trip" (J.to_string j)
      (J.to_string (Proto.request_to_json r'))

let rt_response r =
  let j = Proto.response_to_json r in
  match Proto.response_of_json (J.of_string (J.to_string j)) with
  | Error m -> Alcotest.failf "response decode: %s" m
  | Ok r' ->
    check Alcotest.string "response round-trip" (J.to_string j)
      (J.to_string (Proto.response_to_json r'))

let test_proto_roundtrip () =
  let spec = Spec.with_predictor Sim.Taken Spec.default in
  List.iter rt_request
    [ Proto.Hello { proto = Proto.version };
      Proto.Run
        { id = "r1"; engine = `Fast; spec; program = wref "li";
          fault = None };
      Proto.Run
        { id = "r2"; engine = `Slow; spec = Spec.default;
          program = Proto.Asm "  halt\n"; fault = Some "crash" };
      Proto.Run
        { id = "r3"; engine = `Baseline; spec = Spec.default;
          program = Proto.By_digest (String.make 32 'a'); fault = None };
      Proto.Stats { id = "s" };
      Proto.Telemetry { id = "t"; include_trace = false };
      Proto.Telemetry { id = "t2"; include_trace = true };
      Proto.Cancel { id = "r1" };
      Proto.Ping { id = "p" };
      Proto.Shutdown { id = "q" } ];
  let _, prog = workload "li" in
  let result = direct `Fast Spec.default prog in
  List.iter rt_response
    [ Proto.R_hello { proto = Proto.version };
      Proto.Accepted { id = "r1" };
      Proto.Result
        { id = "r1"; result; wall_s = 0.125; warm = true;
          digest = String.make 32 'b' };
      Proto.Error
        { id = Some "r1"; code = Proto.Timeout; message = "too slow" };
      Proto.Error { id = None; code = Proto.Bad_request; message = "what" };
      Proto.R_stats { id = "s"; stats = J.Obj [ ("x", J.Int 1) ] };
      Proto.R_telemetry
        { id = "t";
          telemetry =
            J.Obj [ ("at", J.Float 1.5); ("metrics", J.Obj []) ] };
      Proto.Pong { id = "p" } ]

let test_proto_rejects_junk () =
  let expect_err s =
    match Proto.request_of_json (J.of_string s) with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  expect_err {|{"type":"warp"}|};
  expect_err {|{"type":"ping"}|} (* missing id *);
  expect_err {|{"type":"ping","id":"a","volume":11}|};
  (* duplicate keys are an error, not last-wins *)
  expect_err {|{"type":"ping","id":"a","id":"b"}|};
  expect_err {|{"type":"telemetry"}|} (* missing id *);
  expect_err {|{"type":"telemetry","id":"a","trace":"yes"}|};
  expect_err {|{"type":"telemetry","id":"a","verbose":true}|};
  match
    Proto.response_of_json (J.of_string {|{"type":"error","code":"nope","message":"m"}|})
  with
  | Ok _ -> Alcotest.fail "accepted bad error code"
  | Error _ -> ()

(* The incremental decoder reassembles frames from arbitrarily ragged
   chunks — here, one byte at a time — and preserves order. *)
let test_decoder_reassembly () =
  let frames =
    [ Proto.request_to_json (Proto.Ping { id = "a" });
      Proto.request_to_json (Proto.Stats { id = "b" });
      Proto.request_to_json (Proto.Shutdown { id = "c" }) ]
  in
  let wire = Buffer.create 256 in
  List.iter (fun j -> Buffer.add_bytes wire (Proto.encode_frame j)) frames;
  let d = Proto.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Proto.Decoder.feed d (Bytes.make 1 ch) 1;
      match Proto.Decoder.next d with
      | Ok (Some j) -> got := j :: !got
      | Ok None -> ()
      | Error m -> Alcotest.failf "decoder: %s" m)
    (Buffer.contents wire);
  check (Alcotest.list Alcotest.string) "frames in order"
    (List.map J.to_string frames)
    (List.rev_map J.to_string !got)

let test_decoder_oversize () =
  let d = Proto.Decoder.create () in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 '\x7f';
  Bytes.set hdr 1 '\xff';
  Bytes.set hdr 2 '\xff';
  Bytes.set hdr 3 '\xff';
  Proto.Decoder.feed d hdr 4;
  match Proto.Decoder.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

let test_address_parse () =
  let ok s a =
    match Proto.address_of_string s with
    | Ok a' -> check Alcotest.string s (Proto.address_to_string a)
                 (Proto.address_to_string a')
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok "unix:/tmp/x.sock" (`Unix_path "/tmp/x.sock");
  ok "/tmp/x.sock" (`Unix_path "/tmp/x.sock");
  ok "tcp:localhost:7000" (`Tcp ("localhost", 7000));
  match Proto.address_of_string "tcp:nope" with
  | Ok _ -> Alcotest.fail "bad tcp address accepted"
  | Error _ -> ()

(* ---------------------------------------------------------------- *)
(* Registry: LRU spill under a byte budget, reload on re-acquire, and
   the reloaded cache actually replays. *)

let test_registry_lru () =
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-reg" (fun dir ->
      let _, prog = workload "li" in
      let digest = Digest.to_hex (Memo.Persist.program_digest prog) in
      let spec1 = Spec.default in
      let spec2 = Spec.with_predictor Sim.Taken Spec.default in
      let run spec pc = Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog in
      (* size one warm cache so the budget fits exactly one of the two *)
      let probe = Memo.Pcache.create () in
      let cold1 = run spec1 probe in
      let bytes = (Memo.Pcache.counters probe).Memo.Pcache.modeled_bytes in
      Alcotest.(check bool) "probe cache is non-trivial" true (bytes > 0);
      let reg =
        Registry.create ~dir:(Filename.concat dir "reg")
          ~budget_bytes:(bytes + (bytes / 2))
          ~program_of:(fun d -> if d = digest then Some prog else None)
          ()
      in
      let key1 = Registry.spec_key spec1
      and key2 = Registry.spec_key spec2 in
      let warm_run spec key =
        let pc =
          match
            Registry.acquire reg ~digest ~spec_key:key
              ~policy:Memo.Pcache.Unbounded ~program:prog
          with
          | Some pc -> pc
          | None -> Memo.Pcache.create ()
        in
        let r = run spec pc in
        Registry.commit_mem reg ~digest ~spec_key:key pc;
        r
      in
      let r1 = warm_run spec1 key1 in
      check Alcotest.string "registry run matches direct" (result_str cold1)
        (result_str r1);
      ignore (warm_run spec2 key2 : Sim.result);
      (* two hot entries exceed the budget: the LRU one (spec1) was
         spilled to disk and dropped from memory *)
      check Alcotest.int "both entries present" 2 (Registry.entry_count reg);
      check Alcotest.int "one survives hot" 1 (Registry.hot_count reg);
      check Alcotest.int "the loser was spilled, not discarded" 1
        (Registry.spills reg);
      (* re-acquiring the spilled entry reloads it from its file... *)
      let r1' = warm_run spec1 key1 in
      check Alcotest.int "reload happened" 1 (Registry.reloads reg);
      check Alcotest.string "reloaded result identical" (arch_str cold1)
        (arch_str r1');
      (* ...and the reloaded cache replays rather than re-simulating *)
      (match r1'.Sim.memo with
       | Some m ->
         Alcotest.(check bool) "warm reload replays" true
           (m.Memo.Stats.replayed_retired > 0)
       | None -> Alcotest.fail "fast run without memo stats"))

(* The registry's telemetry instruments: under a starvation budget
   every commit spills its entry to disk and evicts it from memory,
   and the shared metrics registry sees each transition — counters for
   hit/miss/spill/evict/reload traffic, gauges tracking the hot and
   spilled footprint byte-for-byte. *)
let test_registry_eviction_telemetry () =
  let module M = Fastsim_obs.Metrics in
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-regtel" (fun dir ->
      let _, prog = workload "li" in
      let digest = Digest.to_hex (Memo.Persist.program_digest prog) in
      let pc = Memo.Pcache.create () in
      ignore (Sim.run ~engine:`Fast (Spec.with_pcache pc Spec.default) prog
              : Sim.result);
      let metrics = M.create () in
      let counter n = M.counter_value (M.counter metrics n) in
      let gauge n = M.gauge_value (M.gauge metrics n) in
      let reg =
        Registry.create ~dir:(Filename.concat dir "reg") ~budget_bytes:1
          ~program_of:(fun d -> if d = digest then Some prog else None)
          ~metrics ()
      in
      let key1 = Registry.spec_key Spec.default in
      let key2 =
        Registry.spec_key (Spec.with_predictor Sim.Taken Spec.default)
      in
      (match
         Registry.acquire reg ~digest ~spec_key:key1
           ~policy:Memo.Pcache.Unbounded ~program:prog
       with
       | Some _ -> Alcotest.fail "empty registry returned a cache"
       | None -> ());
      check Alcotest.int "miss counted" 1 (counter "registry.misses");
      (* the freshest commit is always kept hot, so the first commit
         survives even a 1-byte budget... *)
      Registry.commit_mem reg ~digest ~spec_key:key1 pc;
      check Alcotest.int "lone entry not spilled" 0
        (counter "registry.spills");
      Alcotest.(check bool) "hot gauge tracks the commit" true
        (gauge "registry.hot_bytes" > 0.);
      (* ...and the second commit forces the first out: spilled to a
         file, evicted from memory, every gauge adjusted *)
      Registry.commit_mem reg ~digest ~spec_key:key2 pc;
      check Alcotest.int "spill counted" 1 (counter "registry.spills");
      check Alcotest.int "eviction counted" 1 (counter "registry.evictions");
      check (Alcotest.float 0.) "one entry still hot" 1.
        (gauge "registry.hot_entries");
      check (Alcotest.float 0.) "both entries tracked" 2.
        (gauge "registry.entries");
      check (Alcotest.float 0.) "hot gauge = hot bytes"
        (float_of_int (Registry.hot_bytes reg))
        (gauge "registry.hot_bytes");
      check (Alcotest.float 0.) "spilled gauge tracks the file"
        (float_of_int (Registry.spilled_bytes reg))
        (gauge "registry.spilled_bytes");
      Alcotest.(check bool) "spilled bytes non-trivial" true
        (Registry.spilled_bytes reg > 0);
      (* re-acquire the spilled entry: a hit that reloads from disk —
         and evicts the other entry in turn *)
      (match
         Registry.acquire reg ~digest ~spec_key:key1
           ~policy:Memo.Pcache.Unbounded ~program:prog
       with
       | Some _ -> ()
       | None -> Alcotest.fail "spilled entry did not reload");
      check Alcotest.int "hit counted" 1 (counter "registry.hits");
      check Alcotest.int "reload counted" 1 (counter "registry.reloads");
      check Alcotest.int "displaced sibling evicted" 2
        (counter "registry.evictions");
      (* per-digest traffic counters exist under the digest's prefix *)
      let short = String.sub digest 0 12 in
      check Alcotest.int "per-digest miss" 1
        (counter (Printf.sprintf "registry.digest.%s.misses" short));
      check Alcotest.int "per-digest hit" 1
        (counter (Printf.sprintf "registry.digest.%s.hits" short));
      (* counters agree with the registry's own accounting *)
      check Alcotest.int "spills accessor agrees" (Registry.spills reg)
        (counter "registry.spills");
      check Alcotest.int "evictions accessor agrees"
        (Registry.evictions reg)
        (counter "registry.evictions"))

(* One shared chain store per program digest: two specs of the same
   program committed through the registry bind the same store, their
   grammar-compressed chains dedup against each other, and the serve
   stats expose refcount > 1 — the cross-spec-sharing proof named in
   docs/SERVE.md. *)
let test_registry_shared_chain_store () =
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-regshare" (fun dir ->
      let _, prog = workload "compress" in
      let digest = Digest.to_hex (Memo.Persist.program_digest prog) in
      let spec1 = Spec.default in
      let spec2 = Spec.with_predictor Sim.Taken Spec.default in
      (* baseline: the same two runs with private stores *)
      let private_rules spec =
        let store = Memo.Store.create () in
        let pc = Memo.Pcache.create ~store () in
        ignore (Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog
                : Sim.result);
        Memo.Store.live_rules store
      in
      let solo = private_rules spec1 + private_rules spec2 in
      let reg = Registry.create ~dir:(Filename.concat dir "reg") () in
      let commit spec =
        let key = Registry.spec_key spec in
        let pc =
          Memo.Pcache.create ~store:(Registry.chain_store reg ~digest) ()
        in
        ignore (Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog
                : Sim.result);
        Registry.commit_mem reg ~digest ~spec_key:key pc
      in
      commit spec1;
      commit spec2;
      check Alcotest.int "one store for the digest" 1
        (Registry.store_count reg);
      check Alcotest.int "both entries bound to it" 2
        (Registry.store_refs_for reg ~digest);
      Alcotest.(check bool) "shared chains stored once" true
        (Registry.store_rules reg < solo);
      Alcotest.(check bool) "store bytes counted once per digest" true
        (Registry.store_bytes reg > 0);
      (* the stats frame carries the same evidence *)
      match Registry.stats_json reg with
      | J.Obj fields ->
        check Alcotest.bool "stats expose store_refs > 1" true
          (match List.assoc_opt "store_refs" fields with
           | Some (J.Int n) -> n > 1
           | _ -> false)
      | _ -> Alcotest.fail "stats_json is not an object")

(* Regression: the per-digest spilled_bytes gauge used to be bumped on
   every spill, so a spill -> reload -> re-spill cycle (routine under a
   tight budget, where the file on disk is already up to date) counted
   the same file again each lap. The gauge is now recounted from live
   entries; after any number of laps it must equal the registry's own
   on-disk accounting exactly. *)
let test_registry_spilled_bytes_not_double_counted () =
  let module M = Fastsim_obs.Metrics in
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-regspill" (fun dir ->
      let _, prog = workload "li" in
      let digest = Digest.to_hex (Memo.Persist.program_digest prog) in
      let metrics = M.create () in
      let gauge n = M.gauge_value (M.gauge metrics n) in
      let reg =
        Registry.create ~dir:(Filename.concat dir "reg") ~budget_bytes:1
          ~program_of:(fun d -> if d = digest then Some prog else None)
          ~metrics ()
      in
      let spec2 = Spec.with_predictor Sim.Taken Spec.default in
      let commit spec =
        let key = Registry.spec_key spec in
        let pc =
          Memo.Pcache.create ~store:(Registry.chain_store reg ~digest) ()
        in
        ignore (Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog
                : Sim.result);
        Registry.commit_mem reg ~digest ~spec_key:key pc
      in
      commit Spec.default;
      commit spec2;
      let spilled_gauge =
        Printf.sprintf "registry.digest.%s.spilled_bytes"
          (String.sub digest 0 12)
      in
      Alcotest.(check bool) "first spill recorded" true
        (gauge spilled_gauge > 0.);
      (* bounce both entries between disk and memory: each acquire
         reloads one entry and re-spills the other against a file that
         is already up to date *)
      for _ = 1 to 3 do
        List.iter
          (fun spec ->
            match
              Registry.acquire reg ~digest
                ~spec_key:(Registry.spec_key spec)
                ~policy:Memo.Pcache.Unbounded ~program:prog
            with
            | Some _ -> ()
            | None -> Alcotest.fail "spilled entry did not reload")
          [ Spec.default; spec2 ]
      done;
      Alcotest.(check bool) "cycles actually spilled" true
        (Registry.spills reg >= 2);
      check (Alcotest.float 0.) "per-digest gauge = live file bytes"
        (float_of_int (Registry.spilled_bytes reg))
        (gauge spilled_gauge);
      check (Alcotest.float 0.) "global gauge agrees"
        (gauge "registry.spilled_bytes")
        (gauge spilled_gauge))

(* ---------------------------------------------------------------- *)
(* Live daemon tests: fork a server per test, talk to it over its
   socket, reap it afterwards. [tweak] lets a test adjust the config
   (and learn the temp dir) before the daemon forks — used by the
   observability acceptance test to enable logging and trace dumps. *)

let with_server ?(backend = `Inline) ?(jobs = 2) ?(timeout_s = 0.)
    ?registry_budget ?(allow_fault = false)
    ?(tweak = fun cfg (_ : string) -> cfg) f =
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-serve" (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let cfg =
        tweak
          { (Server.default_config (`Unix_path sock)) with
            Server.backend; jobs; timeout_s; registry_budget; allow_fault;
            scratch_dir = Some (Filename.concat dir "scratch");
            quiet = true }
          dir
      in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
        (try
           Server.run cfg;
           Unix._exit 0
         with _ -> Unix._exit 1)
      | pid ->
        let finish () =
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          let rec reap tries =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ when tries > 0 ->
              Unix.sleepf 0.05;
              reap (tries - 1)
            | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid)
            | _ -> ()
          in
          reap 200
        in
        Fun.protect ~finally:finish (fun () ->
            match
              Client.connect ~retries:100 ~retry_delay_s:0.05
                (`Unix_path sock)
            with
            | Error m -> Alcotest.failf "connect: %s" m
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () -> f (`Unix_path sock) c)))

let run_ok c ~id ~engine ?fault program =
  match Client.run c ~id ~engine ~spec:Spec.default ?fault program with
  | Error m -> Alcotest.failf "run %s: %s" id m
  | Ok (Proto.Result _ as r) -> r
  | Ok (Proto.Error { code; message; _ }) ->
    Alcotest.failf "run %s: server error [%s] %s" id
      (Proto.error_code_to_string code)
      message
  | Ok _ -> Alcotest.failf "run %s: unexpected frame" id

(* The paper's claim, through the wire: for every engine, a daemon
   response is bit-identical to a direct Sim.run of the same spec. *)
let test_daemon_bit_identity () =
  with_server ~backend:`Inline (fun _ c ->
      let _, prog = workload "li" in
      List.iter
        (fun engine ->
          let expect = result_str (direct engine Spec.default prog) in
          match run_ok c ~id:"bit" ~engine (wref "li") with
          | Proto.Result { result; _ } ->
            check Alcotest.string "daemon = direct" expect
              (result_str result)
          | _ -> assert false)
        [ `Fast; `Slow; `Baseline ])

(* A repeated fast request is served from the warm registry: the result
   is still bit-identical, the frame says warm, the memo stats show
   replay, and the stats frame shows the registry hit. *)
let test_daemon_warm_repeat () =
  with_server ~backend:`Inline (fun _ c ->
      let first = run_ok c ~id:"a" ~engine:`Fast (wref "li") in
      let second = run_ok c ~id:"b" ~engine:`Fast (wref "li") in
      (match (first, second) with
       | ( Proto.Result { result = r1; warm = w1; _ },
           Proto.Result { result = r2; warm = w2; _ } ) ->
         Alcotest.(check bool) "first is cold" false w1;
         Alcotest.(check bool) "second is warm" true w2;
         check Alcotest.string "warm result identical" (arch_str r1)
           (arch_str r2);
         (match r2.Sim.memo with
          | Some m ->
            Alcotest.(check bool) "replay fraction > 0" true
              (m.Memo.Stats.replayed_retired > 0)
          | None -> Alcotest.fail "no memo stats")
       | _ -> assert false);
      match Client.stats c ~id:"s" with
      | Error m -> Alcotest.failf "stats: %s" m
      | Ok j -> (
        match j with
        | J.Obj fields -> (
          match List.assoc_opt "registry" fields with
          | Some (J.Obj reg) ->
            (match List.assoc_opt "hits" reg with
             | Some (J.Int h) ->
               Alcotest.(check bool) "registry hit counted" true (h >= 1)
             | _ -> Alcotest.fail "stats.registry.hits missing")
          | _ -> Alcotest.fail "stats.registry missing")
        | _ -> Alcotest.fail "stats frame is not an object"))

(* By_digest: re-run a program the server already built without
   re-naming it; unknown digests are a clean error. *)
let test_daemon_by_digest () =
  with_server ~backend:`Inline (fun _ c ->
      let d =
        match run_ok c ~id:"a" ~engine:`Fast (wref "li") with
        | Proto.Result { digest; _ } -> digest
        | _ -> assert false
      in
      (match run_ok c ~id:"b" ~engine:`Fast (Proto.By_digest d) with
       | Proto.Result { warm; _ } ->
         Alcotest.(check bool) "digest re-run is warm" true warm
       | _ -> assert false);
      match
        Client.run c ~id:"c" ~engine:`Fast ~spec:Spec.default
          (Proto.By_digest (String.make 32 '0'))
      with
      | Ok (Proto.Error { code = Proto.Unknown_digest; _ }) -> ()
      | Ok _ -> Alcotest.fail "unknown digest not rejected"
      | Error m -> Alcotest.failf "unknown digest: %s" m)

let test_daemon_unknown_workload () =
  with_server ~backend:`Inline (fun _ c ->
      match
        Client.run c ~id:"x" ~engine:`Fast ~spec:Spec.default
          (Proto.Workload { name = "190.vaporware"; scale = None })
      with
      | Ok (Proto.Error { code = Proto.Unknown_workload; _ }) -> ()
      | Ok _ -> Alcotest.fail "unknown workload not rejected"
      | Error m -> Alcotest.failf "unexpected transport error: %s" m)

(* Concurrent clients against the fork backend: submissions overlap on
   the server; every response still matches a direct run. *)
let test_daemon_concurrent_clients () =
  with_server ~backend:`Fork ~jobs:2 (fun addr c0 ->
      let names = [ "li"; "compress"; "li" ] in
      let conns =
        c0
        :: List.map
             (fun _ ->
               match Client.connect ~retries:20 addr with
               | Ok c -> c
               | Error m -> Alcotest.failf "connect: %s" m)
             (List.tl names)
      in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close (List.tl conns))
        (fun () ->
          (* fire all requests before reading any response *)
          List.iteri
            (fun i (c, name) ->
              match
                Client.send c
                  (Proto.Run
                     { id = Printf.sprintf "c%d" i; engine = `Fast;
                       spec = Spec.default; program = wref name;
                       fault = None })
              with
              | Ok () -> ()
              | Error m -> Alcotest.failf "send: %s" m)
            (List.combine conns names);
          List.iteri
            (fun i (c, name) ->
              let _, prog = workload name in
              (* a duplicate workload may be served warm once the first
                 finishes, so compare the warm-invariant part *)
              let expect = arch_str (direct `Fast Spec.default prog) in
              let rec await () =
                match Client.recv c with
                | Error m -> Alcotest.failf "recv: %s" m
                | Ok (Proto.Accepted _) -> await ()
                | Ok (Proto.Result { result; _ }) ->
                  check Alcotest.string
                    (Printf.sprintf "client %d (%s) = direct" i name)
                    expect (arch_str result)
                | Ok (Proto.Error { message; _ }) ->
                  Alcotest.failf "client %d: %s" i message
                | Ok _ -> Alcotest.failf "client %d: unexpected frame" i
              in
              await ())
            (List.combine conns names)))

(* An injected worker crash surfaces as a worker_crashed error frame —
   and the daemon survives to serve the next request. *)
let test_daemon_worker_crash () =
  with_server ~backend:`Fork ~allow_fault:true (fun _ c ->
      (match
         Client.run c ~id:"boom" ~engine:`Fast ~spec:Spec.default
           ~fault:"crash" (wref "li")
       with
       | Ok (Proto.Error { code = Proto.Worker_crashed; _ }) -> ()
       | Ok _ -> Alcotest.fail "crash did not produce worker_crashed"
       | Error m -> Alcotest.failf "crash request: %s" m);
      match run_ok c ~id:"after" ~engine:`Fast (wref "li") with
      | Proto.Result _ -> ()
      | _ -> assert false)

(* A hung worker is killed at the timeout and answered with an error. *)
let test_daemon_timeout () =
  with_server ~backend:`Fork ~allow_fault:true ~timeout_s:0.3 (fun _ c ->
      match
        Client.run c ~id:"hang" ~engine:`Fast ~spec:Spec.default
          ~fault:"hang" (wref "li")
      with
      | Ok (Proto.Error { code = Proto.Timeout; _ }) -> ()
      | Ok _ -> Alcotest.fail "hang did not time out"
      | Error m -> Alcotest.failf "hang request: %s" m)

(* Faults are refused unless the server opted in. *)
let test_daemon_fault_gate () =
  with_server ~backend:`Inline (fun _ c ->
      match
        Client.run c ~id:"x" ~engine:`Fast ~spec:Spec.default
          ~fault:"crash" (wref "li")
      with
      | Ok (Proto.Error { code = Proto.Bad_request; _ }) -> ()
      | Ok _ -> Alcotest.fail "fault accepted without allow_fault"
      | Error m -> Alcotest.failf "unexpected transport error: %s" m)

(* ---------------------------------------------------------------- *)
(* The observability acceptance test: a forked daemon with every
   telemetry feature enabled — structured logging, slow-trace dumps,
   span buffering — serves concurrent runs, and we assert
   (a) the telemetry frame's stitched Chrome trace holds server- and
       worker-side spans from distinct pids sharing one request id,
   (b) the queue-wait/run-latency histograms and registry gauges are
       populated,
   (c) results are bit-identical to a direct Sim.run — telemetry is
       strictly passive. *)
let test_daemon_telemetry_acceptance () =
  let module M = Fastsim_obs.Metrics in
  let module Log = Fastsim_obs.Log in
  let tmp_dir = ref "" in
  let tweak cfg dir =
    tmp_dir := dir;
    { cfg with
      Server.log =
        Log.open_file ~level:Log.Debug (Filename.concat dir "server.log");
      slow_trace_s = 0.000001 (* every request dumps its trace *);
      trace_dir = Some (Filename.concat dir "traces") }
  in
  with_server ~backend:`Fork ~jobs:2 ~tweak (fun addr c0 ->
      let c1 =
        match Client.connect ~retries:20 addr with
        | Ok c -> c
        | Error m -> Alcotest.failf "connect: %s" m
      in
      Fun.protect
        ~finally:(fun () -> Client.close c1)
        (fun () ->
          (* two overlapping runs, then a warm repeat *)
          List.iter
            (fun (c, id, name) ->
              match
                Client.send c
                  (Proto.Run
                     { id; engine = `Fast; spec = Spec.default;
                       program = wref name; fault = None })
              with
              | Ok () -> ()
              | Error m -> Alcotest.failf "send: %s" m)
            [ (c0, "li0", "li"); (c1, "cp0", "compress") ];
          let await c id =
            let rec go () =
              match Client.recv c with
              | Error m -> Alcotest.failf "recv %s: %s" id m
              | Ok (Proto.Accepted _) -> go ()
              | Ok (Proto.Result { result; _ }) -> result
              | Ok (Proto.Error { message; _ }) ->
                Alcotest.failf "%s: %s" id message
              | Ok _ -> Alcotest.failf "%s: unexpected frame" id
            in
            go ()
          in
          let r_li = await c0 "li0" in
          let _ = await c1 "cp0" in
          (* (c) bit-identity with telemetry fully enabled *)
          let _, prog = workload "li" in
          check Alcotest.string "telemetry-on result = direct"
            (result_str (direct `Fast Spec.default prog))
            (result_str r_li);
          (match run_ok c0 ~id:"li1" ~engine:`Fast (wref "li") with
           | Proto.Result { warm; _ } ->
             Alcotest.(check bool) "repeat is warm" true warm
           | _ -> assert false);
          (* scrape one full telemetry frame with the span trace *)
          let tel =
            match Client.telemetry c0 ~id:"t" ~include_trace:true () with
            | Ok j -> j
            | Error m -> Alcotest.failf "telemetry: %s" m
          in
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " member present") true
                (J.mem k tel))
            [ "at"; "server"; "registry"; "metrics"; "trace" ];
          (* (b) histograms and gauges are populated *)
          let snap =
            match M.snapshot_of_json (J.member "metrics" tel) with
            | Ok s -> s
            | Error m -> Alcotest.failf "metrics decode: %s" m
          in
          let hist n =
            match List.assoc_opt n snap.M.s_histograms with
            | Some h -> h
            | None -> Alcotest.failf "histogram %s missing" n
          in
          Alcotest.(check bool) "queue wait observed" true
            ((hist "serve.queue_wait_us").M.s_count >= 3);
          Alcotest.(check bool) "run latency observed" true
            ((hist "serve.run_latency_us").M.s_count >= 3);
          Alcotest.(check bool) "frame decode observed" true
            ((hist "serve.frame_decode_us").M.s_count >= 3);
          Alcotest.(check bool) "replay fraction observed" true
            ((hist "serve.replay_fraction_pct").M.s_count >= 3);
          let counter n =
            Option.value ~default:0 (List.assoc_opt n snap.M.s_counters)
          in
          Alcotest.(check bool) "warm hit counted" true
            (counter "serve.warm_hits" >= 1);
          Alcotest.(check bool) "replayed instructions counted" true
            (counter "serve.replayed_retired" > 0);
          Alcotest.(check bool) "registry gauges exported" true
            (List.mem_assoc "registry.hot_bytes" snap.M.s_gauges
             && List.mem_assoc "registry.entries" snap.M.s_gauges);
          (* (a) the stitched trace spans at least two processes, and
             one request id appears on spans from both sides *)
          let events =
            match J.member "traceEvents" (J.member "trace" tel) with
            | J.List es -> es
            | _ -> Alcotest.fail "trace has no traceEvents"
          in
          let xs =
            List.filter (fun e -> J.to_str (J.member "ph" e) = "X") events
          in
          let pid_req =
            List.filter_map
              (fun e ->
                let args = J.member "args" e in
                if J.mem "req" args then
                  Some (J.to_int (J.member "pid" e),
                        J.to_str (J.member "req" args))
                else None)
              xs
          in
          let pids = List.sort_uniq compare (List.map fst pid_req) in
          Alcotest.(check bool) "spans from >= 2 processes" true
            (List.length pids >= 2);
          let stitched_req =
            List.exists
              (fun (_, req) ->
                List.length
                  (List.sort_uniq compare
                     (List.filter_map
                        (fun (p, r) -> if r = req then Some p else None)
                        pid_req))
                >= 2)
              pid_req
          in
          Alcotest.(check bool)
            "a request id spans server and worker pids" true stitched_req;
          let span_names = List.map (fun e -> J.to_str (J.member "name" e)) xs in
          List.iter
            (fun n ->
              Alcotest.(check bool) (n ^ " span present") true
                (List.mem n span_names))
            [ "queue.wait"; "request.run"; "pool.fork"; "engine.run" ];
          (* every request crossed the slow-trace threshold: stitched
             per-request dumps landed in trace_dir *)
          let traces = Sys.readdir (Filename.concat !tmp_dir "traces") in
          Alcotest.(check bool) "slow-request traces dumped" true
            (Array.length traces >= 3);
          (* the structured log carries correlated request lines *)
          let log_lines =
            let ic = open_in (Filename.concat !tmp_dir "server.log") in
            let ls = ref [] in
            (try
               while true do
                 ls := input_line ic :: !ls
               done
             with End_of_file -> close_in ic);
            !ls
          in
          let has ev =
            List.exists
              (fun l ->
                match J.of_string l with
                | J.Obj fields ->
                  List.assoc_opt "event" fields = Some (J.Str ev)
                | _ | exception J.Parse_error _ -> false)
              log_lines
          in
          Alcotest.(check bool) "serve.start logged" true (has "serve.start");
          Alcotest.(check bool) "accepted lines logged" true
            (has "serve.accepted");
          Alcotest.(check bool) "settled lines logged" true
            (has "serve.settled");
          Alcotest.(check bool) "pool spawns logged" true (has "pool.spawn")))

(* ---------------------------------------------------------------- *)
(* Outq: the offset-windowed output queue behind pump_writes. Chunks
   drain across partial writes without recopying, pending tracks unsent
   bytes exactly, and a vanished peer surfaces as [`Closed]. *)

let test_outq_windowed_writes () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let module Outq = Fastsim_serve.Outq in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (* a small send buffer forces several partial writes per chunk *)
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let q = Outq.create () in
  check Alcotest.bool "fresh queue empty" true (Outq.is_empty q);
  let chunk n = Bytes.init 65536 (fun i -> Char.chr ((i + n) land 0xff)) in
  Outq.push q (chunk 0);
  Outq.push q (chunk 1);
  check Alcotest.int "pending counts both chunks" (2 * 65536)
    (Outq.pending q);
  let got = Buffer.create (2 * 65536) in
  let rbuf = Bytes.create 8192 in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    ((not (Outq.is_empty q)) || Buffer.length got < 2 * 65536)
    && Unix.gettimeofday () < deadline
  do
    (match Outq.pump q a with
     | `Ok -> ()
     | `Closed -> Alcotest.fail "pump reported closed on a live peer");
    let rec drain () =
      match Unix.read b rbuf 0 (Bytes.length rbuf) with
      | n when n > 0 ->
        Buffer.add_subbytes got rbuf 0 n;
        drain ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    in
    drain ()
  done;
  check Alcotest.bool "queue drained" true (Outq.is_empty q);
  check Alcotest.int "pending back to zero" 0 (Outq.pending q);
  let expect = Bytes.cat (chunk 0) (chunk 1) in
  check Alcotest.string "bytes arrive in order, uncorrupted"
    (Digest.to_hex (Digest.bytes expect))
    (Digest.to_hex (Digest.string (Buffer.contents got)));
  (* a closed consumer: pump reports `Closed once the kernel notices *)
  Unix.close b;
  Outq.push q (Bytes.make 4096 'x');
  let rec until_closed tries =
    if tries = 0 then Alcotest.fail "pump never reported closed peer"
    else
      match Outq.pump q a with
      | `Closed -> ()
      | `Ok ->
        Outq.push q (Bytes.make 4096 'x');
        until_closed (tries - 1)
  in
  until_closed 100;
  Outq.clear q;
  check Alcotest.bool "clear empties" true (Outq.is_empty q);
  Unix.close a

(* A consumer that stops reading while responses pile up is closed once
   its backlog exceeds the output budget — the daemon's heap no longer
   grows with the slowest client, and other connections are unaffected. *)
let test_daemon_slow_consumer () =
  let tweak cfg (_ : string) = { cfg with Server.max_out_bytes = 8192 } in
  with_server ~backend:`Inline ~tweak (fun addr c0 ->
      let flood =
        match Client.connect ~retries:20 addr with
        | Ok c -> c
        | Error m -> Alcotest.failf "connect: %s" m
      in
      (* fire stats requests without reading any replies: the server
         queues responses until the budget trips and cuts us loose *)
      let sent = ref 0 in
      (try
         for i = 1 to 200 do
           match Client.send flood (Proto.Stats { id = string_of_int i }) with
           | Ok () -> incr sent
           | Error _ -> raise Exit
         done
       with Exit -> ());
      Alcotest.(check bool) "some requests went out" true (!sent > 10);
      (* now try to read them all back: the server closed us early, so
         we must hit EOF before the full set arrives *)
      let received = ref 0 in
      (try
         while !received < !sent do
           match Client.recv flood with
           | Ok _ -> incr received
           | Error _ -> raise Exit
         done
       with Exit -> ());
      Client.close flood;
      Alcotest.(check bool)
        (Printf.sprintf "connection cut before all replies (%d/%d)"
           !received !sent)
        true
        (!received < !sent);
      (* the well-behaved connection still works *)
      match run_ok c0 ~id:"after" ~engine:`Fast (wref "li") with
      | Proto.Result _ -> ()
      | _ -> assert false)

(* ---------------------------------------------------------------- *)
(* Registry.adopt: the rename path, the cross-filesystem copy fallback,
   and a missing source never installing a phantom entry. *)

let test_adopt_fallback () =
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-adopt" (fun dir ->
      let _, prog = workload "li" in
      let digest = Digest.to_hex (Memo.Persist.program_digest prog) in
      let reg = Registry.create ~dir:(Filename.concat dir "reg") () in
      let key = Registry.spec_key Spec.default in
      let acquire () =
        Registry.acquire reg ~digest ~spec_key:key
          ~policy:Memo.Pcache.Unbounded ~program:prog
      in
      (* a worker-made cache, saved where a worker would leave it *)
      let pc = Memo.Pcache.create () in
      let cold =
        Sim.run ~engine:`Fast (Spec.with_pcache pc Spec.default) prog
      in
      let save_src path =
        Memo.Persist.Codec.save_file pc ~program:prog path;
        path
      in
      (* cross-filesystem source when the host offers one (/dev/shm is
         usually a different mount than the temp dir): rename fails
         EXDEV and adopt must fall back to copy-then-rename. On hosts
         where both land on one filesystem this degrades to the plain
         rename path — still a valid adoption. *)
      let src =
        let shm = "/dev/shm" in
        let usable =
          Sys.file_exists shm && Sys.is_directory shm
          && (try
                let probe = Filename.concat shm
                    (Printf.sprintf "fastsim-adopt-%d" (Unix.getpid ())) in
                let oc = open_out probe in
                close_out oc;
                Sys.remove probe;
                true
              with Sys_error _ -> false)
        in
        if usable then
          save_src
            (Filename.concat shm
               (Printf.sprintf "fastsim-adopt-%d.pcache" (Unix.getpid ())))
        else save_src (Filename.concat dir "handoff.pcache")
      in
      Registry.adopt reg ~digest ~spec_key:key ~src ~bytes:1;
      Alcotest.(check bool) "source consumed" false (Sys.file_exists src);
      Alcotest.(check bool) "no temp copy left behind" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".adopt"))
           (Sys.readdir (Filename.concat dir "reg")));
      (* the adopted file reloads and actually replays *)
      (match acquire () with
       | None -> Alcotest.fail "adopted entry did not reload"
       | Some pc' ->
         let r =
           Sim.run ~engine:`Fast (Spec.with_pcache pc' Spec.default) prog
         in
         check Alcotest.string "adopted cache replays identically"
           (arch_str cold) (arch_str r);
         (match r.Sim.memo with
          | Some m ->
            Alcotest.(check bool) "adopted cache replays" true
              (m.Memo.Stats.replayed_retired > 0)
          | None -> Alcotest.fail "no memo stats"));
      (* a vanished source must not install an entry that acquire would
         then vouch for *)
      let key2 = Registry.spec_key (Spec.with_predictor Sim.Taken Spec.default) in
      Registry.adopt reg ~digest ~spec_key:key2
        ~src:(Filename.concat dir "nonexistent.pcache") ~bytes:1;
      match
        Registry.acquire reg ~digest ~spec_key:key2
          ~policy:Memo.Pcache.Unbounded ~program:prog
      with
      | Some _ -> Alcotest.fail "phantom adoption produced a cache"
      | None -> ())

(* Several forked workers produce persist files concurrently; the
   parent adopts them all under a budget that fits only one hot cache,
   then reloads each — adoption, reload and LRU eviction interleave
   without losing an entry. *)
let test_adopt_concurrent_workers () =
  Fastsim_exec.Pool.with_temp_dir ~prefix:"fastsim-adoptc" (fun dir ->
      let _, prog = workload "li" in
      let digest = Digest.to_hex (Memo.Persist.program_digest prog) in
      let specs =
        [ Spec.default;
          Spec.with_predictor Sim.Taken Spec.default;
          Spec.with_predictor Sim.Not_taken Spec.default ]
      in
      (* a 1-byte budget: every commit evicts all other hot entries, so
         adoption, reload and LRU eviction interleave maximally *)
      let reg =
        Registry.create ~dir:(Filename.concat dir "reg") ~budget_bytes:1
          ~program_of:(fun d -> if d = digest then Some prog else None)
          ()
      in
      let srcs =
        List.mapi
          (fun i _ -> Filename.concat dir (Printf.sprintf "w%d.pcache" i))
          specs
      in
      flush stdout;
      flush stderr;
      let pids =
        List.map2
          (fun spec src ->
            match Unix.fork () with
            | 0 ->
              (try
                 let pc = Memo.Pcache.create () in
                 ignore
                   (Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog
                     : Sim.result);
                 Memo.Persist.Codec.save_file pc ~program:prog src;
                 Unix._exit 0
               with _ -> Unix._exit 1)
            | pid -> pid)
          specs srcs
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "worker child failed")
        pids;
      List.iter2
        (fun spec src ->
          Registry.adopt reg ~digest ~spec_key:(Registry.spec_key spec) ~src
            ~bytes:1)
        specs srcs;
      check Alcotest.int "every adoption landed" (List.length specs)
        (Registry.entry_count reg);
      (* reload each under the tight budget: every acquire succeeds and
         replays, while LRU eviction keeps the hot footprint at one *)
      List.iter
        (fun spec ->
          match
            Registry.acquire reg ~digest ~spec_key:(Registry.spec_key spec)
              ~policy:spec.Spec.policy ~program:prog
          with
          | None -> Alcotest.fail "adopted entry lost"
          | Some pc ->
            let r = Sim.run ~engine:`Fast (Spec.with_pcache pc spec) prog in
            (match r.Sim.memo with
             | Some m ->
               Alcotest.(check bool) "reloaded adoption replays" true
                 (m.Memo.Stats.replayed_retired > 0)
             | None -> Alcotest.fail "no memo stats");
            Registry.commit_mem reg ~digest ~spec_key:(Registry.spec_key spec)
              pc)
        specs;
      check Alcotest.int "all reloads counted" (List.length specs)
        (Registry.reloads reg);
      Alcotest.(check bool) "budget forced evictions" true
        (Registry.evictions reg >= List.length specs - 1);
      check Alcotest.int "one cache hot at the end" 1 (Registry.hot_count reg))

(* ---------------------------------------------------------------- *)
(* The fleet backend: persistent shard workers with digest-affinity
   warm caches. *)

(* stats helpers: descend ["server"; "running"] style paths *)
let stats_get c keys =
  match Client.stats c ~id:"poll" with
  | Error m -> Alcotest.failf "stats: %s" m
  | Ok j ->
    let rec get j = function
      | [] -> j
      | k :: rest -> (
        match j with
        | J.Obj fs -> (
          match List.assoc_opt k fs with
          | Some v -> get v rest
          | None -> Alcotest.failf "stats field %s missing" k)
        | _ -> Alcotest.failf "stats field %s is not an object" k)
    in
    get j keys

let stats_int c keys =
  match stats_get c keys with
  | J.Int n -> n
  | _ -> Alcotest.failf "stats field %s not an int" (String.concat "." keys)

let wait_until ~desc ?(timeout = 15.) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" desc
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

(* Bit-identity through the fleet: for every engine, a cold daemon
   response equals a direct Sim.run byte-for-byte. *)
let test_fleet_bit_identity () =
  with_server ~backend:`Fleet ~jobs:2 (fun _ c ->
      let _, prog = workload "li" in
      List.iter
        (fun engine ->
          let expect = result_str (direct engine Spec.default prog) in
          match run_ok c ~id:"bit" ~engine (wref "li") with
          | Proto.Result { result; _ } ->
            check Alcotest.string "fleet daemon = direct" expect
              (result_str result)
          | _ -> assert false)
        [ `Fast; `Slow; `Baseline ])

(* The tentpole's point: a repeat request hits the shard's live warm
   cache — no acquire-time reload, no persist round-trip — and the
   aggregated stats present the sharded registries as one. *)
let test_fleet_warm_repeat () =
  with_server ~backend:`Fleet ~jobs:2 (fun _ c ->
      let first = run_ok c ~id:"a" ~engine:`Fast (wref "li") in
      let second = run_ok c ~id:"b" ~engine:`Fast (wref "li") in
      (match (first, second) with
       | ( Proto.Result { result = r1; warm = w1; _ },
           Proto.Result { result = r2; warm = w2; _ } ) ->
         Alcotest.(check bool) "first is cold" false w1;
         Alcotest.(check bool) "second is warm" true w2;
         check Alcotest.string "warm result identical" (arch_str r1)
           (arch_str r2);
         (match r2.Sim.memo with
          | Some m ->
            Alcotest.(check bool) "warm run replays" true
              (m.Memo.Stats.replayed_retired > 0)
          | None -> Alcotest.fail "no memo stats")
       | _ -> assert false);
      (* aggregated registry stats count the shard-side hit *)
      Alcotest.(check bool) "fleet-wide registry hit" true
        (stats_int c [ "registry"; "hits" ] >= 1);
      (* per-shard detail is exported; one shard took both requests
         (digest affinity), no respawns happened *)
      match stats_get c [ "fleet" ] with
      | J.List shards ->
        check Alcotest.int "one shard entry per job" 2 (List.length shards);
        let requests =
          List.map
            (fun s ->
              match s with
              | J.Obj fs -> (
                match List.assoc_opt "requests" fs with
                | Some (J.Int n) -> n
                | _ -> 0)
              | _ -> 0)
            shards
        in
        Alcotest.(check bool) "affinity kept both runs on one shard" true
          (List.mem 2 requests)
      | _ -> Alcotest.fail "stats.fleet missing")

(* The serve acceptance test at higher concurrency: 8 clients firing at
   4 shard workers, mixed workloads — every response architectural-
   identical to a direct run. *)
let test_fleet_concurrent_clients () =
  with_server ~backend:`Fleet ~jobs:4 (fun addr c0 ->
      let names =
        [ "li"; "compress"; "li"; "compress"; "li"; "go"; "compress"; "li" ]
      in
      let conns =
        c0
        :: List.map
             (fun _ ->
               match Client.connect ~retries:20 addr with
               | Ok c -> c
               | Error m -> Alcotest.failf "connect: %s" m)
             (List.tl names)
      in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close (List.tl conns))
        (fun () ->
          List.iteri
            (fun i (c, name) ->
              match
                Client.send c
                  (Proto.Run
                     { id = Printf.sprintf "c%d" i; engine = `Fast;
                       spec = Spec.default; program = wref name;
                       fault = None })
              with
              | Ok () -> ()
              | Error m -> Alcotest.failf "send: %s" m)
            (List.combine conns names);
          List.iteri
            (fun i (c, name) ->
              let _, prog = workload name in
              let expect = arch_str (direct `Fast Spec.default prog) in
              let rec await () =
                match Client.recv c with
                | Error m -> Alcotest.failf "recv: %s" m
                | Ok (Proto.Accepted _) -> await ()
                | Ok (Proto.Result { result; _ }) ->
                  check Alcotest.string
                    (Printf.sprintf "client %d (%s) = direct" i name)
                    expect (arch_str result)
                | Ok (Proto.Error { message; _ }) ->
                  Alcotest.failf "client %d: %s" i message
                | Ok _ -> Alcotest.failf "client %d: unexpected frame" i
              in
              await ())
            (List.combine conns names)))

(* A shard worker that crashes (exception) or dies (exit) surfaces as a
   worker_crashed frame, the worker is respawned, and the shard serves
   the next request — cold, since its warm caches died with it. *)
let test_fleet_crash_respawn () =
  with_server ~backend:`Fleet ~jobs:1 ~allow_fault:true (fun _ c ->
      (match
         Client.run c ~id:"boom" ~engine:`Fast ~spec:Spec.default
           ~fault:"crash" (wref "li")
       with
       | Ok (Proto.Error { code = Proto.Worker_crashed; _ }) -> ()
       | Ok _ -> Alcotest.fail "crash did not produce worker_crashed"
       | Error m -> Alcotest.failf "crash request: %s" m);
      (match run_ok c ~id:"after1" ~engine:`Fast (wref "li") with
       | Proto.Result _ -> ()
       | _ -> assert false);
      (* a hard exit kills the worker process mid-request *)
      (match
         Client.run c ~id:"gone" ~engine:`Fast ~spec:Spec.default
           ~fault:"exit" (wref "li")
       with
       | Ok (Proto.Error { code = Proto.Worker_crashed; _ }) -> ()
       | Ok _ -> Alcotest.fail "exit did not produce worker_crashed"
       | Error m -> Alcotest.failf "exit request: %s" m);
      (match run_ok c ~id:"after2" ~engine:`Fast (wref "li") with
       | Proto.Result _ -> ()
       | _ -> assert false);
      (* the exit respawned the lone shard at least once *)
      match stats_get c [ "fleet" ] with
      | J.List [ J.Obj fs ] -> (
        match List.assoc_opt "respawns" fs with
        | Some (J.Int n) -> Alcotest.(check bool) "respawn counted" true (n >= 1)
        | _ -> Alcotest.fail "shard respawns missing")
      | _ -> Alcotest.fail "stats.fleet missing")

(* A hung shard worker is killed at the timeout; the shard respawns and
   keeps serving. *)
let test_fleet_timeout () =
  with_server ~backend:`Fleet ~jobs:1 ~allow_fault:true ~timeout_s:0.3
    (fun _ c ->
      (match
         Client.run c ~id:"hang" ~engine:`Fast ~spec:Spec.default
           ~fault:"hang" (wref "li")
       with
       | Ok (Proto.Error { code = Proto.Timeout; _ }) -> ()
       | Ok _ -> Alcotest.fail "hang did not time out"
       | Error m -> Alcotest.failf "hang request: %s" m);
      match run_ok c ~id:"after" ~engine:`Fast (wref "li") with
      | Proto.Result _ -> ()
      | _ -> assert false)

(* Regression: a client that disconnects mid-run must not leave a worker
   simulating for nobody. The run is cancelled, the slot freed, and the
   next request proceeds — with jobs=1 the test deadlocks without the
   orphan cancellation. *)
let orphan_cancel_regression backend =
  with_server ~backend ~jobs:1 ~allow_fault:true (fun addr c0 ->
      let c1 =
        match Client.connect ~retries:20 addr with
        | Ok c -> c
        | Error m -> Alcotest.failf "connect: %s" m
      in
      (match
         Client.send c1
           (Proto.Run
              { id = "orphan"; engine = `Fast; spec = Spec.default;
                program = wref "li"; fault = Some "hang" })
       with
       | Ok () -> ()
       | Error m -> Alcotest.failf "send: %s" m);
      wait_until ~desc:"hung run dispatched" (fun () ->
          stats_int c0 [ "server"; "running" ] = 1);
      (* the client vanishes; the daemon must reclaim the slot *)
      Client.close c1;
      wait_until ~desc:"orphaned run reaped" (fun () ->
          stats_int c0 [ "server"; "running" ] = 0);
      (* the lone slot is usable again *)
      match run_ok c0 ~id:"next" ~engine:`Fast (wref "li") with
      | Proto.Result _ -> ()
      | _ -> assert false)

let test_orphan_cancel_fork () = orphan_cancel_regression `Fork
let test_orphan_cancel_fleet () = orphan_cancel_regression `Fleet

(* The domain transport (OCaml 5 only): same identity and warmth
   guarantees, no marshalling or fork anywhere. *)
let test_fleet_domain_transport () =
  if not Fastsim_exec.Domain_shim.available then ()
  else
    let tweak cfg (_ : string) =
      { cfg with Server.fleet_transport = `Domain }
    in
    with_server ~backend:`Fleet ~jobs:2 ~tweak (fun _ c ->
        let _, prog = workload "li" in
        let expect = result_str (direct `Fast Spec.default prog) in
        (match run_ok c ~id:"a" ~engine:`Fast (wref "li") with
         | Proto.Result { result; _ } ->
           check Alcotest.string "domain fleet = direct" expect
             (result_str result)
         | _ -> assert false);
        match run_ok c ~id:"b" ~engine:`Fast (wref "li") with
        | Proto.Result { warm; _ } ->
          Alcotest.(check bool) "repeat is warm" true warm
        | _ -> assert false)

(* Two clients over three configured workloads: the third is never
   requested, and a workload without responses is not a divergence. *)
let test_loadtest_unrequested_workload () =
  let cfg =
    { Fastsim_serve.Loadtest.default with
      Fastsim_serve.Loadtest.clients = 2;
      jobs = 2;
      requests_per_client = 1 }
  in
  check Alcotest.int "a workload nobody requested" 3
    (List.length cfg.Fastsim_serve.Loadtest.workloads);
  match Fastsim_serve.Loadtest.run cfg with
  | Error m -> Alcotest.fail m
  | Ok r ->
    check Alcotest.int "no request errors" 0
      (r.Fastsim_serve.Loadtest.lt_cold.Fastsim_serve.Loadtest.ph_errors
       + r.Fastsim_serve.Loadtest.lt_warm.Fastsim_serve.Loadtest.ph_errors);
    check Alcotest.int "no divergence" 0 r.Fastsim_serve.Loadtest.lt_divergent

let suite =
  [ Alcotest.test_case "protocol frames round-trip" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "protocol rejects malformed frames" `Quick
      test_proto_rejects_junk;
    Alcotest.test_case "decoder reassembles ragged chunks" `Quick
      test_decoder_reassembly;
    Alcotest.test_case "decoder rejects oversized frames" `Quick
      test_decoder_oversize;
    Alcotest.test_case "address strings parse" `Quick test_address_parse;
    Alcotest.test_case "registry LRU spill and reload" `Quick
      test_registry_lru;
    Alcotest.test_case "registry eviction telemetry" `Quick
      test_registry_eviction_telemetry;
    Alcotest.test_case "shared chain store across specs" `Quick
      test_registry_shared_chain_store;
    Alcotest.test_case "spilled bytes survive spill/reload cycles" `Quick
      test_registry_spilled_bytes_not_double_counted;
    Alcotest.test_case "daemon matches direct run on every engine" `Quick
      test_daemon_bit_identity;
    Alcotest.test_case "repeat request is served warm" `Quick
      test_daemon_warm_repeat;
    Alcotest.test_case "by-digest re-run" `Quick test_daemon_by_digest;
    Alcotest.test_case "unknown workload is a clean error" `Quick
      test_daemon_unknown_workload;
    Alcotest.test_case "concurrent clients, fork backend" `Quick
      test_daemon_concurrent_clients;
    Alcotest.test_case "worker crash becomes an error frame" `Quick
      test_daemon_worker_crash;
    Alcotest.test_case "hung worker is timed out" `Quick
      test_daemon_timeout;
    Alcotest.test_case "fault injection is gated" `Quick
      test_daemon_fault_gate;
    Alcotest.test_case "telemetry acceptance: trace, histograms, identity"
      `Quick test_daemon_telemetry_acceptance;
    Alcotest.test_case "outq drains partial writes without copying" `Quick
      test_outq_windowed_writes;
    Alcotest.test_case "slow consumer is closed at the output budget" `Quick
      test_daemon_slow_consumer;
    Alcotest.test_case "registry adopt: rename, copy fallback, missing src"
      `Quick test_adopt_fallback;
    Alcotest.test_case "concurrent adoption under a tight budget" `Quick
      test_adopt_concurrent_workers;
    Alcotest.test_case "fleet matches direct run on every engine" `Quick
      test_fleet_bit_identity;
    Alcotest.test_case "fleet repeat request hits the shard warm cache"
      `Quick test_fleet_warm_repeat;
    Alcotest.test_case "fleet serves concurrent clients" `Quick
      test_fleet_concurrent_clients;
    Alcotest.test_case "fleet worker crash and exit respawn the shard"
      `Quick test_fleet_crash_respawn;
    Alcotest.test_case "fleet hung worker is timed out" `Quick
      test_fleet_timeout;
    Alcotest.test_case "disconnect cancels the orphaned run (fork)" `Quick
      test_orphan_cancel_fork;
    Alcotest.test_case "disconnect cancels the orphaned run (fleet)" `Quick
      test_orphan_cancel_fleet;
    Alcotest.test_case "fleet over domains (OCaml 5)" `Quick
      test_fleet_domain_transport;
    Alcotest.test_case "loadtest ignores unrequested workloads" `Quick
      test_loadtest_unrequested_workload ]
