(* The observability layer: ring-buffer semantics, log2 histogram
   bucketing edge cases, registry find-or-create, phase profiling, and
   the exporters. The obs layer must also be strictly passive — that
   cross-engine property lives in Test_equivalence. *)

let check = Alcotest.check

(* ---------------------------------------------------------------- *)
(* Ring buffer                                                       *)

let test_ring_basic () =
  let r = Fastsim_obs.Ring.create ~capacity:4 in
  check Alcotest.int "empty length" 0 (Fastsim_obs.Ring.length r);
  Fastsim_obs.Ring.push r 1;
  Fastsim_obs.Ring.push r 2;
  check Alcotest.int "length" 2 (Fastsim_obs.Ring.length r);
  check Alcotest.(list int) "oldest first" [ 1; 2 ]
    (Fastsim_obs.Ring.to_list r);
  check Alcotest.int "no drops" 0 (Fastsim_obs.Ring.dropped r)

let test_ring_wraparound () =
  let r = Fastsim_obs.Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Fastsim_obs.Ring.push r i
  done;
  check Alcotest.int "length capped" 4 (Fastsim_obs.Ring.length r);
  check Alcotest.int "capacity" 4 (Fastsim_obs.Ring.capacity r);
  check Alcotest.int "total pushed" 10 (Fastsim_obs.Ring.total_pushed r);
  check Alcotest.int "dropped" 6 (Fastsim_obs.Ring.dropped r);
  check
    Alcotest.(list int)
    "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (Fastsim_obs.Ring.to_list r);
  Fastsim_obs.Ring.clear r;
  check Alcotest.int "cleared" 0 (Fastsim_obs.Ring.length r);
  Fastsim_obs.Ring.push r 42;
  check Alcotest.(list int) "usable after clear" [ 42 ]
    (Fastsim_obs.Ring.to_list r)

let test_ring_capacity_one () =
  let r = Fastsim_obs.Ring.create ~capacity:1 in
  for i = 1 to 5 do
    Fastsim_obs.Ring.push r i
  done;
  check Alcotest.(list int) "keeps only newest" [ 5 ]
    (Fastsim_obs.Ring.to_list r);
  check Alcotest.int "dropped all but one" 4 (Fastsim_obs.Ring.dropped r);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Fastsim_obs.Ring.create ~capacity:0 : int Fastsim_obs.Ring.t))

(* ---------------------------------------------------------------- *)
(* log2 histogram bucketing                                          *)

let test_bucket_of () =
  let b = Fastsim_obs.Metrics.bucket_of in
  check Alcotest.int "0 -> bucket 0" 0 (b 0);
  check Alcotest.int "negative -> bucket 0" 0 (b (-17));
  check Alcotest.int "min_int -> bucket 0" 0 (b min_int);
  check Alcotest.int "1" 1 (b 1);
  check Alcotest.int "2" 2 (b 2);
  check Alcotest.int "3" 2 (b 3);
  check Alcotest.int "4" 3 (b 4);
  check Alcotest.int "7" 3 (b 7);
  check Alcotest.int "8" 4 (b 8);
  check Alcotest.int "1023" 10 (b 1023);
  check Alcotest.int "1024" 11 (b 1024);
  check Alcotest.int "max_int -> last bucket" 62 (b max_int);
  (* every bucket's lower bound maps back into that bucket *)
  for i = 1 to 62 do
    let lo = Fastsim_obs.Metrics.bucket_lower_bound i in
    check Alcotest.int
      (Printf.sprintf "lower_bound %d round-trips" i)
      i (b lo)
  done;
  check Alcotest.int "lower_bound 0" 0
    (Fastsim_obs.Metrics.bucket_lower_bound 0)

let test_histogram_observe () =
  let m = Fastsim_obs.Metrics.create () in
  let h = Fastsim_obs.Metrics.histogram m "h" in
  check Alcotest.int "empty count" 0 (Fastsim_obs.Metrics.h_count h);
  check Alcotest.(list (pair int int)) "empty buckets" []
    (Fastsim_obs.Metrics.h_buckets h);
  List.iter (Fastsim_obs.Metrics.observe h) [ 0; 1; 1; 3; 100; max_int ];
  check Alcotest.int "count" 6 (Fastsim_obs.Metrics.h_count h);
  check Alcotest.int "min" 0 (Fastsim_obs.Metrics.h_min h);
  check Alcotest.int "max" max_int (Fastsim_obs.Metrics.h_max h);
  (* sum wraps on max_int + 105; only check it's consistent *)
  check Alcotest.int "sum" (0 + 1 + 1 + 3 + 100 + max_int)
    (Fastsim_obs.Metrics.h_sum h);
  let buckets = Fastsim_obs.Metrics.h_buckets h in
  check Alcotest.(list (pair int int)) "buckets: lower bound * count"
    [ (0, 1); (1, 2); (2, 1); (64, 1); (1 lsl 61, 1) ]
    buckets;
  (* ascending and only non-empty *)
  let lowers = List.map fst buckets in
  check Alcotest.(list int) "ascending" (List.sort compare lowers) lowers

(* ---------------------------------------------------------------- *)
(* Metrics registry                                                  *)

let test_registry_find_or_create () =
  let m = Fastsim_obs.Metrics.create () in
  let a = Fastsim_obs.Metrics.counter m "hits" in
  let b = Fastsim_obs.Metrics.counter m "hits" in
  Fastsim_obs.Metrics.incr a;
  Fastsim_obs.Metrics.add b 2;
  check Alcotest.int "same underlying counter" 3
    (Fastsim_obs.Metrics.counter_value a);
  let g = Fastsim_obs.Metrics.gauge m "depth" in
  Fastsim_obs.Metrics.set g 7.5;
  check (Alcotest.float 0.) "gauge" 7.5 (Fastsim_obs.Metrics.gauge_value g)

let test_registry_kind_mismatch () =
  let m = Fastsim_obs.Metrics.create () in
  ignore (Fastsim_obs.Metrics.counter m "x" : Fastsim_obs.Metrics.counter);
  match Fastsim_obs.Metrics.histogram m "x" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Profiling                                                         *)

let test_profile_phases () =
  let p = Fastsim_obs.Profile.create () in
  Fastsim_obs.Profile.enter p Fastsim_obs.Profile.Detailed;
  Fastsim_obs.Profile.with_phase p Fastsim_obs.Profile.Cachesim (fun () ->
      ignore (Sys.opaque_identity (Array.make 1000 0) : int array));
  Fastsim_obs.Profile.with_phase p Fastsim_obs.Profile.Record (fun () ->
      ignore (Sys.opaque_identity (Array.make 1000 0) : int array));
  Fastsim_obs.Profile.leave p;
  Fastsim_obs.Profile.leave p (* unbalanced: must be a no-op *);
  Fastsim_obs.Profile.stop p;
  Fastsim_obs.Profile.stop p (* idempotent *);
  let s ph = Fastsim_obs.Profile.seconds p ph in
  check Alcotest.bool "phases non-negative" true
    (List.for_all (fun ph -> s ph >= 0.) Fastsim_obs.Profile.all_phases);
  let sum =
    List.fold_left (fun acc ph -> acc +. s ph) 0.
      Fastsim_obs.Profile.all_phases
  in
  (* exclusive accounting: per-phase seconds sum to the total *)
  check Alcotest.bool "sum = total" true
    (abs_float (sum -. Fastsim_obs.Profile.total p) < 1e-9);
  check Alcotest.string "phase name" "detailed"
    (Fastsim_obs.Profile.phase_name Fastsim_obs.Profile.Detailed)

(* A FastSim run under a small flush-on-full budget keeps re-recording:
   the memo write path shows as its own Record phase, nested inside
   Detailed, and the exclusive phases still partition the run. *)
let test_profile_engine_record () =
  let w = Workloads.Suite.find "go" in
  let prog = w.Workloads.Workload.build w.Workloads.Workload.test_scale in
  let p = Fastsim_obs.Profile.create () in
  let spec =
    Fastsim.Sim.Spec.default
    |> Fastsim.Sim.Spec.with_policy (Memo.Pcache.Flush_on_full 4_000)
    |> Fastsim.Sim.Spec.with_obs (Fastsim_obs.Ctx.create ~profile:p ())
  in
  let r = Fastsim.Sim.run ~engine:`Fast spec prog in
  (match r.Fastsim.Sim.pcache with
   | Some c ->
     check Alcotest.bool "the budget forces flushes" true
       (c.Memo.Pcache.flushes > 0)
   | None -> Alcotest.fail "pcache counters expected");
  let s ph = Fastsim_obs.Profile.seconds p ph in
  check Alcotest.bool "record phase charged" true
    (s Fastsim_obs.Profile.Record > 0.);
  check Alcotest.bool "detailed phase charged" true
    (s Fastsim_obs.Profile.Detailed > 0.);
  let sum =
    List.fold_left (fun acc ph -> acc +. s ph) 0.
      Fastsim_obs.Profile.all_phases
  in
  check Alcotest.bool "sum = total" true
    (abs_float (sum -. Fastsim_obs.Profile.total p) < 1e-9)

(* ---------------------------------------------------------------- *)
(* JSON + exporters                                                  *)

let test_json_printer () =
  let open Fastsim_obs.Json in
  check Alcotest.string "escaping" {|{"a\"b":"x\ny","n":null}|}
    (to_string (Obj [ ("a\"b", Str "x\ny"); ("n", Null) ]));
  check Alcotest.string "non-finite floats are null" {|[null,null,1.5]|}
    (to_string (List [ Float nan; Float infinity; Float 1.5 ]));
  check Alcotest.string "ints and bools" {|[1,-2,true,false]|}
    (to_string (List [ Int 1; Int (-2); Bool true; Bool false ]))

(* \u escapes must decode to valid UTF-8: surrogate pairs combine into
   one code point, lone surrogates become U+FFFD (never raw CESU-8). *)
let test_json_unicode_escapes () =
  let open Fastsim_obs.Json in
  let str s = match of_string s with Str v -> v | _ -> Alcotest.fail s in
  check Alcotest.string "surrogate pair combines" "\xf0\x9f\x98\x80"
    (str "\"\\ud83d\\ude00\"");
  check Alcotest.string "high surrogate then non-surrogate \\u escape"
    "\xef\xbf\xbdA" (str "\"\\ud800\\u0041\"");
  check Alcotest.string "lone high surrogate" "\xef\xbf\xbdx"
    (str "\"\\ud800x\"");
  check Alcotest.string "lone low surrogate" "\xef\xbf\xbd"
    (str "\"\\udc00\"");
  check Alcotest.string "2- and 3-byte code points" "\xc3\xa9\xe2\x82\xac"
    (str "\"\\u00e9\\u20ac\"")

let test_export_chrome () =
  let tr = Fastsim_obs.Trace.create ~capacity:8 () in
  Fastsim_obs.Trace.emit tr
    (Fastsim_obs.Event.span_begin ~ts:10 ~cat:"engine" "detailed");
  Fastsim_obs.Trace.emit tr
    (Fastsim_obs.Event.instant ~ts:11 ~cat:"core" "rollback"
       ~args:[ ("index", Fastsim_obs.Json.Int 3) ]);
  Fastsim_obs.Trace.emit tr
    (Fastsim_obs.Event.counter ~ts:12 ~cat:"engine" "retired" 7);
  Fastsim_obs.Trace.emit tr
    (Fastsim_obs.Event.span_end ~ts:20 ~cat:"engine" "detailed");
  let s = Fastsim_obs.Json.to_string (Fastsim_obs.Export.chrome_json tr) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "has traceEvents" true (contains {|"traceEvents"|});
  check Alcotest.bool "has B phase" true (contains {|"ph":"B"|});
  check Alcotest.bool "has E phase" true (contains {|"ph":"E"|});
  check Alcotest.bool "has counter" true (contains {|"ph":"C"|});
  check Alcotest.bool "has thread metadata" true
    (contains {|"thread_name"|});
  check Alcotest.bool "no drop marker when ring held" false
    (contains {|fastsimDroppedEvents|})

let test_export_files () =
  let tr = Fastsim_obs.Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Fastsim_obs.Trace.emit tr
      (Fastsim_obs.Event.instant ~ts:i ~cat:"memo" "group_replayed")
  done;
  check Alcotest.int "ring dropped" 3 (Fastsim_obs.Trace.dropped tr);
  let tmp = Filename.temp_file "fastsim_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Fastsim_obs.Export.write_jsonl_file tmp tr;
      let ic = open_in tmp in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      (* dropped-marker line + the 2 surviving events *)
      check Alcotest.int "jsonl lines" 3 (List.length !lines);
      check Alcotest.bool "first line is the drop marker" true
        (match List.rev !lines with
         | first :: _ ->
           first = {|{"meta":"dropped","dropped":3}|}
         | [] -> false))

(* ---------------------------------------------------------------- *)
(* Structured logging                                                *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_log_roundtrip () =
  let module Log = Fastsim_obs.Log in
  let module J = Fastsim_obs.Json in
  let tmp = Filename.temp_file "fastsim_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let log = Log.open_file ~level:Log.Debug tmp in
      Log.info log ~req:"r1" ~event:"serve.accepted"
        [ ("engine", J.Str "fast"); ("queue_depth", J.Int 3) ];
      Log.debug log ~event:"pool.spawn" [ ("pid", J.Int 42) ];
      Log.close log;
      Log.close log (* idempotent *);
      match read_lines tmp with
      | [ l1; l2 ] ->
        (* fixed key order: ts, level, event, [req], caller fields *)
        (match J.of_string l1 with
         | J.Obj [ ("ts", J.Float _); ("level", J.Str "info");
                   ("event", J.Str "serve.accepted"); ("req", J.Str "r1");
                   ("engine", J.Str "fast"); ("queue_depth", J.Int 3) ] ->
           ()
         | _ -> Alcotest.failf "unexpected record shape: %s" l1);
        (match J.of_string l2 with
         | J.Obj (("ts", J.Float _) :: ("level", J.Str "debug")
                  :: ("event", J.Str "pool.spawn") :: rest) ->
           check Alcotest.bool "no req key when absent" false
             (List.mem_assoc "req" rest)
         | _ -> Alcotest.failf "unexpected record shape: %s" l2)
      | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines))

let test_log_level_filter () =
  let module Log = Fastsim_obs.Log in
  let tmp = Filename.temp_file "fastsim_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let log = Log.open_file ~level:Log.Warn tmp in
      check Alcotest.bool "debug disabled" false (Log.enabled log Log.Debug);
      check Alcotest.bool "warn enabled" true (Log.enabled log Log.Warn);
      Log.debug log ~event:"a" [];
      Log.info log ~event:"b" [];
      Log.warn log ~event:"c" [];
      Log.error log ~event:"d" [];
      Log.close log;
      check Alcotest.int "only warn and error written" 2
        (List.length (read_lines tmp));
      (* the null logger accepts everything and writes nothing *)
      Log.error Log.null ~event:"x" [];
      check Alcotest.bool "null logger disabled" false
        (Log.enabled Log.null Log.Error);
      match Log.level_of_string "warn" with
      | Ok Log.Warn -> (
        match Log.level_of_string "loud" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "bad level accepted")
      | _ -> Alcotest.fail "level_of_string warn")

(* ---------------------------------------------------------------- *)
(* Wall-clock spans and Chrome stitching                             *)

let test_span_collector () =
  let module Span = Fastsim_obs.Span in
  let c = Span.create () in
  Span.record c ~name:"first" ~start_us:100 ~end_us:150 ();
  Span.record c ~name:"clamped" ~start_us:200 ~end_us:50 ();
  let r = Span.with_span c ~name:"timed" ~cat:"pool" (fun () -> 7) in
  check Alcotest.int "with_span returns f's value" 7 r;
  (try
     Span.with_span c ~name:"raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "all four recorded" 4 (Span.length c);
  match Span.spans c with
  | [ s1; s2; s3; s4 ] ->
    check Alcotest.string "recording order" "first" s1.Span.name;
    check Alcotest.int "duration" 50 s1.Span.dur_us;
    check Alcotest.int "negative duration clamps" 0 s2.Span.dur_us;
    check Alcotest.string "cat" "pool" s3.Span.cat;
    check Alcotest.string "span recorded on raise" "raises" s4.Span.name;
    check Alcotest.int "pid is ours" (Unix.getpid ()) s1.Span.pid
  | _ -> Alcotest.fail "span list shape"

let test_span_json_roundtrip () =
  let module Span = Fastsim_obs.Span in
  let module J = Fastsim_obs.Json in
  let s =
    { Span.name = "engine.run"; cat = "worker"; pid = 1234;
      start_us = 17_000_000; dur_us = 250;
      args = [ ("engine", J.Str "fast"); ("req", J.Str "r1-9") ] }
  in
  let rt1 = Span.of_json (J.of_string (J.to_string (Span.to_json s))) in
  (match rt1 with
   | Ok s' ->
     check Alcotest.string "span round-trip"
       (J.to_string (Span.to_json s)) (J.to_string (Span.to_json s'))
   | Error m -> Alcotest.failf "span decode: %s" m);
  let ss = [ s; { s with Span.name = "pcache.save"; args = [] } ] in
  (match Span.list_of_json (Span.list_to_json ss) with
   | Ok ss' ->
     check Alcotest.string "span list round-trip"
       (J.to_string (Span.list_to_json ss))
       (J.to_string (Span.list_to_json ss'))
   | Error m -> Alcotest.failf "span list decode: %s" m);
  match Span.of_json (J.Obj [ ("name", J.Str "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial span accepted"

(* Two processes' spans (same wall clock, different pids) stitch into
   one Chrome trace: a process_name metadata record per pid, X events
   normalised to the earliest start. *)
let test_span_chrome_stitch () =
  let module Span = Fastsim_obs.Span in
  let module J = Fastsim_obs.Json in
  let mk pid name start_us dur_us =
    { Span.name; cat = "serve"; pid; start_us; dur_us;
      args = [ ("req", J.Str "r7") ] }
  in
  let spans =
    [ mk 100 "request.run" 1_000_050 900;
      mk 200 "engine.run" 1_000_100 700;
      mk 100 "queue.wait" 1_000_000 50 ]
  in
  let j = Span.chrome_json ~process_names:[ (100, "fastsim-serve") ] spans in
  let events =
    match J.member "traceEvents" j with
    | J.List es -> es
    | _ -> Alcotest.fail "no traceEvents"
  in
  let metas, xs =
    List.partition
      (fun e -> J.to_str (J.member "ph" e) = "M")
      events
  in
  check Alcotest.int "one process_name per pid" 2 (List.length metas);
  let meta_name pid =
    List.filter_map
      (fun e ->
        if J.to_int (J.member "pid" e) = pid then
          Some (J.to_str (J.member "name" (J.member "args" e)))
        else None)
      metas
  in
  check Alcotest.(list string) "named pid" [ "fastsim-serve" ] (meta_name 100);
  check Alcotest.(list string) "default pid name" [ "pid-200" ] (meta_name 200);
  check Alcotest.int "three X events" 3 (List.length xs);
  let ts_of name =
    match
      List.find_opt (fun e -> J.to_str (J.member "name" e) = name) xs
    with
    | Some e -> J.to_int (J.member "ts" e)
    | None -> Alcotest.failf "missing event %s" name
  in
  check Alcotest.int "earliest span normalised to 0" 0 (ts_of "queue.wait");
  check Alcotest.int "worker span offset kept" 100 (ts_of "engine.run");
  List.iter
    (fun e ->
      check Alcotest.string "req arg survives" "r7"
        (J.to_str (J.member "req" (J.member "args" e))))
    xs

let test_span_ctx () =
  let module Span = Fastsim_obs.Span in
  let module J = Fastsim_obs.Json in
  let ctx = Span.Ctx.create ~id:"req-9" () in
  check Alcotest.string "explicit id kept" "req-9" (Span.Ctx.id ctx);
  Span.record (Span.Ctx.collector ctx) ~name:"a" ~start_us:1 ~end_us:2 ();
  Span.record (Span.Ctx.collector ctx) ~name:"b" ~start_us:2 ~end_us:3 ();
  let tagged = Span.Ctx.finish ctx in
  check Alcotest.int "both spans" 2 (List.length tagged);
  List.iter
    (fun s ->
      match List.assoc_opt "req" s.Span.args with
      | Some (J.Str "req-9") -> ()
      | _ -> Alcotest.failf "span %s not tagged with req id" s.Span.name)
    tagged;
  let a = Span.Ctx.create () and b = Span.Ctx.create () in
  check Alcotest.bool "minted ids are unique" true
    (Span.Ctx.id a <> Span.Ctx.id b)

(* ---------------------------------------------------------------- *)
(* Deterministic export ordering                                     *)

(* Two registries holding the same state, registered in opposite
   orders, export byte-identical JSON and Prometheus text. *)
let test_sorted_export_order () =
  let module M = Fastsim_obs.Metrics in
  let fill order m =
    List.iter
      (fun name -> M.add (M.counter m name) (String.length name))
      order;
    M.set (M.gauge m "z.gauge") 1.5;
    M.set (M.gauge m "a.gauge") 2.5;
    List.iter (M.observe (M.histogram m "h.lat")) [ 1; 5; 9 ]
  in
  let m1 = M.create () and m2 = M.create () in
  fill [ "b.two"; "a.one"; "c.three" ] m1;
  fill [ "c.three"; "b.two"; "a.one" ] m2;
  check
    Alcotest.(list string)
    "names_in_order sorted"
    [ "a.gauge"; "a.one"; "b.two"; "c.three"; "h.lat"; "z.gauge" ]
    (M.names_in_order m1);
  check Alcotest.string "registration order invisible in JSON"
    (Fastsim_obs.Json.to_string (M.to_json m1))
    (Fastsim_obs.Json.to_string (M.to_json m2));
  check Alcotest.string "registration order invisible in Prometheus"
    (Fastsim_obs.Export.prometheus m1)
    (Fastsim_obs.Export.prometheus m2)

(* ---------------------------------------------------------------- *)
(* Snapshots: diff, merge, quantiles, JSON codec                     *)

let test_snapshot_diff_merge () =
  let module M = Fastsim_obs.Metrics in
  let m = M.create () in
  let c = M.counter m "c" and g = M.gauge m "g" and h = M.histogram m "h" in
  M.add c 5;
  M.set g 3.0;
  List.iter (M.observe h) [ 1; 4 ];
  let before = M.snapshot m in
  M.add c 2;
  M.set g 9.0;
  List.iter (M.observe h) [ 4; 100 ];
  let after = M.snapshot m in
  let d = M.snapshot_diff ~after ~before in
  check Alcotest.(list (pair string int)) "counter delta" [ ("c", 2) ]
    d.M.s_counters;
  check Alcotest.(list (pair string (float 0.))) "gauge keeps after"
    [ ("g", 9.0) ] d.M.s_gauges;
  (match d.M.s_histograms with
   | [ ("h", hs) ] ->
     check Alcotest.int "interval count" 2 hs.M.s_count;
     check Alcotest.int "interval sum" 104 hs.M.s_sum;
     check Alcotest.(list (pair int int)) "interval buckets"
       [ (4, 1); (64, 1) ] hs.M.s_buckets
   | _ -> Alcotest.fail "histogram diff shape");
  (* a name only present in [after] diffs against empty *)
  let late = M.counter m "late" in
  M.incr late;
  let after2 = M.snapshot m in
  let d2 = M.snapshot_diff ~after:after2 ~before in
  check Alcotest.(option int) "new counter vs empty" (Some 1)
    (List.assoc_opt "late" d2.M.s_counters);
  (* merge adds counters and histogram buckets *)
  let merged = M.snapshot_merge before d in
  check Alcotest.(option int) "merged counter" (Some 7)
    (List.assoc_opt "c" merged.M.s_counters);
  match List.assoc_opt "h" merged.M.s_histograms with
  | Some hs ->
    check Alcotest.int "merged count" 4 hs.M.s_count;
    check Alcotest.(list (pair int int)) "merged buckets"
      [ (1, 1); (4, 2); (64, 1) ] hs.M.s_buckets
  | None -> Alcotest.fail "merged histogram missing"

let test_snapshot_json_roundtrip () =
  let module M = Fastsim_obs.Metrics in
  let m = M.create () in
  M.add (M.counter m "serve.requests") 11;
  M.set (M.gauge m "queue.depth") 2.5;
  List.iter (M.observe (M.histogram m "lat")) [ 0; 1; 1; 3; 900 ];
  ignore (M.histogram m "empty" : M.histogram);
  let s = M.snapshot m in
  let j = Fastsim_obs.Json.to_string (M.snapshot_to_json s) in
  match M.snapshot_of_json (Fastsim_obs.Json.of_string j) with
  | Error e -> Alcotest.failf "snapshot decode: %s" e
  | Ok s' ->
    check Alcotest.string "snapshot JSON round-trip" j
      (Fastsim_obs.Json.to_string (M.snapshot_to_json s'));
    check Alcotest.bool "structural equality" true (s = s')

let test_hsnap_quantile () =
  let module M = Fastsim_obs.Metrics in
  let m = M.create () in
  let h = M.histogram m "q" in
  check (Alcotest.float 0.) "empty quantile" 0.
    (M.hsnap_quantile
       (List.assoc "q" (M.snapshot m).M.s_histograms)
       0.5);
  (* 90 fast samples at ~10µs, 10 slow ones at ~5000µs: p50 must sit in
     the fast bucket, p99 in the slow one, both clamped into [min,max] *)
  for _ = 1 to 90 do
    M.observe h 10
  done;
  for _ = 1 to 10 do
    M.observe h 5000
  done;
  let hs = List.assoc "q" (M.snapshot m).M.s_histograms in
  let p50 = M.hsnap_quantile hs 0.5 and p99 = M.hsnap_quantile hs 0.99 in
  check Alcotest.bool "p50 in fast bucket (factor 2)" true
    (p50 >= 10. && p50 <= 16.);
  check Alcotest.bool "p99 in slow bucket (factor 2)" true
    (p99 >= 4096. && p99 <= 5000.);
  check Alcotest.bool "quantiles clamped to observed range" true
    (p50 >= float_of_int hs.M.s_min && p99 <= float_of_int hs.M.s_max)

(* QCheck: for any split of a sample stream into (early, late), the
   snapshot taken after [early] and the one after [early @ late] are
   related by diff/merge — diff recovers [late]'s counts exactly, and
   merging the diff back onto [before] reconstructs [after]. *)
let qcheck_snapshot_diff_merge =
  let gen = QCheck.(pair (list (int_bound 10_000)) (list (int_bound 10_000))) in
  QCheck.Test.make ~name:"snapshot diff/merge reconstructs" ~count:100 gen
    (fun (early, late) ->
      let module M = Fastsim_obs.Metrics in
      let m = M.create () in
      let c = M.counter m "n" and h = M.histogram m "h" in
      List.iter
        (fun v ->
          M.add c v;
          M.observe h v)
        early;
      let before = M.snapshot m in
      List.iter
        (fun v ->
          M.add c v;
          M.observe h v)
        late;
      let after = M.snapshot m in
      let d = M.snapshot_diff ~after ~before in
      let dh = List.assoc "h" d.M.s_histograms in
      let sum = List.fold_left ( + ) 0 in
      let ok_diff =
        List.assoc "n" d.M.s_counters = sum late
        && dh.M.s_count = List.length late
        && dh.M.s_sum = sum late
      in
      (* reconstruct: merge(before, diff) = after for counters and
         histogram count/sum/buckets (min/max carry after's values
         only when the interval saw samples, so compare those fields) *)
      let r = M.snapshot_merge before d in
      let rh = List.assoc "h" r.M.s_histograms
      and ah = List.assoc "h" after.M.s_histograms in
      let ok_merge =
        r.M.s_counters = after.M.s_counters
        && rh.M.s_count = ah.M.s_count
        && rh.M.s_sum = ah.M.s_sum
        && rh.M.s_buckets = ah.M.s_buckets
      in
      ok_diff && ok_merge)

let qcheck_snapshot_json =
  QCheck.Test.make ~name:"snapshot JSON round-trips" ~count:100
    QCheck.(list small_nat)
    (fun samples ->
      let module M = Fastsim_obs.Metrics in
      let m = M.create () in
      M.add (M.counter m "c") (List.length samples);
      List.iter (M.observe (M.histogram m "h")) samples;
      let s = M.snapshot m in
      match M.snapshot_of_json (M.snapshot_to_json s) with
      | Ok s' -> s = s'
      | Error _ -> false)

(* ---------------------------------------------------------------- *)
(* Prometheus text exposition                                        *)

let test_prometheus_text () =
  let module M = Fastsim_obs.Metrics in
  let m = M.create () in
  M.add (M.counter m "serve.requests") 3;
  M.set (M.gauge m "registry.hot_bytes") 4096.;
  let h = M.histogram m "serve.queue_wait_us" in
  List.iter (M.observe h) [ 0; 1; 1; 3 ];
  check Alcotest.string "prometheus text"
    (String.concat "\n"
       [ "# TYPE fastsim_serve_requests counter";
         "fastsim_serve_requests 3";
         "# TYPE fastsim_registry_hot_bytes gauge";
         "fastsim_registry_hot_bytes 4096";
         "# TYPE fastsim_serve_queue_wait_us histogram";
         "fastsim_serve_queue_wait_us_bucket{le=\"0\"} 1";
         "fastsim_serve_queue_wait_us_bucket{le=\"1\"} 3";
         "fastsim_serve_queue_wait_us_bucket{le=\"3\"} 4";
         "fastsim_serve_queue_wait_us_bucket{le=\"+Inf\"} 4";
         "fastsim_serve_queue_wait_us_sum 5";
         "fastsim_serve_queue_wait_us_count 4";
         "" ])
    (Fastsim_obs.Export.prometheus m)

let suite =
  [ Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring capacity 1" `Quick test_ring_capacity_one;
    Alcotest.test_case "bucket_of edges" `Quick test_bucket_of;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "registry find-or-create" `Quick
      test_registry_find_or_create;
    Alcotest.test_case "registry kind mismatch" `Quick
      test_registry_kind_mismatch;
    Alcotest.test_case "profile phases" `Quick test_profile_phases;
    Alcotest.test_case "profile: engine record phase" `Quick
      test_profile_engine_record;
    Alcotest.test_case "json printer" `Quick test_json_printer;
    Alcotest.test_case "json \\u escape decoding" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "chrome export" `Quick test_export_chrome;
    Alcotest.test_case "file export + drop marker" `Quick test_export_files;
    Alcotest.test_case "log JSONL round-trip" `Quick test_log_roundtrip;
    Alcotest.test_case "log level filtering" `Quick test_log_level_filter;
    Alcotest.test_case "span collector" `Quick test_span_collector;
    Alcotest.test_case "span JSON round-trip" `Quick
      test_span_json_roundtrip;
    Alcotest.test_case "chrome stitch across pids" `Quick
      test_span_chrome_stitch;
    Alcotest.test_case "request context tags spans" `Quick test_span_ctx;
    Alcotest.test_case "exports are order-deterministic" `Quick
      test_sorted_export_order;
    Alcotest.test_case "snapshot diff and merge" `Quick
      test_snapshot_diff_merge;
    Alcotest.test_case "snapshot JSON round-trip" `Quick
      test_snapshot_json_roundtrip;
    Alcotest.test_case "histogram quantiles" `Quick test_hsnap_quantile;
    QCheck_alcotest.to_alcotest qcheck_snapshot_diff_merge;
    QCheck_alcotest.to_alcotest qcheck_snapshot_json;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_text ]
