(* Cache hierarchy timing model: hits, misses, LRU, MSHR merging, bus
   contention, write-through/write-back behaviour. *)

let check = Alcotest.check

let cfg = Cachesim.Config.default

let test_l1_hit_after_fill () =
  let c = Cachesim.Hierarchy.create () in
  let miss = Cachesim.Hierarchy.load c ~now:0 ~addr:0x1000 in
  check Alcotest.bool "cold miss is slow" true (miss > cfg.l1_hit_latency);
  (* after the fill completes, the same line hits *)
  let hit = Cachesim.Hierarchy.load c ~now:(miss + 1) ~addr:0x1004 in
  check Alcotest.int "hit latency" cfg.l1_hit_latency hit;
  let s = Cachesim.Hierarchy.stats c in
  check Alcotest.int "1 miss" 1 s.l1_misses;
  check Alcotest.int "1 hit" 1 s.l1_hits

let test_l2_hit_faster_than_memory () =
  let c = Cachesim.Hierarchy.create () in
  let mem_miss = Cachesim.Hierarchy.load c ~now:0 ~addr:0x10000 in
  (* evict from L1 but not from the much larger L2: touch enough lines
     mapping to the same L1 set. L1 16KB 2-way: stride = 8KB *)
  let t = ref (mem_miss + 10) in
  List.iter
    (fun k ->
      let lat =
        Cachesim.Hierarchy.load c ~now:!t ~addr:(0x10000 + (k * 8192))
      in
      t := !t + lat + 5)
    [ 1; 2 ];
  let l2_hit = Cachesim.Hierarchy.load c ~now:!t ~addr:0x10000 in
  check Alcotest.bool "L2 hit beats memory" true (l2_hit < mem_miss);
  check Alcotest.bool "L2 hit slower than L1" true
    (l2_hit > cfg.l1_hit_latency)

let test_mshr_merge () =
  let c = Cachesim.Hierarchy.create () in
  let first = Cachesim.Hierarchy.load c ~now:0 ~addr:0x2000 in
  (* a second load to the same line while the fill is outstanding merges *)
  let second = Cachesim.Hierarchy.load c ~now:1 ~addr:0x2008 in
  check Alcotest.int "merged completion" (first - 1) second;
  let s = Cachesim.Hierarchy.stats c in
  check Alcotest.int "merge counted" 1 s.merged_misses

let test_bus_contention () =
  let c = Cachesim.Hierarchy.create () in
  (* two misses to different lines at the same time: the second's data
     transfer queues behind the first's *)
  let a = Cachesim.Hierarchy.load c ~now:0 ~addr:0x3000 in
  let b = Cachesim.Hierarchy.load c ~now:0 ~addr:0x4000 in
  check Alcotest.bool "second delayed" true (b > a)

let test_lru_eviction () =
  let tiny = Cachesim.Config.tiny in
  (* L1: 256 B, 2-way, 32 B lines -> 4 sets; same set stride = 128 B *)
  let c = Cachesim.Hierarchy.create ~config:tiny () in
  let t = ref 0 in
  let access addr =
    let lat = Cachesim.Hierarchy.load c ~now:!t ~addr in
    t := !t + lat + 2;
    lat
  in
  ignore (access 0x0000 : int);   (* miss: way 0 *)
  ignore (access 0x0080 : int);   (* miss: way 1 *)
  ignore (access 0x0000 : int);   (* hit: refresh LRU of way 0 *)
  ignore (access 0x0100 : int);   (* miss: evicts 0x80, the LRU *)
  let hit = access 0x0000 in
  check Alcotest.int "0x0 still resident" tiny.l1_hit_latency hit;
  let miss = access 0x0080 in
  check Alcotest.bool "0x80 was evicted" true (miss > tiny.l1_hit_latency)

let test_write_through_traffic () =
  let c = Cachesim.Hierarchy.create () in
  (* stores reach the L2 even on L1 hits *)
  let lat = Cachesim.Hierarchy.load c ~now:0 ~addr:0x5000 in
  Cachesim.Hierarchy.store c ~now:(lat + 1) ~addr:0x5000;
  let s = Cachesim.Hierarchy.stats c in
  check Alcotest.int "store counted" 1 s.stores;
  check Alcotest.bool "L2 sees the write" true (s.l2_hits >= 1)

let test_writeback_on_dirty_eviction () =
  let tiny = Cachesim.Config.tiny in
  (* L2: 4 KB, 2-way, 32 B lines -> 64 sets; same-set stride 2 KB *)
  let c = Cachesim.Hierarchy.create ~config:tiny () in
  Cachesim.Hierarchy.store c ~now:0 ~addr:0x0;  (* dirties an L2 line *)
  let t = ref 100 in
  (* force eviction of that L2 set with three more lines *)
  List.iter
    (fun k ->
      let lat = Cachesim.Hierarchy.load c ~now:!t ~addr:(k * 2048) in
      t := !t + lat + 2)
    [ 1; 2; 3 ];
  let s = Cachesim.Hierarchy.stats c in
  check Alcotest.bool "a write-back happened" true (s.writebacks >= 1)

let test_determinism () =
  let run () =
    let c = Cachesim.Hierarchy.create () in
    let t = ref 0 in
    let out = ref [] in
    List.iter
      (fun (addr : int) ->
        let lat = Cachesim.Hierarchy.load c ~now:!t ~addr in
        out := lat :: !out;
        t := !t + 3)
      (List.init 200 (fun i -> (i * 1337 * 64) land 0xfffff));
    !out
  in
  check (Alcotest.list Alcotest.int) "same latencies" (run ()) (run ())

let test_reset_stats () =
  let c = Cachesim.Hierarchy.create () in
  ignore (Cachesim.Hierarchy.load c ~now:0 ~addr:0 : int);
  Cachesim.Hierarchy.reset_stats c;
  let s = Cachesim.Hierarchy.stats c in
  check Alcotest.int "cleared" 0 (s.loads + s.l1_misses)

let monotonic_prop =
  QCheck.Test.make ~name:"latencies are positive and bounded" ~count:200
    QCheck.(pair (int_bound 0xffff) (int_bound 1000))
    (fun (a, now) ->
      let c = Cachesim.Hierarchy.create () in
      let lat = Cachesim.Hierarchy.load c ~now ~addr:(a * 4) in
      lat >= 1 && lat < 10_000)

(* Model-based property: the tag array must behave exactly like a
   reference implementation built on association lists. *)
let setassoc_model_prop =
  QCheck.Test.make ~name:"setassoc matches reference LRU model" ~count:300
    QCheck.(list (pair (int_bound 63) bool))
    (fun ops ->
      (* 4 sets x 2 ways of 32 B lines; addresses = line_index * 32 *)
      let sut = Cachesim.Setassoc.create ~size:256 ~ways:2 ~line:32 in
      (* reference: per set, a most-recent-first list of tags, max 2 *)
      let model = Array.make 4 [] in
      let ok = ref true in
      List.iter
        (fun (line_idx, is_fill) ->
          let addr = line_idx * 32 in
          let set = line_idx land 3 in
          let present = List.mem line_idx model.(set) in
          if is_fill then begin
            if not present then begin
              ignore
                (Cachesim.Setassoc.fill sut addr ~dirty:false
                  : bool);
              model.(set) <-
                line_idx
                :: (if List.length model.(set) >= 2 then
                      [ List.hd model.(set) ]
                    else model.(set))
            end
          end
          else begin
            let hit = Cachesim.Setassoc.touch sut addr in
            if hit <> present then ok := false;
            if present then
              model.(set) <-
                line_idx :: List.filter (fun t -> t <> line_idx) model.(set)
          end)
        ops;
      !ok)

let test_l2_wide_lines () =
  (* with 128 B L2 lines, four different 32 B L1 lines inside one L2 line
     miss L1 but hit L2 after the first fill *)
  let c = Cachesim.Hierarchy.create () in
  let first = Cachesim.Hierarchy.load c ~now:0 ~addr:0x20000 in
  let t = ref (first + 4) in
  List.iter
    (fun off ->
      let lat = Cachesim.Hierarchy.load c ~now:!t ~addr:(0x20000 + off) in
      check Alcotest.bool
        (Printf.sprintf "offset %d is an L2 hit" off)
        true
        (lat > cfg.l1_hit_latency && lat < first);
      t := !t + lat + 4)
    [ 32; 64; 96 ];
  let s = Cachesim.Hierarchy.stats c in
  check Alcotest.int "one memory access" 1 s.l2_misses;
  check Alcotest.int "three L2 hits" 3 s.l2_hits

(* ---------------------------------------------------------------- *)
(* The outstanding-fill table against [Hashtbl] as a model. Keys come
   from a small dense pool (so a 16-slot table sees collisions and
   wrapped probe runs), from line addresses (the hierarchy's real keys,
   low bits all zero) and from the extremes of [int]. After every step
   the table must agree with the model on its length and on every key
   the model holds — a removal that shifts a probe-run member into the
   wrong slot leaves that member unreachable. *)

type tbl_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Iter
  | Reset

let pp_tbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Iter -> "iter"
  | Reset -> "reset"

let tbl_key =
  QCheck.Gen.(
    frequency
      [ (6, int_bound 23);
        (3, map (fun i -> i * 32) (int_bound 300));
        ( 1,
          oneofl
            [ min_int; max_int; -1; min_int + 32; max_int - 31; 1 lsl 40 ] )
      ])

let tbl_ops_gen =
  QCheck.Gen.(
    (* remove-heavy and insert-heavy mixes: the first keeps the table
       small and crowded, the second forces growth *)
    bool >>= fun grow ->
    list_size (int_bound 400)
      (frequency
         [ ( (if grow then 8 else 4),
             map2 (fun k v -> Replace (k, v)) tbl_key small_signed_int );
           ((if grow then 2 else 5), map (fun k -> Remove k) tbl_key);
           (3, map (fun k -> Find k) tbl_key);
           (1, return Iter);
           (if grow then 0 else 1), return Reset ]))

let int_table_model_prop =
  QCheck.Test.make ~name:"fill table matches Hashtbl" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_tbl_op ops))
       tbl_ops_gen)
    (fun ops ->
      let sut = Cachesim.Int_table.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let bindings_of iter tbl =
        let l = ref [] in
        iter (fun k v -> l := (k, v) :: !l) tbl;
        List.sort compare !l
      in
      let agrees () =
        Cachesim.Int_table.length sut = Hashtbl.length model
        && Hashtbl.fold
             (fun k v ok ->
               ok
               && Cachesim.Int_table.mem sut k
               && Cachesim.Int_table.find sut k ~default:(v + 1) = v)
             model true
      in
      List.for_all
        (fun op ->
          (match op with
           | Replace (k, v) ->
             Cachesim.Int_table.replace sut k v;
             Hashtbl.replace model k v;
             true
           | Remove k ->
             Cachesim.Int_table.remove sut k;
             Hashtbl.remove model k;
             true
           | Find k -> (
             let got = Cachesim.Int_table.find sut k ~default:min_int in
             match Hashtbl.find_opt model k with
             | Some v -> got = v && Cachesim.Int_table.mem sut k
             | None -> got = min_int && not (Cachesim.Int_table.mem sut k))
           | Iter ->
             bindings_of Cachesim.Int_table.iter sut
             = bindings_of Hashtbl.iter model
           | Reset ->
             Cachesim.Int_table.reset sut;
             Hashtbl.reset model;
             true)
          && agrees ())
        ops)

(* ---------------------------------------------------------------- *)
(* Differential test against the hierarchy as it stood before the hot
   path was made allocation-free (kept verbatim in ref_hierarchy.ml).
   Seeded load/store streams mix a hot working set (hits, and loads to
   a line whose fill is still outstanding: merged misses), cold
   addresses across several L2 sizes (misses, evictions, write-backs),
   equal and increasing [now]s, and a capture/restore into fresh
   hierarchies half way through, rebased onto a later cycle. Every
   returned latency, the stats and the canonical state must agree. *)

module Ref = Ref_hierarchy

let ref_stats_list (s : Ref.Hierarchy.stats) =
  [ s.loads; s.stores; s.l1_hits; s.l1_misses; s.l2_hits; s.l2_misses;
    s.writebacks; s.merged_misses ]

let stats_list (s : Cachesim.Hierarchy.stats) =
  [ s.loads; s.stores; s.l1_hits; s.l1_misses; s.l2_hits; s.l2_misses;
    s.writebacks; s.merged_misses ]

let diff_configs =
  [ ("default", Cachesim.Config.default);
    ("tiny", Cachesim.Config.tiny);
    ( "one MSHR",
      { Cachesim.Config.tiny with l1_mshrs = 1; l2_mshrs = 1 } );
    ( "L1 line above L2 line",
      { Cachesim.Config.tiny with l1_line = 64; l2_line = 32 } ) ]

(* One access: [(is_store, addr, dnow)]. *)
let access_stream (cfg : Cachesim.Config.t) ~seed ~n =
  let st = Random.State.make [| seed |] in
  let hot = Array.init 48 (fun _ -> Random.State.int st (4 * cfg.l1_size)) in
  Array.init n (fun _ ->
      let addr =
        if Random.State.int st 3 > 0 then
          hot.(Random.State.int st (Array.length hot))
          + Random.State.int st 8
        else Random.State.int st (8 * cfg.l2_size)
      in
      let dnow =
        match Random.State.int st 10 with
        | 0 | 1 | 2 -> 0
        | 9 -> 10 + Random.State.int st 200
        | _ -> 1 + Random.State.int st 3
      in
      (Random.State.int st 4 = 0, addr, dnow))

let test_hierarchy_differential () =
  List.iter
    (fun (name, cfg) ->
      for seed = 1 to 12 do
        let stream = access_stream cfg ~seed ~n:3000 in
        let sut = ref (Cachesim.Hierarchy.create ~config:cfg ()) in
        let model = ref (Ref.Hierarchy.create ~config:cfg ()) in
        let now = ref 0 in
        let where i = Printf.sprintf "%s, seed %d, access %d" name seed i in
        let agree i =
          check (Alcotest.list Alcotest.int) (where i ^ ": stats")
            (ref_stats_list (Ref.Hierarchy.stats !model))
            (stats_list (Cachesim.Hierarchy.stats !sut));
          check Alcotest.string (where i ^ ": canonical state")
            (Ref.Hierarchy.state_canonical
               (Ref.Hierarchy.capture !model ~now:!now))
            (Cachesim.Hierarchy.state_canonical
               (Cachesim.Hierarchy.capture !sut ~now:!now))
        in
        Array.iteri
          (fun i (is_store, addr, dnow) ->
            now := !now + dnow;
            if is_store then begin
              Ref.Hierarchy.store !model ~now:!now ~addr;
              Cachesim.Hierarchy.store !sut ~now:!now ~addr
            end
            else
              check Alcotest.int (where i ^ ": latency")
                (Ref.Hierarchy.load !model ~now:!now ~addr)
                (Cachesim.Hierarchy.load !sut ~now:!now ~addr);
            if i mod 250 = 0 then agree i;
            if i = Array.length stream / 2 then begin
              let ms = Ref.Hierarchy.capture !model ~now:!now in
              let ss = Cachesim.Hierarchy.capture !sut ~now:!now in
              now := !now + 1000;
              model := Ref.Hierarchy.create ~config:cfg ();
              sut := Cachesim.Hierarchy.create ~config:cfg ();
              Ref.Hierarchy.restore !model ~now:!now ms;
              Cachesim.Hierarchy.restore !sut ~now:!now ss;
              agree i
            end)
          stream;
        agree (Array.length stream)
      done)
    diff_configs

let test_restore_geometry () =
  let c = Cachesim.Hierarchy.create () in
  let s = Cachesim.Hierarchy.capture c ~now:0 in
  let one_mshr =
    Cachesim.Hierarchy.create
      ~config:{ Cachesim.Config.default with l1_mshrs = 1 }
      ()
  in
  Alcotest.check_raises "MSHR count differs"
    (Invalid_argument "Hierarchy.restore: geometry") (fun () ->
      Cachesim.Hierarchy.restore one_mshr ~now:0 s)

(* With neither trace nor metrics attached, a warm hierarchy allocates
   nothing per access: hits, misses, merged misses and stores alike.
   The stream revisits a fixed set of lines, so after the warm-up pass
   the fill table has seen every key it will hold and never grows. *)
let test_hierarchy_allocation () =
  let cfg = Cachesim.Config.tiny in
  let stream = access_stream cfg ~seed:7 ~n:20_000 in
  let c = Cachesim.Hierarchy.create ~config:cfg () in
  let now = ref 0 in
  let pass () =
    for i = 0 to Array.length stream - 1 do
      let is_store, addr, dnow = stream.(i) in
      now := !now + dnow;
      if is_store then Cachesim.Hierarchy.store c ~now:!now ~addr
      else
        ignore
          (Sys.opaque_identity (Cachesim.Hierarchy.load c ~now:!now ~addr))
    done
  in
  pass ();
  let s0 = Cachesim.Hierarchy.stats c in
  let before = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. before in
  let s = Cachesim.Hierarchy.stats c in
  (* the measured pass really covers every access kind *)
  check Alcotest.bool "hits, misses and merged misses measured" true
    (s.l1_hits > s0.l1_hits
    && s.l2_misses > s0.l2_misses
    && s.merged_misses > s0.merged_misses
    && s.stores > s0.stores);
  (* [Gc.minor_words] itself boxes a float or two *)
  if words > 16. then
    Alcotest.failf "%.0f minor words over %d accesses" words
      (Array.length stream)

let suite =
  [ Alcotest.test_case "L1 hit after fill" `Quick test_l1_hit_after_fill;
    Alcotest.test_case "L2 vs memory" `Quick test_l2_hit_faster_than_memory;
    Alcotest.test_case "MSHR merge" `Quick test_mshr_merge;
    Alcotest.test_case "bus contention" `Quick test_bus_contention;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "write-through traffic" `Quick
      test_write_through_traffic;
    Alcotest.test_case "write-back on dirty eviction" `Quick
      test_writeback_on_dirty_eviction;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "reset stats" `Quick test_reset_stats;
    QCheck_alcotest.to_alcotest monotonic_prop;
    QCheck_alcotest.to_alcotest setassoc_model_prop;
    Alcotest.test_case "L2 wide lines" `Quick test_l2_wide_lines;
    QCheck_alcotest.to_alcotest int_table_model_prop;
    Alcotest.test_case "differential against the reference hierarchy"
      `Quick test_hierarchy_differential;
    Alcotest.test_case "restore rejects another MSHR geometry" `Quick
      test_restore_geometry;
    Alcotest.test_case "untraced accesses allocate nothing" `Quick
      test_hierarchy_allocation ]


