(* The chain store's write path: the structurally keyed [Memo.Store]
   must make exactly the decisions the digest-keyed store it replaced
   made (kept as [Ref_store]), and FSPC0004 streams — whose rule tables
   expose rule creation order — must stay byte-identical to a frozen
   fixture. *)

module Store = Memo.Store
module Action = Memo.Action

let check = Alcotest.check

(* ---------------------------------------------------------------- *)
(* Differential test against the reference store. *)

(* A base segment carrying every field the structural key covers. *)
let base_seg i =
  { Action.pg_key = Printf.sprintf "cfg-%02d-%s" i (String.make 24 'k');
    pg_silent = i land 3;
    pg_retired = 1 + (i land 1);
    pg_classes = [| i land 1; 2; 0 |];
    pg_ops =
      [| Action.I_load (3 + (i land 1));
         Action.I_ctl
           (Uarch.Oracle.C_cond { taken = i land 2 = 0; mispredicted = false });
         Action.I_store;
         Action.I_ctl
           (Uarch.Oracle.C_indirect { target = 0x10000 + (4 * i); hit = true });
         Action.I_rollback 0 |] }

let with_op (p : Action.pseg) i op =
  let ops = Array.copy p.Action.pg_ops in
  ops.(i) <- op;
  { p with Action.pg_ops = ops }

(* Near-equal variants of a base segment, each differing from it in
   exactly one field; variant 0 is a fresh physical copy of the base
   (structurally equal, so it must dedup against it). *)
let variants (p : Action.pseg) =
  let key = Bytes.of_string p.Action.pg_key in
  Bytes.set key 7 (Char.chr (Char.code (Bytes.get key 7) lxor 1));
  let target, hit =
    match p.Action.pg_ops.(3) with
    | Action.I_ctl (Uarch.Oracle.C_indirect { target; hit }) -> (target, hit)
    | _ -> invalid_arg "variants: op 3 is not an indirect outcome"
  in
  let classes = Array.copy p.Action.pg_classes in
  classes.(1) <- classes.(1) + 1;
  [| { p with Action.pg_key = String.init (String.length p.Action.pg_key)
                                (String.get p.Action.pg_key) };
     { p with Action.pg_key = Bytes.to_string key };
     { p with Action.pg_silent = p.Action.pg_silent + 1 };
     { p with Action.pg_retired = p.Action.pg_retired + 1 };
     { p with Action.pg_classes = classes };
     with_op p 2 (Action.I_load 0);
     with_op p 1
       (Action.I_ctl
          (Uarch.Oracle.C_cond { taken = true; mispredicted = true }));
     with_op p 3
       (Action.I_ctl (Uarch.Oracle.C_indirect { target; hit = not hit }));
     with_op p 3
       (Action.I_ctl (Uarch.Oracle.C_indirect { target = target + 4; hit }));
     with_op p 0 (Action.I_load 99) |]

(* Segment pool: 4 bases, each followed by its 10 variants. *)
let pool =
  Array.concat
    (List.init 4 (fun i ->
         let b = base_seg i in
         Array.append [| b |] (variants b)))

type op =
  | Intern of int list  (* pool indices, flattened from a loop shape *)
  | Release of int      (* index into the live handles *)
  | Orphan of int       (* an un-retained cons, as an abandoned load leaves *)
  | Prune

let gen_run =
  QCheck.Gen.(
    let seg = int_bound (Array.length pool - 1) in
    let block = list_size (int_range 1 3) seg in
    let piece =
      frequency
        [ (3, map (fun l -> l) block);
          ( 2,
            map2
              (fun b k -> List.concat (List.init k (fun _ -> b)))
              block (int_range 2 5) ) ]
    in
    map List.concat (list_size (int_range 1 6) piece))

let gen_op =
  QCheck.Gen.(
    frequency
      [ (6, map (fun l -> Intern l) gen_run);
        (3, map (fun i -> Release i) nat);
        (1, map (fun i -> Orphan i) (int_bound (Array.length pool - 1)));
        (1, return Prune) ])

let op_to_string = function
  | Intern l -> "intern[" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Release i -> Printf.sprintf "release %d" i
  | Orphan i -> Printf.sprintf "orphan %d" i
  | Prune -> "prune"

let arb_case =
  QCheck.make
    ~print:(fun (depth, ops) ->
      Printf.sprintf "depth %d: %s" depth
        (String.concat ", " (List.map op_to_string ops)))
    QCheck.Gen.(
      pair (oneofl [ 0; 1; 8; 64 ]) (list_size (int_range 1 40) gen_op))

let ref_counters (r : Ref_store.t) =
  let c = Ref_store.counters r in
  ( c.Ref_store.live_rules,
    c.Ref_store.live_rep_rules,
    c.Ref_store.modeled_bytes,
    c.Ref_store.peak_modeled_bytes,
    c.Ref_store.interned_runs,
    c.Ref_store.dedup_hits,
    c.Ref_store.released_rules )

let new_counters (s : Store.t) =
  let c = Store.counters s in
  ( c.Store.live_rules,
    c.Store.live_rep_rules,
    c.Store.modeled_bytes,
    c.Store.peak_modeled_bytes,
    c.Store.interned_runs,
    c.Store.dedup_hits,
    c.Store.released_rules )

(* Same segments, physically: a dedup decision that differs between the
   stores surfaces as a different first-interned pseg object. *)
let same_expansion a b =
  Array.length a = Array.length b && Array.for_all2 ( == ) a b

let differential_prop =
  QCheck.Test.make
    ~name:"structural store matches the digest reference step by step"
    ~count:300 arb_case (fun (depth, ops) ->
      let s = Store.create ~max_rep_depth:depth () in
      let r = Ref_store.create ~max_rep_depth:depth () in
      let handles = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iteri
        (fun step op ->
          (match op with
           | Intern l ->
             let segs = Array.of_list (List.map (fun i -> pool.(i)) l) in
             let a = Store.intern_segs s segs in
             let b = Ref_store.intern_segs r segs in
             if a.Action.ru_id <> b.Ref_store.ru_id then
               fail "step %d: rule id %d vs reference %d" step a.Action.ru_id
                 b.Ref_store.ru_id;
             handles := (a, b) :: !handles
           | Release i -> (
             match !handles with
             | [] -> ()
             | hs ->
               let k = i mod List.length hs in
               let a, b = List.nth hs k in
               Store.release s a;
               Ref_store.release r b;
               handles := List.filteri (fun j _ -> j <> k) hs)
           | Orphan i ->
             let a = Store.cons s pool.(i) (Store.nil s) in
             let b = Ref_store.cons r pool.(i) (Ref_store.nil r) in
             if a.Action.ru_id <> b.Ref_store.ru_id then
               fail "step %d: orphan id %d vs reference %d" step
                 a.Action.ru_id b.Ref_store.ru_id
           | Prune ->
             Store.prune_dead s;
             Ref_store.prune_dead r);
          if new_counters s <> ref_counters r then
            fail "step %d (%s): counters differ" step (op_to_string op);
          if Store.live_rules s <> Ref_store.live_rules r then
            fail "step %d: live rules differ" step;
          List.iter
            (fun (a, b) ->
              if not (same_expansion (Store.expand a) (Ref_store.expand b))
              then fail "step %d: expansions differ" step)
            !handles)
        ops;
      true)

(* ---------------------------------------------------------------- *)
(* Frozen FSPC0004 fixture. Two kernels at test scale run cold under
   FastSim and their caches are saved; the bytes must not change, since
   the rule table lists rules in creation order. Real runs never build
   an [R_rep] (a stride absorbs distinct live configurations, so no two
   of its segments share a key), so the m88ksim cache also gets one
   synthetic stride repeating a block of its own recorded segments.
   Regenerate only after a deliberate format change, by running the
   test binary from the test/ source directory with UPDATE_FIXTURES=1. *)

let fixture_dir = "fixtures/persist"
let fixture_kernels = [ "m88ksim"; "perl" ]
let fixture_path name = Filename.concat fixture_dir (name ^ "_v4.fspc")

let stride_of (c : Action.config) =
  match c.Action.cfg_group with
  | Some { Action.g_first = Action.N_stride s; _ } -> Some s
  | _ -> None

(* The longest stride (ties to the smallest owner key) seeds a run of
   three copies of its first two segments followed by all of them. *)
let add_repeat_stride pc =
  let best = ref None in
  Memo.Pcache.iter_configs
    (fun c ->
      match (stride_of c, !best) with
      | Some s, None -> best := Some (c, s)
      | Some s, Some ((c', s') : Action.config * Action.stride_node) ->
        let n = s.Action.s_rule.Action.ru_nsegs
        and n' = s'.Action.s_rule.Action.ru_nsegs in
        if n > n' || (n = n' && c.Action.cfg_key < c'.Action.cfg_key) then
          best := Some (c, s)
      | None, _ -> ())
    pc;
  match !best with
  | None -> failwith "fixture: no stride to repeat"
  | Some (_, s) ->
    let segs = Memo.Store.expand s.Action.s_rule in
    let body = Array.sub segs 0 (min 2 (Array.length segs)) in
    let psegs = Array.concat [ body; body; body; segs ] in
    let rule = Memo.Store.intern_segs (Memo.Pcache.store pc) psegs in
    let sg (p : Action.pseg) =
      { Action.sg_cfg = Memo.Pcache.intern pc p.Action.pg_key;
        sg_silent = p.Action.pg_silent;
        sg_retired = p.Action.pg_retired;
        sg_classes = p.Action.pg_classes;
        sg_ops = p.Action.pg_ops }
    in
    let owner = Memo.Pcache.intern pc "fixture-rep-owner" in
    Memo.Pcache.install_group pc owner ~silent:0 ~retired:0
      ~classes:(Array.make Isa.Instr.fu_count 0)
      ~first:
        (Action.N_stride
           { Action.s_ops = [||];
             s_segs = Array.map sg psegs;
             s_term = Action.N_halt;
             s_rule = rule })

let fixture_cache name =
  let w = Workloads.Suite.find name in
  let prog = w.Workloads.Workload.build w.Workloads.Workload.test_scale in
  let pc = Memo.Pcache.create () in
  ignore
    (Fastsim.Sim.run ~engine:`Fast
       Fastsim.Sim.Spec.(with_pcache pc default)
       prog
      : Fastsim.Sim.result);
  if name = "m88ksim" then add_repeat_stride pc;
  (prog, pc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let saved_bytes prog pc =
  let path = Filename.temp_file "fastsim_fixture" ".fspc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memo.Persist.Codec.save_file pc ~program:prog path;
      read_file path)

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let check_bytes what ~expected actual =
  if not (String.equal expected actual) then
    Alcotest.failf "%s: %d bytes vs %d frozen, first difference at %d" what
      (String.length actual) (String.length expected)
      (first_difference expected actual)

let test_fixture name () =
  let prog, pc = fixture_cache name in
  let bytes = saved_bytes prog pc in
  if Sys.getenv_opt "UPDATE_FIXTURES" <> None then begin
    let oc = open_out_bin (fixture_path name) in
    output_string oc bytes;
    close_out oc
  end;
  let frozen = read_file (fixture_path name) in
  check Alcotest.string "frozen magic" "FSPC0004" (String.sub frozen 0 8);
  check_bytes "fresh save" ~expected:frozen bytes;
  if name = "m88ksim" then
    check Alcotest.bool "fixture holds a rep rule" true
      ((Store.counters (Memo.Pcache.store pc)).Store.live_rep_rules > 0);
  (* Loading rebuilds every rule through cons/rep in table order. A
     loaded cache lists its configurations in load order, so its first
     save may reorder the stream; from then on save/load is a fixpoint. *)
  let store = Store.create () in
  let reload s = Memo.Persist.Codec.load_string ~store ~program:prog s in
  let pc1 = reload frozen in
  let once = saved_bytes prog pc1 in
  check Alcotest.int "reloaded size" (String.length frozen)
    (String.length once);
  let pc2 = reload once in
  check_bytes "save/load fixpoint" ~expected:once (saved_bytes prog pc2);
  Memo.Pcache.release_rules pc1;
  Memo.Pcache.release_rules pc2;
  check Alcotest.int "released loaded rules" 0 (Store.live_rules store)

let suite =
  QCheck_alcotest.to_alcotest differential_prop
  :: List.map
       (fun name ->
         Alcotest.test_case ("FSPC0004 fixture: " ^ name) `Quick
           (test_fixture name))
       fixture_kernels
