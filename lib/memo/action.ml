type ctl = Uarch.Oracle.ctl_outcome

type item =
  | I_load of int
  | I_store
  | I_ctl of ctl
  | I_rollback of int

type node =
  | N_load of load_node
  | N_store of node
  | N_ctl of ctl_node
  | N_rollback of int * node
  | N_halt
  | N_goto of goto_node
  | N_stride of stride_node

and load_node = { mutable l_edges : (int * node) list }
and ctl_node = { mutable c_edges : (ctl * node) list }

and goto_node = { mutable target : config }

(* A compacted linear run of groups (docs/INTERNALS.md "Hot path"): the
   owner's own interaction items followed by the absorbed successor
   groups, each a straight line with a single recorded outcome per action.
   Only ever appears as a group's [g_first]; [s_term] is the run's final
   N_goto or N_halt. The absorbed configurations stay interned (their
   [cfg_group] is cleared) so divergence can re-expand the run exactly. *)
and stride_node = {
  s_ops : item array;       (* the owner group's items *)
  s_segs : stride_seg array;
  s_term : node;            (* N_goto or N_halt *)
  s_rule : rule;            (* canonical compressed form (Memo.Store) *)
}

and stride_seg = {
  sg_cfg : config;
  sg_silent : int;
  sg_retired : int;
  sg_classes : int array;
  sg_ops : item array;
}

(* Grammar-compressed chain rules (docs/INTERNALS.md "Memoization 2.0").
   A rule is an immutable, hash-consed spine over {e portable}
   segments ([pseg]: configuration keys, not configuration nodes, so a
   rule is meaningful in any p-action cache of the same program): a cons
   list whose tail sharing dedupes identical chain suffixes across
   strides, specs and shards, plus [R_rep] nodes capturing tandem
   repetition (loop bodies) with the body itself a rule — nesting gives
   the grammar. Rules are owned by a {!Store}: [ru_refs] counts parent
   rules plus external holders (strides, persist readers); construction
   and release live in store.ml. *)
and rule = {
  ru_id : int;        (* creation order within the owning store *)
  ru_hash : int;      (* hash of the store's shallow structural key *)
  ru_node : rule_node;
  ru_nsegs : int;     (* segments after full expansion *)
  ru_bytes : int;     (* modeled bytes of this node alone (not children) *)
  mutable ru_refs : int;
}

and rule_node =
  | R_nil
  | R_seg of { rs_seg : pseg; rs_rest : rule }
  | R_rep of { rp_body : rule; rp_count : int; rp_rest : rule }

and pseg = {
  pg_key : Uarch.Snapshot.key;
  pg_silent : int;
  pg_retired : int;
  pg_classes : int array;
  pg_ops : item array;
}

and config = {
  cfg_key : Uarch.Snapshot.key;
  cfg_hash : int;  (* FNV-1a of cfg_key (Uarch.Snapshot.hash_key) *)
  cfg_bytes : int;
  mutable cfg_action_bytes : int;
  mutable cfg_group : group option;
  mutable cfg_touched : int;
  mutable cfg_hits : int;
  mutable cfg_dropped : bool;
  mutable cfg_old_gen : bool;
  mutable cfg_mark : int;  (* Pcache.compact's visited stamp *)
}

and group = {
  g_silent : int;
  g_retired : int;
  g_classes : int array;  (* per-FU-class retired counts for this group *)
  g_first : node;
}

type terminal = T_goto of config | T_halt

(* Dedicated equality for control outcomes: the replay engine compares the
   live outcome against recorded edges on every interaction cycle, and the
   polymorphic [=] it used to rely on is both slower (generic traversal)
   and fragile (it would silently change meaning if [ctl] ever grew a
   non-structural component such as a cached closure or abstract handle). *)
let ctl_equal (a : ctl) (b : ctl) =
  match (a, b) with
  | ( Uarch.Oracle.C_cond { taken = t1; mispredicted = m1 },
      Uarch.Oracle.C_cond { taken = t2; mispredicted = m2 } ) ->
    t1 = t2 && m1 = m2
  | ( Uarch.Oracle.C_indirect { target = g1; hit = h1 },
      Uarch.Oracle.C_indirect { target = g2; hit = h2 } ) ->
    g1 = g2 && h1 = h2
  | Uarch.Oracle.C_stalled, Uarch.Oracle.C_stalled -> true
  | ( ( Uarch.Oracle.C_cond _ | Uarch.Oracle.C_indirect _
      | Uarch.Oracle.C_stalled ),
      _ ) ->
    false

let item_equal (a : item) (b : item) =
  match (a, b) with
  | I_load l1, I_load l2 -> Int.equal l1 l2
  | I_store, I_store -> true
  | I_ctl c1, I_ctl c2 -> ctl_equal c1 c2
  | I_rollback i1, I_rollback i2 -> Int.equal i1 i2
  | (I_load _ | I_store | I_ctl _ | I_rollback _), _ -> false

(* Portable-segment equality, used by the store's tandem-repeat detector.
   [pg_classes] holds small non-negative counts, so structural [=] on the
   int array is exact; items go through {!item_equal} (never polymorphic
   equality over [ctl]). *)
let pseg_equal (a : pseg) (b : pseg) =
  String.equal a.pg_key b.pg_key
  && Int.equal a.pg_silent b.pg_silent
  && Int.equal a.pg_retired b.pg_retired
  && a.pg_classes = b.pg_classes
  && Array.length a.pg_ops = Array.length b.pg_ops
  &&
  let n = Array.length a.pg_ops in
  let rec go i =
    i >= n || (item_equal a.pg_ops.(i) b.pg_ops.(i) && go (i + 1))
  in
  go 0

(* Edge lookups on the hot replay path: latency edges compare with
   [Int.equal], control edges with {!ctl_equal} — never polymorphic
   equality. *)
let load_edge lat edges =
  let rec go = function
    | [] -> None
    | (l, n) :: rest -> if Int.equal l lat then Some n else go rest
  in
  go edges

let ctl_edge out edges =
  let rec go = function
    | [] -> None
    | (c, n) :: rest -> if ctl_equal c out then Some n else go rest
  in
  go edges

let node_bytes = function
  | N_load { l_edges } -> 16 + (8 * max 0 (List.length l_edges - 1))
  | N_ctl { c_edges } -> 16 + (8 * max 0 (List.length c_edges - 1))
  | N_store _ | N_rollback _ | N_halt | N_goto _ -> 8
  | N_stride { s_ops; s_segs; _ } ->
    (* 8-byte stride header + 2 bytes per packed op + an 8-byte header and
       2 bytes per op for each absorbed segment; [s_term] is accounted as
       its own node by every traversal. The compressed rate (2 bytes vs
       8–16 per plain node) is the modeled-bytes saving stride compaction
       claims; see docs/INTERNALS.md. *)
    8 + (2 * Array.length s_ops)
    + Array.fold_left
        (fun acc seg -> acc + 8 + (2 * Array.length seg.sg_ops))
        0 s_segs

let pp_ctl ppf (c : ctl) =
  match c with
  | Uarch.Oracle.C_cond { taken; mispredicted } ->
    Format.fprintf ppf "cond(%s%s)"
      (if taken then "T" else "NT")
      (if mispredicted then ",mispred" else "")
  | Uarch.Oracle.C_indirect { target; hit } ->
    Format.fprintf ppf "ind(0x%x%s)" target (if hit then "" else ",miss")
  | Uarch.Oracle.C_stalled -> Format.fprintf ppf "stalled"

let pp_item ppf = function
  | I_load lat -> Format.fprintf ppf "load->%d" lat
  | I_store -> Format.fprintf ppf "store"
  | I_ctl c -> Format.fprintf ppf "ctl:%a" pp_ctl c
  | I_rollback i -> Format.fprintf ppf "rollback[%d]" i

let pp_node_shallow ppf = function
  | N_load { l_edges } ->
    Format.fprintf ppf "Load{%d outcomes}" (List.length l_edges)
  | N_store _ -> Format.fprintf ppf "Store"
  | N_ctl { c_edges } ->
    Format.fprintf ppf "Ctl{%d outcomes}" (List.length c_edges)
  | N_rollback (i, _) -> Format.fprintf ppf "Rollback[%d]" i
  | N_halt -> Format.fprintf ppf "Halt"
  | N_goto { target = c } ->
    Format.fprintf ppf "Goto{%d bytes%s}" c.cfg_bytes
      (if c.cfg_group = None then ",empty" else "")
  | N_stride { s_ops; s_segs; _ } ->
    Format.fprintf ppf "Stride{%d ops, %d segs}" (Array.length s_ops)
      (Array.length s_segs)
