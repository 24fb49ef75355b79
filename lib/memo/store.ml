(* The immutable, refcounted chain store (docs/INTERNALS.md
   "Memoization 2.0").

   Rules are hash-consed on a shallow structural key: a segment node by
   its payload plus the identity of its [rest] child, a repeat node by
   (body identity, count, rest identity). Children are hash-consed
   first, so their identity already is structural equality and no node
   needs a digest over its subtree. [cons] and [rep] look the would-be
   node up and return the existing rule when one matches, so identical
   chain suffixes — within one stride, across strides, and (through a
   shared store) across the p-action caches of different specs — are
   stored once. [ru_hash] caches the key's hash; a hit is confirmed by
   {!Action.pseg_equal} and physical equality of the children, so a
   collision costs a comparison, never a wrong rule. [intern_segs] is
   the producer entry point: it rewrites a flat segment run as a rule
   spine, detecting tandem repetition (loop bodies, and nested
   repetition inside them) as [R_rep] nodes.

   Reference counting: [ru_refs] counts parent rules plus external
   holders (a stride's [s_rule], a persist reader mid-load). Releasing
   the last reference removes the rule from the table, returns its
   modeled bytes, and cascades into its children — iteratively, because
   a cons spine is as deep as the run is long. The table holds live
   rules only: nothing in it outlives the rules it indexes. *)

let mix h v =
  let h = (h lxor v) * 0x100000001b3 in
  h lxor (h lsr 31)

let item_hash h (it : Action.item) =
  match it with
  | Action.I_load lat -> mix (mix h 1) lat
  | Action.I_store -> mix h 2
  | Action.I_ctl (Uarch.Oracle.C_cond { taken; mispredicted }) ->
    mix h (3 + Bool.to_int taken + (2 * Bool.to_int mispredicted))
  | Action.I_ctl (Uarch.Oracle.C_indirect { target; hit }) ->
    mix (mix h (7 + Bool.to_int hit)) target
  | Action.I_ctl Uarch.Oracle.C_stalled -> mix h 9
  | Action.I_rollback i -> mix (mix h 10) i

let pseg_hash (p : Action.pseg) =
  let h = mix (Hashtbl.hash p.Action.pg_key) p.Action.pg_silent in
  let h = Array.fold_left mix (mix h p.Action.pg_retired) p.Action.pg_classes in
  Array.fold_left item_hash h p.Action.pg_ops

module Tbl = Hashtbl.Make (struct
  type t = Action.rule

  let hash (r : t) = r.Action.ru_hash

  (* [a == b] first: [release] removes a rule by itself. *)
  let equal (a : t) (b : t) =
    a == b
    || Int.equal a.Action.ru_hash b.Action.ru_hash
    &&
    match (a.Action.ru_node, b.Action.ru_node) with
    | ( Action.R_seg { rs_seg = s1; rs_rest = r1 },
        Action.R_seg { rs_seg = s2; rs_rest = r2 } ) ->
      r1 == r2 && Action.pseg_equal s1 s2
    | ( Action.R_rep { rp_body = b1; rp_count = c1; rp_rest = r1 },
        Action.R_rep { rp_body = b2; rp_count = c2; rp_rest = r2 } ) ->
      b1 == b2 && Int.equal c1 c2 && r1 == r2
    | (Action.R_nil | Action.R_seg _ | Action.R_rep _), _ -> false
end)

type t = {
  tbl : Action.rule Tbl.t;  (* live rule -> itself, by structural key *)
  budget : int option;
  max_rep_depth : int;
  mutable next_id : int;
  mutable bytes : int;
  mutable peak : int;
  mutable holders : int;       (* attached caches / registry entries *)
  mutable interned_runs : int; (* intern_segs calls *)
  mutable dedup_hits : int;    (* cons/rep that found an existing rule *)
  mutable rep_rules : int;     (* live R_rep rules *)
  mutable released : int;      (* rules freed at refcount zero *)
  nil : Action.rule;
}

type counters = {
  live_rules : int;
  live_rep_rules : int;
  modeled_bytes : int;
  peak_modeled_bytes : int;
  holders : int;
  interned_runs : int;
  dedup_hits : int;
  released_rules : int;
}

(* Modeled cost of one rule node, mirroring the stride accounting
   (8-byte segment header + 2 bytes per packed op); a rep node is two
   headers (count + body/rest references). Children are their own
   nodes. *)
let seg_bytes (p : Action.pseg) = 8 + (2 * Array.length p.Action.pg_ops)
let rep_node_bytes = 16

let default_max_rep_depth = 8

let create ?budget_bytes ?(max_rep_depth = default_max_rep_depth) () =
  let nil =
    { Action.ru_id = 0;
      ru_hash = 0;
      ru_node = Action.R_nil;
      ru_nsegs = 0;
      ru_bytes = 0;
      (* pinned: retain/release are no-ops on nil *)
      ru_refs = 1 }
  in
  { tbl = Tbl.create 256;
    budget = budget_bytes;
    max_rep_depth = max 0 max_rep_depth;
    next_id = 1;
    bytes = 0;
    peak = 0;
    holders = 0;
    interned_runs = 0;
    dedup_hits = 0;
    rep_rules = 0;
    released = 0;
    nil }

let nil (t : t) = t.nil

let bytes (t : t) = t.bytes
let live_rules (t : t) = Tbl.length t.tbl

let over_budget (t : t) =
  match t.budget with None -> false | Some b -> t.bytes > b

let budget_bytes (t : t) = t.budget

let addref (t : t) = t.holders <- t.holders + 1
let decref (t : t) = t.holders <- max 0 (t.holders - 1)
let holders (t : t) = t.holders

let counters (t : t) =
  { live_rules = Tbl.length t.tbl;
    live_rep_rules = t.rep_rules;
    modeled_bytes = t.bytes;
    peak_modeled_bytes = t.peak;
    holders = t.holders;
    interned_runs = t.interned_runs;
    dedup_hits = t.dedup_hits;
    released_rules = t.released }

(* ---- construction ---------------------------------------------------- *)

let retain (r : Action.rule) =
  match r.Action.ru_node with
  | Action.R_nil -> ()
  | _ -> r.Action.ru_refs <- r.Action.ru_refs + 1

let release (t : t) (r : Action.rule) =
  let stack = ref [ r ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | r :: rest -> (
      stack := rest;
      match r.Action.ru_node with
      | Action.R_nil -> ()
      | node ->
        if r.Action.ru_refs <= 0 then
          invalid_arg "Memo.Store.release: refcount already zero";
        r.Action.ru_refs <- r.Action.ru_refs - 1;
        if r.Action.ru_refs = 0 then begin
          Tbl.remove t.tbl r;
          t.bytes <- t.bytes - r.Action.ru_bytes;
          t.released <- t.released + 1;
          match node with
          | Action.R_seg { rs_rest; _ } -> stack := rs_rest :: !stack
          | Action.R_rep { rp_body; rp_rest; _ } ->
            t.rep_rules <- t.rep_rules - 1;
            stack := rp_body :: rp_rest :: !stack
          | Action.R_nil -> ()
        end)
  done

(* Probe-then-register: the candidate is built with the id it would get,
   so a miss registers it as is and a hit merely drops it. A found rule
   is returned as-is: its children were retained when it was first
   built, so the caller only owns whatever reference it takes on the
   returned rule itself. *)
let intern_node (t : t) ~hash ~node ~nsegs ~node_bytes =
  let r =
    { Action.ru_id = t.next_id;
      ru_hash = hash;
      ru_node = node;
      ru_nsegs = nsegs;
      ru_bytes = node_bytes;
      ru_refs = 0 }
  in
  match Tbl.find_opt t.tbl r with
  | Some found ->
    t.dedup_hits <- t.dedup_hits + 1;
    found
  | None ->
    (match node with
     | Action.R_seg { rs_rest; _ } -> retain rs_rest
     | Action.R_rep { rp_body; rp_rest; _ } ->
       retain rp_body;
       retain rp_rest;
       t.rep_rules <- t.rep_rules + 1
     | Action.R_nil -> ());
    t.next_id <- t.next_id + 1;
    Tbl.add t.tbl r r;
    t.bytes <- t.bytes + node_bytes;
    if t.bytes > t.peak then t.peak <- t.bytes;
    r

let cons_hashed (t : t) ~seg_hash (seg : Action.pseg) (rest : Action.rule) =
  intern_node t
    ~hash:(mix seg_hash rest.Action.ru_id)
    ~node:(Action.R_seg { rs_seg = seg; rs_rest = rest })
    ~nsegs:(1 + rest.Action.ru_nsegs)
    ~node_bytes:(seg_bytes seg)

let cons (t : t) (seg : Action.pseg) (rest : Action.rule) =
  cons_hashed t ~seg_hash:(pseg_hash seg) seg rest

let rep (t : t) ~(body : Action.rule) ~count (rest : Action.rule) =
  if count < 2 then invalid_arg "Memo.Store.rep: count must be >= 2";
  if body.Action.ru_nsegs = 0 then
    invalid_arg "Memo.Store.rep: empty body";
  intern_node t
    ~hash:(mix (mix (mix 0x5eed body.Action.ru_id) count) rest.Action.ru_id)
    ~node:(Action.R_rep { rp_body = body; rp_count = count; rp_rest = rest })
    ~nsegs:((body.Action.ru_nsegs * count) + rest.Action.ru_nsegs)
    ~node_bytes:rep_node_bytes

(* ---- grammar construction (tandem-repeat detection) ------------------ *)

(* Smallest period p (and its maximal count k >= 2) such that
   [segs.(lo .. lo + p*k - 1)] is k back-to-back copies of the p-segment
   block at [lo], and rewriting as a rep node saves modeled bytes:
   the rep header must cost less than the k-1 repeat copies it elides.
   [hs] holds each segment's {!pseg_hash}: segments compare as ints, and
   only equal hashes pay for a structural comparison. *)
let find_repeat (segs : Action.pseg array) (hs : int array) lo hi =
  let n = hi - lo in
  let best = ref None in
  let p = ref 1 in
  while !best = None && !p <= n / 2 do
    let period = !p in
    let k = ref 1 in
    let ok = ref true in
    while !ok && (!k + 1) * period <= n do
      let base = lo + (!k * period) in
      let matches = ref true in
      let i = ref 0 in
      while !matches && !i < period do
        let a = lo + !i and b = base + !i in
        if
          not
            (Int.equal hs.(a) hs.(b) && Action.pseg_equal segs.(a) segs.(b))
        then matches := false;
        incr i
      done;
      if !matches then incr k else ok := false
    done;
    if !k >= 2 then begin
      let body_flat = ref 0 in
      for i = lo to lo + period - 1 do
        body_flat := !body_flat + seg_bytes segs.(i)
      done;
      (* worthwhile: elided copies outweigh the rep header *)
      if (!k - 1) * !body_flat > rep_node_bytes then
        best := Some (period, !k)
    end;
    incr p
  done;
  !best

(* Builds the rule for [segs.(lo .. hi-1)], scanning left to right and
   folding any worthwhile tandem repeat into a rep whose body is built
   recursively (bounded by [max_rep_depth]), so nested loops become
   nested reps. Recursion depth is one frame per segment at worst; runs
   are bounded (strides cap at 64 segments, persist validates counts),
   so no worklist is needed here. *)
let rec build t ~depth (segs : Action.pseg array) hs lo hi =
  if lo >= hi then t.nil
  else
    match
      if depth < t.max_rep_depth then find_repeat segs hs lo hi else None
    with
    | Some (period, count) ->
      let body = build t ~depth:(depth + 1) segs hs lo (lo + period) in
      let rest = build t ~depth segs hs (lo + (period * count)) hi in
      rep t ~body ~count rest
    | None ->
      cons_hashed t ~seg_hash:hs.(lo) segs.(lo)
        (build t ~depth segs hs (lo + 1) hi)

let intern_segs (t : t) (segs : Action.pseg array) =
  t.interned_runs <- t.interned_runs + 1;
  let hs = Array.map pseg_hash segs in
  let r = build t ~depth:0 segs hs 0 (Array.length segs) in
  retain r;
  r

(* ---- expansion ------------------------------------------------------- *)

let expand (root : Action.rule) =
  let out = ref [||] and n = ref 0 in
  let rec copies k body acc =
    if k = 0 then acc else copies (k - 1) body (body :: acc)
  in
  let rec go = function
    | [] -> ()
    | (r : Action.rule) :: stack -> (
      match r.Action.ru_node with
      | Action.R_nil -> go stack
      | Action.R_seg { rs_seg; rs_rest } ->
        if !n = 0 then out := Array.make root.Action.ru_nsegs rs_seg;
        !out.(!n) <- rs_seg;
        incr n;
        go (rs_rest :: stack)
      | Action.R_rep { rp_body; rp_count; rp_rest } ->
        go (copies rp_count rp_body (rp_rest :: stack)))
  in
  go [ root ];
  !out

let prune_dead (t : t) =
  (* Orphans can only come from an abandoned load (a crafted stream whose
     rule table holds entries no stride references): collect refs-0 roots
     and release them through the normal cascade. *)
  let dead = ref [] in
  Tbl.iter
    (fun r _ -> if r.Action.ru_refs = 0 then dead := r :: !dead)
    t.tbl;
  List.iter
    (fun (r : Action.rule) ->
      (* re-check: an earlier cascade may have freed it already *)
      if r.Action.ru_refs = 0 && Tbl.mem t.tbl r then begin
        (* give it the one reference [release] consumes *)
        retain r;
        release t r
      end)
    !dead
