(* Reference chain store: the digest-keyed [Memo.Store] as it stood
   before rules were hash-consed on shallow structural keys, kept
   verbatim apart from carrying its own rule type (the library's
   [Action.rule] no longer has a digest field). test_store.ml drives it
   and the library store through the same operation sequences and
   requires identical rule ids, dedup decisions, counters and
   expansions — the library store's creation order is what FSPC0004
   rule tables expose, so it must not drift. *)

type rule = {
  ru_id : int;
  ru_digest : string;
  ru_node : rule_node;
  ru_nsegs : int;
  ru_bytes : int;
  mutable ru_refs : int;
}

and rule_node =
  | R_nil
  | R_seg of { rs_seg : Memo.Action.pseg; rs_rest : rule }
  | R_rep of { rp_body : rule; rp_count : int; rp_rest : rule }

module Action = Memo.Action

type t = {
  tbl : (string, rule) Hashtbl.t;  (* digest -> live rule *)
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
  nil : rule;
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
    { ru_id = 0;
      ru_digest = Digest.string "fastsim.rule.nil";
      ru_node = R_nil;
      ru_nsegs = 0;
      ru_bytes = 0;
      (* pinned: retain/release are no-ops on nil *)
      ru_refs = 1 }
  in
  { tbl = Hashtbl.create 256;
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
let live_rules (t : t) = Hashtbl.length t.tbl

let over_budget (t : t) =
  match t.budget with None -> false | Some b -> t.bytes > b

let budget_bytes (t : t) = t.budget

let addref (t : t) = t.holders <- t.holders + 1
let decref (t : t) = t.holders <- max 0 (t.holders - 1)
let holders (t : t) = t.holders

let counters (t : t) =
  { live_rules = Hashtbl.length t.tbl;
    live_rep_rules = t.rep_rules;
    modeled_bytes = t.bytes;
    peak_modeled_bytes = t.peak;
    holders = t.holders;
    interned_runs = t.interned_runs;
    dedup_hits = t.dedup_hits;
    released_rules = t.released }

(* ---- content addressing ---------------------------------------------- *)

let digest_item buf (it : Action.item) =
  match it with
  | Action.I_load lat ->
    Buffer.add_char buf 'l';
    Buffer.add_string buf (string_of_int lat)
  | Action.I_store -> Buffer.add_char buf 's'
  | Action.I_ctl (Uarch.Oracle.C_cond { taken; mispredicted }) ->
    Buffer.add_char buf 'c';
    Buffer.add_char buf (if taken then 'T' else 'N');
    Buffer.add_char buf (if mispredicted then 'M' else '-')
  | Action.I_ctl (Uarch.Oracle.C_indirect { target; hit }) ->
    Buffer.add_char buf 'i';
    Buffer.add_string buf (string_of_int target);
    Buffer.add_char buf (if hit then 'H' else '-')
  | Action.I_ctl Uarch.Oracle.C_stalled -> Buffer.add_char buf 'x'
  | Action.I_rollback i ->
    Buffer.add_char buf 'r';
    Buffer.add_string buf (string_of_int i)

let digest_pseg (p : Action.pseg) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int (String.length p.Action.pg_key));
  Buffer.add_char buf ':';
  Buffer.add_string buf p.Action.pg_key;
  Buffer.add_string buf (string_of_int p.Action.pg_silent);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int p.Action.pg_retired);
  Buffer.add_char buf ',';
  Array.iter
    (fun c ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf ';')
    p.Action.pg_classes;
  Array.iter (digest_item buf) p.Action.pg_ops;
  Digest.string (Buffer.contents buf)

let digest_seg ~seg_digest ~(rest : rule) =
  Digest.string ("S" ^ seg_digest ^ rest.ru_digest)

let digest_rep ~(body : rule) ~count ~(rest : rule) =
  Digest.string
    (Printf.sprintf "P%d:%s%s" count body.ru_digest
       rest.ru_digest)

(* ---- construction ---------------------------------------------------- *)

let retain (r : rule) =
  match r.ru_node with
  | R_nil -> ()
  | _ -> r.ru_refs <- r.ru_refs + 1

let release (t : t) (r : rule) =
  let stack = ref [ r ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | r :: rest -> (
      stack := rest;
      match r.ru_node with
      | R_nil -> ()
      | node ->
        if r.ru_refs <= 0 then
          invalid_arg "Memo.Store.release: refcount already zero";
        r.ru_refs <- r.ru_refs - 1;
        if r.ru_refs = 0 then begin
          Hashtbl.remove t.tbl r.ru_digest;
          t.bytes <- t.bytes - r.ru_bytes;
          t.released <- t.released + 1;
          match node with
          | R_seg { rs_rest; _ } -> stack := rs_rest :: !stack
          | R_rep { rp_body; rp_rest; _ } ->
            t.rep_rules <- t.rep_rules - 1;
            stack := rp_body :: rp_rest :: !stack
          | R_nil -> ()
        end)
  done

let register (t : t) ~digest ~node ~nsegs ~node_bytes =
  let r =
    { ru_id = t.next_id;
      ru_digest = digest;
      ru_node = node;
      ru_nsegs = nsegs;
      ru_bytes = node_bytes;
      ru_refs = 0 }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.add t.tbl digest r;
  t.bytes <- t.bytes + node_bytes;
  if t.bytes > t.peak then t.peak <- t.bytes;
  r

(* A found rule is returned as-is: its children were retained when it was
   first built, so the caller only owns whatever reference it takes on
   the returned rule itself. *)
let cons (t : t) (seg : Action.pseg) (rest : rule) =
  let digest = digest_seg ~seg_digest:(digest_pseg seg) ~rest in
  match Hashtbl.find_opt t.tbl digest with
  | Some r ->
    t.dedup_hits <- t.dedup_hits + 1;
    r
  | None ->
    retain rest;
    register t ~digest
      ~node:(R_seg { rs_seg = seg; rs_rest = rest })
      ~nsegs:(1 + rest.ru_nsegs)
      ~node_bytes:(seg_bytes seg)

let rep (t : t) ~(body : rule) ~count (rest : rule) =
  if count < 2 then invalid_arg "Memo.Store.rep: count must be >= 2";
  if body.ru_nsegs = 0 then
    invalid_arg "Memo.Store.rep: empty body";
  let digest = digest_rep ~body ~count ~rest in
  match Hashtbl.find_opt t.tbl digest with
  | Some r ->
    t.dedup_hits <- t.dedup_hits + 1;
    r
  | None ->
    retain body;
    retain rest;
    t.rep_rules <- t.rep_rules + 1;
    register t ~digest
      ~node:(R_rep { rp_body = body; rp_count = count; rp_rest = rest })
      ~nsegs:((body.ru_nsegs * count) + rest.ru_nsegs)
      ~node_bytes:rep_node_bytes

(* ---- grammar construction (tandem-repeat detection) ------------------ *)

(* Smallest period p (and its maximal count k >= 2) such that
   [segs.(lo .. lo + p*k - 1)] is k back-to-back copies of the p-segment
   block at [lo], and rewriting as a rep node saves modeled bytes:
   the rep header must cost less than the k-1 repeat copies it elides. *)
let find_repeat (segs : Action.pseg array) lo hi =
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
        if not (Action.pseg_equal segs.(lo + !i) segs.(base + !i)) then
          matches := false;
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
let rec build t ~depth (segs : Action.pseg array) lo hi =
  if lo >= hi then t.nil
  else
    match
      if depth < t.max_rep_depth then find_repeat segs lo hi else None
    with
    | Some (period, count) ->
      let body = build t ~depth:(depth + 1) segs lo (lo + period) in
      let rest = build t ~depth segs (lo + (period * count)) hi in
      rep t ~body ~count rest
    | None -> cons t segs.(lo) (build t ~depth segs (lo + 1) hi)

let intern_segs (t : t) (segs : Action.pseg array) =
  t.interned_runs <- t.interned_runs + 1;
  let r = build t ~depth:0 segs 0 (Array.length segs) in
  retain r;
  r

(* ---- expansion ------------------------------------------------------- *)

let expand (r : rule) =
  let out = ref [] in
  let count = ref 0 in
  let stack = ref [ r ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | r :: rest -> (
      stack := rest;
      match r.ru_node with
      | R_nil -> ()
      | R_seg { rs_seg; rs_rest } ->
        out := rs_seg :: !out;
        incr count;
        stack := rs_rest :: !stack
      | R_rep { rp_body; rp_count; rp_rest } ->
        let tail = ref (rp_rest :: !stack) in
        for _ = 1 to rp_count do
          tail := rp_body :: !tail
        done;
        stack := !tail)
  done;
  let arr = Array.make !count (Obj.magic 0 : Action.pseg) in
  let i = ref (!count - 1) in
  List.iter
    (fun s ->
      arr.(!i) <- s;
      decr i)
    !out;
  arr

let prune_dead (t : t) =
  (* Orphans can only come from an abandoned load (a crafted stream whose
     rule table holds entries no stride references): collect refs-0 roots
     and release them through the normal cascade. *)
  let dead = ref [] in
  Hashtbl.iter
    (fun _ r -> if r.ru_refs = 0 then dead := r :: !dead)
    t.tbl;
  List.iter
    (fun (r : rule) ->
      (* re-check: an earlier cascade may have freed it already *)
      if r.ru_refs = 0 && Hashtbl.mem t.tbl r.ru_digest then begin
        (* give it the one reference [release] consumes *)
        retain r;
        release t r
      end)
    !dead
