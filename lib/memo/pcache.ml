type policy =
  | Unbounded
  | Flush_on_full of int
  | Copying_gc of int
  | Generational_gc of { nursery : int; total : int }

exception Determinism_violation of string

type t = {
  pol : policy;
  (* The chain store this cache interns stride rules into. Private by
     default; the serve registry passes one shared store to every cache
     of the same program ([Registry.chain_store]), so identical chain
     suffixes across spec_keys are stored once. The cache holds rule
     references through its strides' [s_rule]; [release_rules] drops
     them when the cache is discarded while the store lives on. *)
  store : Store.t;
  (* Open-addressed intern table (see ctable.mli): keyed by the FNV-1a
     hash computed during snapshot encoding plus the key bytes, so warm
     lookups through [intern_arena] allocate nothing. *)
  table : Action.config Ctable.t;
  mutable epoch : int;
  (* "Used since the last collection" needs a notion of recency finer than
     the collections themselves (on the first collection everything has
     been used since the start). The epoch advances every [window] modeled
     bytes of allocation, so a collection keeps what was touched in the
     current allocation window. *)
  window : int;
  mutable alloc_window : int;
  mutable bytes : int;
  mutable nursery_bytes : int;
  mutable peak : int;
  mutable configs_alloc : int;
  mutable actions_alloc : int;
  mutable flush_count : int;
  mutable minor_count : int;
  mutable full_count : int;
  mutable gc_survivors : int;
  mutable gc_population : int;
  mutable stride_count : int;
  mutable expand_count : int;
  mutable mark : int;  (* last stamp [compact] gave the configs it visited *)
  (* Observability (docs/OBSERVABILITY.md). Attached after creation with
     [attach_obs] because a warm-started cache outlives any one engine run.
     Strictly passive: no replacement or recording decision reads these. *)
  mutable obs_trace : Fastsim_obs.Trace.t option;
  mutable obs_now : unit -> int;  (* simulated-cycle source for event ts *)
  mutable m_inserts : Fastsim_obs.Metrics.counter option;
  mutable m_hits : Fastsim_obs.Metrics.counter option;
  mutable m_strides : Fastsim_obs.Metrics.counter option;
  mutable m_bytes : Fastsim_obs.Metrics.gauge option;
}

type counters = {
  static_configs : int;
  static_actions : int;
  live_configs : int;
  modeled_bytes : int;
  peak_modeled_bytes : int;
  flushes : int;
  minor_collections : int;
  full_collections : int;
  last_gc_survivors : int;
  last_gc_population : int;
  stride_compactions : int;
  stride_expansions : int;
}

let epoch_window = function
  | Copying_gc budget -> max 1024 (budget / 2)
  | Generational_gc { nursery; _ } -> max 1024 (nursery / 2)
  | Unbounded | Flush_on_full _ -> max_int

let create ?(policy = Unbounded) ?store () =
  let store =
    match store with Some s -> s | None -> Store.create ()
  in
  Store.addref store;
  { pol = policy;
    store;
    table = Ctable.create ~initial:4096 ();
    epoch = 0;
    window = epoch_window policy;
    alloc_window = 0;
    bytes = 0;
    nursery_bytes = 0;
    peak = 0;
    configs_alloc = 0;
    actions_alloc = 0;
    flush_count = 0;
    minor_count = 0;
    full_count = 0;
    gc_survivors = 0;
    gc_population = 0;
    stride_count = 0;
    expand_count = 0;
    mark = 0;
    obs_trace = None;
    obs_now = (fun () -> 0);
    m_inserts = None;
    m_hits = None;
    m_strides = None;
    m_bytes = None }

let policy t = t.pol
let store t = t.store

(* A stride's [s_rule] is the cache's only rule reference; dropping the
   group (expansion, flush, eviction) must return it to the store. *)
let release_group_rules t (c : Action.config) =
  match c.Action.cfg_group with
  | Some { Action.g_first = Action.N_stride s; _ } ->
    Store.release t.store s.Action.s_rule
  | _ -> ()

let release_rules t =
  Ctable.iter
    (fun _ (c : Action.config) ->
      match c.Action.cfg_group with
      | Some { Action.g_first = Action.N_stride s; _ } ->
        Store.release t.store s.Action.s_rule;
        (* Drop the group so a stray second call cannot double-release;
           the cache is being discarded, not reused. *)
        c.Action.cfg_group <- None
      | _ -> ())
    t.table;
  Store.decref t.store

let attach_obs t ?trace ?metrics ~now () =
  t.obs_trace <- trace;
  t.obs_now <- now;
  t.m_inserts <-
    Option.map (fun m -> Fastsim_obs.Metrics.counter m "pcache.inserts")
      metrics;
  t.m_hits <-
    Option.map (fun m -> Fastsim_obs.Metrics.counter m "pcache.intern_hits")
      metrics;
  t.m_strides <-
    Option.map
      (fun m -> Fastsim_obs.Metrics.counter m "pcache.stride_compactions")
      metrics;
  t.m_bytes <-
    Option.map (fun m -> Fastsim_obs.Metrics.gauge m "pcache.modeled_bytes")
      metrics

let detach_obs t =
  t.obs_trace <- None;
  t.obs_now <- (fun () -> 0);
  t.m_inserts <- None;
  t.m_hits <- None;
  t.m_strides <- None;
  t.m_bytes <- None

let emit t name args =
  match t.obs_trace with
  | None -> ()
  | Some tr ->
    Fastsim_obs.Trace.emit tr
      (Fastsim_obs.Event.instant ~ts:(t.obs_now ()) ~cat:"pcache" ~args name)

let tick = function
  | None -> ()
  | Some c -> Fastsim_obs.Metrics.incr c

let violation fmt = Format.kasprintf (fun s -> raise (Determinism_violation s)) fmt

let set_bytes_gauge t =
  match t.m_bytes with
  | None -> ()
  | Some g -> Fastsim_obs.Metrics.set g (float_of_int t.bytes)

let add_bytes t (cfg : Action.config) n =
  t.bytes <- t.bytes + n;
  if not cfg.cfg_old_gen then t.nursery_bytes <- t.nursery_bytes + n;
  set_bytes_gauge t;
  if t.bytes > t.peak then t.peak <- t.bytes;
  t.alloc_window <- t.alloc_window + n;
  if t.alloc_window >= t.window then begin
    t.epoch <- t.epoch + 1;
    t.alloc_window <- 0
  end

(* Structural shrinkage (stride compaction discarding plain chains): the
   modeled bytes go away but no allocation happened, so the epoch window
   and peak are untouched. *)
let remove_bytes t (cfg : Action.config) n =
  t.bytes <- t.bytes - n;
  if not cfg.Action.cfg_old_gen then
    t.nursery_bytes <- t.nursery_bytes - n;
  set_bytes_gauge t

let intern_miss t hash key =
  let cfg =
    { Action.cfg_key = key;
      cfg_hash = hash;
      cfg_bytes = Uarch.Snapshot.modeled_bytes key;
      cfg_action_bytes = 0;
      cfg_group = None;
      cfg_touched = t.epoch;
      cfg_hits = 0;
      cfg_dropped = false;
      cfg_old_gen = false;
      cfg_mark = 0 }
  in
  Ctable.add t.table ~hash key cfg;
  t.configs_alloc <- t.configs_alloc + 1;
  add_bytes t cfg cfg.Action.cfg_bytes;
  tick t.m_inserts;
  emit t "insert"
    [ ("configs", Fastsim_obs.Json.Int (Ctable.length t.table));
      ("modeled_bytes", Fastsim_obs.Json.Int t.bytes) ];
  cfg

let intern t key =
  let hash = Uarch.Snapshot.hash_key key in
  match Ctable.find t.table ~hash key with
  | Some cfg ->
    tick t.m_hits;
    cfg.Action.cfg_touched <- t.epoch;
    cfg
  | None -> intern_miss t hash key

let intern_arena t (a : Uarch.Snapshot.Arena.t) =
  let hash = Uarch.Snapshot.Arena.hash a in
  match
    Ctable.find_bytes t.table ~hash (Uarch.Snapshot.Arena.buffer a)
      ~len:(Uarch.Snapshot.Arena.length a)
  with
  | Some cfg ->
    (* The hot-path hit: no string was materialised, nothing allocated. *)
    tick t.m_hits;
    cfg.Action.cfg_touched <- t.epoch;
    cfg
  | None -> intern_miss t hash (Uarch.Snapshot.Arena.key a)

let find t key =
  Ctable.find t.table ~hash:(Uarch.Snapshot.hash_key key) key

let find_arena t (a : Uarch.Snapshot.Arena.t) =
  Ctable.find_bytes t.table
    ~hash:(Uarch.Snapshot.Arena.hash a)
    (Uarch.Snapshot.Arena.buffer a)
    ~len:(Uarch.Snapshot.Arena.length a)

let touch t (cfg : Action.config) =
  cfg.Action.cfg_touched <- t.epoch;
  cfg.Action.cfg_hits <- cfg.Action.cfg_hits + 1

(* Builds a fresh chain for [items] ending in [term], charging its modeled
   bytes to [owner]. *)
let build_chain t owner items term =
  let alloc node =
    t.actions_alloc <- t.actions_alloc + 1;
    add_bytes t owner (Action.node_bytes node);
    node
  in
  let rec go = function
    | [] -> term
    | Action.I_load lat :: rest ->
      alloc (Action.N_load { l_edges = [ (lat, go rest) ] })
    | Action.I_store :: rest -> alloc (Action.N_store (go rest))
    | Action.I_ctl c :: rest ->
      alloc (Action.N_ctl { c_edges = [ (c, go rest) ] })
    | Action.I_rollback i :: rest -> alloc (Action.N_rollback (i, go rest))
  in
  go items

let resolve_goto t (g : Action.goto_node) =
  let target = g.Action.target in
  if target.Action.cfg_dropped then begin
    match Ctable.find t.table ~hash:target.Action.cfg_hash target.Action.cfg_key with
    | Some live ->
      g.Action.target <- live;
      live
    | None -> target
  end
  else target

(* ---- stride compaction (docs/INTERNALS.md "Hot path") ---------------- *)

(* A chain qualifies for compaction when it is a straight line: every
   action node carries exactly one recorded outcome edge. Returns the
   items in order, the summed modeled bytes of every node on the line
   including the terminal, and the terminal node itself (so a [N_goto]'s
   edge — and lazy pointer healing — is preserved). The item array is
   allocated at the terminal, once the length is known, and filled on
   the way back; a group's line is a few interactions long. *)
let linear_chain first =
  let rec go n bytes node =
    match node with
    | Action.N_load { Action.l_edges = [ (_, next) ] }
    | Action.N_ctl { Action.c_edges = [ (_, next) ] }
    | Action.N_store next
    | Action.N_rollback (_, next) -> (
      match go (n + 1) (bytes + Action.node_bytes node) next with
      | Some (items, _, _) as line ->
        items.(n) <-
          (match node with
           | Action.N_load { Action.l_edges = [ (lat, _) ] } ->
             Action.I_load lat
           | Action.N_ctl { Action.c_edges = [ (c, _) ] } -> Action.I_ctl c
           | Action.N_rollback (i, _) -> Action.I_rollback i
           | _ -> Action.I_store);
        line
      | None -> None)
    | Action.N_goto _ | Action.N_halt ->
      Some (Array.make n Action.I_store, bytes + 8, node)
    | Action.N_load _ | Action.N_ctl _ | Action.N_stride _ -> None
  in
  go 0 0 first

(* Strides longer than this stop growing: bounds the work a mid-stride
   divergence (full re-expansion) can cost. *)
let max_stride_segs = 64

let compact t (owner : Action.config) =
  (* A store over its (advisory) budget stops taking new rules; chains
     simply stay plain — observationally neutral for replay, the run is
     just not collapsed. Never the case without an explicit budget. *)
  if Store.over_budget t.store then false
  else
  match owner.Action.cfg_group with
  | None -> false
  | Some g ->
    (match linear_chain g.Action.g_first with
     | Some (owner_ops, owner_bytes, Action.N_goto gn0) ->
       (* Visited configurations carry this compaction's stamp, so the
          cycle check is O(1) per segment. *)
       t.mark <- t.mark + 1;
       owner.Action.cfg_mark <- t.mark;
       let segs = ref [||] and nsegs = ref 0 and term = ref Action.N_halt in
       let rec absorb (c : Action.config) =
         if
           !nsegs < max_stride_segs
           && c.Action.cfg_mark <> t.mark
           && not c.Action.cfg_dropped
         then
           match c.Action.cfg_group with
           | None -> ()
           | Some sg -> (
             match linear_chain sg.Action.g_first with
             | None -> ()
             | Some (ops, bytes, next) ->
               c.Action.cfg_mark <- t.mark;
               (* Strip the plain chains: the absorbed configurations stay
                  interned (re-recordable on a direct landing) but lose
                  their groups; the owner keeps its group with the stride
                  as chain. *)
               if !nsegs = 0 then remove_bytes t owner owner_bytes;
               remove_bytes t c bytes;
               c.Action.cfg_group <- None;
               let seg =
                 { Action.sg_cfg = c;
                   sg_silent = sg.Action.g_silent;
                   sg_retired = sg.Action.g_retired;
                   sg_classes = sg.Action.g_classes;
                   sg_ops = ops }
               in
               if !nsegs = 0 then segs := Array.make max_stride_segs seg;
               !segs.(!nsegs) <- seg;
               incr nsegs;
               term := next;
               match next with
               | Action.N_goto gn -> absorb (resolve_goto t gn)
               | _ -> ())
       in
       absorb (resolve_goto t gn0);
       if !nsegs = 0 then false
       else begin
         let seg_arr = Array.sub !segs 0 !nsegs in
         (* Canonical compressed form: portable segments (keys, not
            nodes) interned into the chain store, sharing the segment
            arrays just built. The returned rule arrives retained; the
            stride owns that reference until expansion/discard. *)
         let rule =
           Store.intern_segs t.store
             (Array.map
                (fun (seg : Action.stride_seg) ->
                  { Action.pg_key = seg.Action.sg_cfg.Action.cfg_key;
                    pg_silent = seg.Action.sg_silent;
                    pg_retired = seg.Action.sg_retired;
                    pg_classes = seg.Action.sg_classes;
                    pg_ops = seg.Action.sg_ops })
                seg_arr)
         in
         let stride =
           Action.N_stride
             { Action.s_ops = owner_ops;
               s_segs = seg_arr;
               s_term = !term;
               s_rule = rule }
         in
         t.actions_alloc <- t.actions_alloc + 1;
         owner.Action.cfg_group <-
           Some
             { Action.g_silent = g.Action.g_silent;
               g_retired = g.Action.g_retired;
               g_classes = g.Action.g_classes;
               g_first = stride };
         add_bytes t owner (Action.node_bytes stride);
         add_bytes t owner (Action.node_bytes !term);
         t.stride_count <- t.stride_count + 1;
         tick t.m_strides;
         emit t "stride_compact"
           [ ("segs", Fastsim_obs.Json.Int !nsegs);
             ("modeled_bytes", Fastsim_obs.Json.Int t.bytes) ];
         true
       end
     | _ ->
       (* Multi-edge, already a stride, or nothing follows: leave it. *)
       false)

let expand_stride t (owner : Action.config) =
  match owner.Action.cfg_group with
  | Some ({ Action.g_first = Action.N_stride s; _ } as g) ->
    let nseg = Array.length s.Action.s_segs in
    (* Prefer the live twin of each absorbed configuration: if one was
       dropped by a collection and re-interned since, the restored group
       must land on the table's node so the engine's subsequent merge and
       goto edges see it. *)
    let resolved =
      Array.map
        (fun (seg : Action.stride_seg) ->
          let c = seg.Action.sg_cfg in
          if c.Action.cfg_dropped then
            match
              Ctable.find t.table ~hash:c.Action.cfg_hash c.Action.cfg_key
            with
            | Some live -> live
            | None -> c
          else c)
        s.Action.s_segs
    in
    (* Rebuild plain groups from the tail so each segment's terminal can
       point at the next segment's configuration. A segment that already
       re-recorded its own group (possible after an eviction) keeps it. *)
    for i = nseg - 1 downto 0 do
      let seg = s.Action.s_segs.(i) in
      let c = resolved.(i) in
      if c.Action.cfg_group = None then begin
        let term =
          if i = nseg - 1 then s.Action.s_term
          else Action.N_goto { Action.target = resolved.(i + 1) }
        in
        t.actions_alloc <- t.actions_alloc + 1;
        add_bytes t c (Action.node_bytes term);
        let first =
          build_chain t c (Array.to_list seg.Action.sg_ops) term
        in
        c.Action.cfg_group <-
          Some
            { Action.g_silent = seg.Action.sg_silent;
              g_retired = seg.Action.sg_retired;
              g_classes = seg.Action.sg_classes;
              g_first = first }
      end
    done;
    remove_bytes t owner
      (Action.node_bytes (Action.N_stride s)
      + Action.node_bytes s.Action.s_term);
    Store.release t.store s.Action.s_rule;
    let term0 = Action.N_goto { Action.target = resolved.(0) } in
    t.actions_alloc <- t.actions_alloc + 1;
    add_bytes t owner (Action.node_bytes term0);
    let first = build_chain t owner (Array.to_list s.Action.s_ops) term0 in
    owner.Action.cfg_group <-
      Some
        { Action.g_silent = g.Action.g_silent;
          g_retired = g.Action.g_retired;
          g_classes = g.Action.g_classes;
          g_first = first };
    t.expand_count <- t.expand_count + 1;
    emit t "stride_expand"
      [ ("segs", Fastsim_obs.Json.Int nseg);
        ("modeled_bytes", Fastsim_obs.Json.Int t.bytes) ];
    resolved
  | _ -> [||]

(* ---- group recording ------------------------------------------------- *)

let merge_group t (cfg : Action.config) ~silent ~retired ~classes ~items
    ~terminal =
  let next_cfg =
    match terminal with
    | Action.T_goto c -> Some c
    | Action.T_halt -> None
  in
  (* The terminal node is only allocated if a chain is actually built;
     re-recording an already known path must not grow the cache. *)
  let make_term () =
    match next_cfg with
    | Some c ->
      t.actions_alloc <- t.actions_alloc + 1;
      let n = Action.N_goto { target = c } in
      add_bytes t cfg (Action.node_bytes n);
      n
    | None ->
      t.actions_alloc <- t.actions_alloc + 1;
      add_bytes t cfg (Action.node_bytes Action.N_halt);
      Action.N_halt
  in
  (* A stride at the head means [cfg] owns a compacted run; expand it back
     to plain groups before walking (defensive: the engine's merges land
     on plain chains — replay expands before reporting a divergence). *)
  (match cfg.Action.cfg_group with
   | Some { Action.g_first = Action.N_stride _; _ } ->
     ignore (expand_stride t cfg : Action.config array)
   | _ -> ());
  (match cfg.Action.cfg_group with
   | None ->
     cfg.Action.cfg_group <-
       Some
         { Action.g_silent = silent;
           g_retired = retired;
           g_classes = Array.copy classes;
           g_first = build_chain t cfg items (make_term ()) }
   | Some g ->
     if g.Action.g_silent <> silent then
       violation "group silent-cycle mismatch: %d vs %d" g.Action.g_silent
         silent;
     if g.Action.g_retired <> retired then
       violation "group retired-count mismatch: %d vs %d" g.Action.g_retired
         retired;
     if g.Action.g_classes <> classes then
       violation "group per-class retirement mismatch";
     (* Walk the existing chain along [items]; graft at the first unseen
        outcome. *)
     let rec walk node items =
       match node, items with
       | Action.N_load ln, Action.I_load lat :: rest -> (
         match Action.load_edge lat ln.Action.l_edges with
         | Some next -> walk next rest
         | None ->
           ln.Action.l_edges <-
             (lat, build_chain t cfg rest (make_term ()))
             :: ln.Action.l_edges;
           (* one more outcome edge on this node *)
           add_bytes t cfg 8)
       | Action.N_store next, Action.I_store :: rest -> walk next rest
       | Action.N_ctl cn, Action.I_ctl c :: rest -> (
         match Action.ctl_edge c cn.Action.c_edges with
         | Some next -> walk next rest
         | None ->
           cn.Action.c_edges <-
             (c, build_chain t cfg rest (make_term ()))
             :: cn.Action.c_edges;
           add_bytes t cfg 8)
       | Action.N_rollback (i, next), Action.I_rollback j :: rest ->
         if i <> j then violation "rollback index mismatch: %d vs %d" i j;
         walk next rest
       | Action.N_goto g, [] -> (
         match terminal with
         | Action.T_goto c
           when String.equal g.Action.target.Action.cfg_key
                  c.Action.cfg_key ->
           ()
         | Action.T_goto _ -> violation "successor configuration mismatch"
         | Action.T_halt -> violation "halt where goto was recorded")
       | Action.N_halt, [] -> (
         match terminal with
         | Action.T_halt -> ()
         | Action.T_goto _ -> violation "goto where halt was recorded")
       | node, item :: _ ->
         violation "action kind mismatch: %a vs item %a"
           (fun ppf -> Action.pp_node_shallow ppf)
           node
           (fun ppf -> Action.pp_item ppf)
           item
       | node, [] ->
         violation "recorded chain shorter than existing: at %a"
           (fun ppf -> Action.pp_node_shallow ppf)
           node
     in
     walk g.Action.g_first items);
  (* Compaction opportunity: the successor already has a group, so the
     engine is about to switch to replay through it. If it heads a linear
     run, collapse the run now — the successor keeps its group (as stride
     owner), so nothing the engine needs next is lost. *)
  (match next_cfg with
   | Some next when next.Action.cfg_group <> None ->
     ignore (compact t next : bool)
   | _ -> ());
  next_cfg

let config_size (c : Action.config) =
  c.Action.cfg_bytes + c.Action.cfg_action_bytes

(* Visits every node of a chain, oldest edge last, with an explicit
   worklist: chains grow one node per silent region, and deserialised
   ones can be arbitrarily deep (see the ≥100k-node regression test in
   test/test_persist.ml), too deep for naive recursion. *)
let iter_chain f first =
  let push stack (_, n) = n :: stack in
  let rec go = function
    | [] -> ()
    | node :: stack ->
      f node;
      go
        (match node with
         | Action.N_load { l_edges } -> List.fold_left push stack l_edges
         | Action.N_ctl { c_edges } -> List.fold_left push stack c_edges
         | Action.N_store next
         | Action.N_rollback (_, next)
         | Action.N_stride { s_term = next; _ } -> next :: stack
         | Action.N_halt | Action.N_goto _ -> stack)
  in
  go [ first ]

(* [cfg_action_bytes] is maintained here rather than at every [add_bytes]
   call site: recompute a config's share lazily before collections. *)
let recompute_action_bytes (c : Action.config) =
  let total = ref 0 in
  Option.iter
    (fun g ->
      iter_chain (fun n -> total := !total + Action.node_bytes n)
        g.Action.g_first)
    c.Action.cfg_group;
  c.Action.cfg_action_bytes <- !total

let flush t =
  emit t "flush"
    [ ("population", Fastsim_obs.Json.Int (Ctable.length t.table)) ];
  Ctable.iter
    (fun _ (c : Action.config) ->
      release_group_rules t c;
      c.Action.cfg_dropped <- true;
      c.Action.cfg_group <- None)
    t.table;
  Ctable.clear t.table;
  t.bytes <- 0;
  t.nursery_bytes <- 0;
  t.flush_count <- t.flush_count + 1;
  match t.m_bytes with
  | None -> ()
  | Some g -> Fastsim_obs.Metrics.set g 0.

(* Keep configurations used since the last collection (epoch = current).
   [minor] restricts eviction to the nursery. *)
let collect t ~minor =
  let population = Ctable.length t.table in
  let survivors = ref [] in
  Ctable.iter
    (fun _ (c : Action.config) ->
      let used = c.Action.cfg_touched >= t.epoch in
      let keep = if minor then c.Action.cfg_old_gen || used else used in
      if keep then begin
        if minor && used && not c.Action.cfg_old_gen then
          c.Action.cfg_old_gen <- true;
        survivors := c :: !survivors
      end
      else begin
        release_group_rules t c;
        c.Action.cfg_dropped <- true;
        c.Action.cfg_group <- None
      end)
    t.table;
  Ctable.clear t.table;
  t.bytes <- 0;
  t.nursery_bytes <- 0;
  List.iter
    (fun (c : Action.config) ->
      recompute_action_bytes c;
      Ctable.add t.table ~hash:c.Action.cfg_hash c.Action.cfg_key c;
      t.bytes <- t.bytes + config_size c;
      if not c.Action.cfg_old_gen then
        t.nursery_bytes <- t.nursery_bytes + config_size c)
    !survivors;
  if minor then t.minor_count <- t.minor_count + 1
  else t.full_count <- t.full_count + 1;
  t.gc_survivors <- List.length !survivors;
  t.gc_population <- population;
  set_bytes_gauge t;
  emit t
    (if minor then "minor_gc" else "full_gc")
    [ ("survivors", Fastsim_obs.Json.Int t.gc_survivors);
      ("population", Fastsim_obs.Json.Int population) ];
  t.epoch <- t.epoch + 1

let check_budget t =
  match t.pol with
  | Unbounded -> `Kept
  | Flush_on_full budget ->
    if t.bytes > budget then begin
      flush t;
      `Flushed
    end
    else `Kept
  | Copying_gc budget ->
    if t.bytes > budget then begin
      collect t ~minor:false;
      (* A collection that frees nothing must still bound memory. *)
      if t.bytes > budget then flush t;
      `Collected
    end
    else `Kept
  | Generational_gc { nursery; total } ->
    if t.bytes > total then begin
      collect t ~minor:false;
      if t.bytes > total then flush t;
      `Collected
    end
    else if t.nursery_bytes > nursery then begin
      collect t ~minor:true;
      `Collected
    end
    else `Kept

let counters t =
  { static_configs = t.configs_alloc;
    static_actions = t.actions_alloc;
    live_configs = Ctable.length t.table;
    modeled_bytes = t.bytes;
    peak_modeled_bytes = t.peak;
    flushes = t.flush_count;
    minor_collections = t.minor_count;
    full_collections = t.full_count;
    last_gc_survivors = t.gc_survivors;
    last_gc_population = t.gc_population;
    stride_compactions = t.stride_count;
    stride_expansions = t.expand_count }

let iter_configs f t = Ctable.iter (fun _ c -> f c) t.table

(* Low-level: attach a prebuilt chain (deserialisation); accounts for its
   modeled size and static counters. *)
let install_group t (cfg : Action.config) ~silent ~retired ~classes ~first =
  if cfg.Action.cfg_group <> None then
    violation "install_group: configuration already has a group";
  cfg.Action.cfg_group <-
    Some
      { Action.g_silent = silent;
        g_retired = retired;
        g_classes = classes;
        g_first = first };
  iter_chain
    (fun node ->
      t.actions_alloc <- t.actions_alloc + 1;
      add_bytes t cfg (Action.node_bytes node))
    first
