(* Reference cache simulator: [Cachesim.Setassoc] and
   [Cachesim.Hierarchy] as they stood before the replay hot path was
   made allocation-free (an option-returning tag lookup, a record-
   returning fill, and outstanding fills in a polymorphic [Hashtbl]),
   kept verbatim apart from being wrapped in modules here and
   configured through the library's [Cachesim.Config]. test_cache.ml
   drives it and the library hierarchy through the same load/store
   streams and requires identical latencies, stats and canonical
   states. *)

module Config = Cachesim.Config

module Setassoc = struct
  type t = {
    ways : int;
    line_bits : int;
    set_mask : int;
    tags : int array;      (* -1 = invalid; indexed set*ways + way *)
    dirty : bool array;
    stamp : int array;     (* LRU timestamps *)
    mutable tick : int;
  }

  type fill_result = { evicted : int option; evicted_dirty : bool }

  let log2 n =
    let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
    go 0 n

  let create ~size ~ways ~line =
    let pow2 n = n > 0 && n land (n - 1) = 0 in
    if not (pow2 size && pow2 line) || ways <= 0 || size mod (ways * line) <> 0
    then invalid_arg "Setassoc.create";
    let sets = size / (ways * line) in
    if not (pow2 sets) then invalid_arg "Setassoc.create: sets not power of 2";
    { ways;
      line_bits = log2 line;
      set_mask = sets - 1;
      tags = Array.make (sets * ways) (-1);
      dirty = Array.make (sets * ways) false;
      stamp = Array.make (sets * ways) 0;
      tick = 0 }

  let line_addr t addr = (addr lsr t.line_bits) lsl t.line_bits
  let set_of t addr = (addr lsr t.line_bits) land t.set_mask
  let tag_of t addr = addr lsr t.line_bits
  let sets t = t.set_mask + 1

  let find t addr =
    let s = set_of t addr and tag = tag_of t addr in
    let base = s * t.ways in
    let rec go w =
      if w >= t.ways then None
      else if t.tags.(base + w) = tag then Some (base + w)
      else go (w + 1)
    in
    go 0

  let probe t addr = find t addr <> None

  let touch t addr =
    match find t addr with
    | Some i ->
      t.tick <- t.tick + 1;
      t.stamp.(i) <- t.tick;
      true
    | None -> false

  let fill t addr ~dirty =
    assert (find t addr = None);
    let s = set_of t addr and tag = tag_of t addr in
    let base = s * t.ways in
    (* Choose an invalid way if one exists, else the LRU way. *)
    let victim = ref base in
    for w = 1 to t.ways - 1 do
      let i = base + w in
      if t.tags.(!victim) <> -1
         && (t.tags.(i) = -1 || t.stamp.(i) < t.stamp.(!victim))
      then victim := i
    done;
    let v = !victim in
    let result =
      if t.tags.(v) = -1 then { evicted = None; evicted_dirty = false }
      else
        { evicted = Some (t.tags.(v) lsl t.line_bits);
          evicted_dirty = t.dirty.(v) }
    in
    t.tags.(v) <- tag;
    t.dirty.(v) <- dirty;
    t.tick <- t.tick + 1;
    t.stamp.(v) <- t.tick;
    result

  let set_dirty t addr =
    match find t addr with Some i -> t.dirty.(i) <- true | None -> ()

  let invalidate_all t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.dirty 0 (Array.length t.dirty) false

  (* ---- capture / restore (strategy engines, docs/STRATEGY.md) -------- *)
  (* Only the within-set recency ORDER of the LRU stamps is observable:
     victim selection compares stamps inside one set, and every new stamp
     exceeds all existing ones. Saving ranks instead of raw stamps makes
     the saved form canonical — byte-equal states are behaviourally equal
     regardless of how many ticks each cache had consumed. *)

  type state = {
    st_tags : int array;
    st_dirty : bool array;
    st_rank : int array;  (* per-set recency rank (0 = LRU); -1 = invalid *)
  }

  let save t : state =
    let n = Array.length t.tags in
    let rank = Array.make n (-1) in
    for s = 0 to t.set_mask do
      let base = s * t.ways in
      let valid = ref [] in
      for w = t.ways - 1 downto 0 do
        if t.tags.(base + w) <> -1 then valid := (base + w) :: !valid
      done;
      let sorted =
        List.sort (fun a b -> compare t.stamp.(a) t.stamp.(b)) !valid
      in
      List.iteri (fun r i -> rank.(i) <- r) sorted
    done;
    { st_tags = Array.copy t.tags;
      st_dirty = Array.copy t.dirty;
      st_rank = rank }

  let load t (s : state) =
    let n = Array.length t.tags in
    if Array.length s.st_tags <> n then invalid_arg "Setassoc.load: geometry";
    Array.blit s.st_tags 0 t.tags 0 n;
    Array.blit s.st_dirty 0 t.dirty 0 n;
    for i = 0 to n - 1 do
      t.stamp.(i) <- s.st_rank.(i) + 1
    done;
    t.tick <- t.ways + 1
end

module Hierarchy = struct
  type stats = {
    loads : int;
    stores : int;
    l1_hits : int;
    l1_misses : int;
    l2_hits : int;
    l2_misses : int;
    writebacks : int;
    merged_misses : int;
  }

  type t = {
    cfg : Config.t;
    (* Observability (docs/OBSERVABILITY.md): both default to absent and are
       strictly passive — no timing or stats field depends on them. *)
    trace : Fastsim_obs.Trace.t option;
    h_miss_latency : Fastsim_obs.Metrics.histogram option;
    l1 : Setassoc.t;
    l2 : Setassoc.t;
    l1_mshr : int array;  (* cycle at which each MSHR becomes free *)
    l2_mshr : int array;
    fills : (int, int) Hashtbl.t;  (* L1 line -> cycle its fill completes *)
    mutable bus_free : int;
    mutable loads : int;
    mutable stores : int;
    mutable l1_hits : int;
    mutable l1_misses : int;
    mutable l2_hits : int;
    mutable l2_misses : int;
    mutable writebacks : int;
    mutable merged_misses : int;
  }

  let create ?(config = Config.default) ?trace ?metrics () =
    let c = config in
    { cfg = c;
      trace;
      h_miss_latency =
        Option.map
          (fun m -> Fastsim_obs.Metrics.histogram m "cache.miss_latency")
          metrics;
      l1 = Setassoc.create ~size:c.l1_size ~ways:c.l1_ways ~line:c.l1_line;
      l2 = Setassoc.create ~size:c.l2_size ~ways:c.l2_ways ~line:c.l2_line;
      l1_mshr = Array.make c.l1_mshrs 0;
      l2_mshr = Array.make c.l2_mshrs 0;
      fills = Hashtbl.create 32;
      bus_free = 0;
      loads = 0;
      stores = 0;
      l1_hits = 0;
      l1_misses = 0;
      l2_hits = 0;
      l2_misses = 0;
      writebacks = 0;
      merged_misses = 0 }

  let emit t ts name args =
    match t.trace with
    | None -> ()
    | Some tr ->
      Fastsim_obs.Trace.emit tr
        (Fastsim_obs.Event.instant ~ts ~cat:"cache" ~args name)

  let observe_miss t latency =
    match t.h_miss_latency with
    | None -> ()
    | Some h -> Fastsim_obs.Metrics.observe h latency

  (* Index of the MSHR that frees earliest. *)
  let earliest_mshr arr =
    let best = ref 0 in
    for i = 1 to Array.length arr - 1 do
      if arr.(i) < arr.(!best) then best := i
    done;
    !best

  let l1_transfer t = t.cfg.l1_line / t.cfg.bus_width
  let l2_transfer t = t.cfg.l2_line / t.cfg.bus_width

  (* Timing of an L2 access (after an L1 miss) starting at [start]; fills the
     L2 on a miss and returns the cycle at which the L1's line arrives.
     L1 and L2 line sizes may differ (the L2 indexes with its own). *)
  let l2_access t ~start ~addr ~dirty =
    let line2 = Setassoc.line_addr t.l2 addr in
    if Setassoc.touch t.l2 line2 then begin
      t.l2_hits <- t.l2_hits + 1;
      if dirty then Setassoc.set_dirty t.l2 line2;
      let bus_start = max (start + t.cfg.l2_hit_latency) t.bus_free in
      let ready = bus_start + l1_transfer t in
      t.bus_free <- ready;
      ready
    end
    else begin
      t.l2_misses <- t.l2_misses + 1;
      emit t start "l2_miss" [ ("addr", Fastsim_obs.Json.Int addr) ];
      let m = earliest_mshr t.l2_mshr in
      let start = max start t.l2_mshr.(m) in
      (* Request beat on the split-transaction bus, then memory, then the
         response transfer (a full L2 line from memory; the L1's slice
         forwards to the L1). *)
      let req = max (start + t.cfg.l2_hit_latency) t.bus_free in
      t.bus_free <- req + 1;
      let data = req + 1 + t.cfg.mem_latency in
      let resp = max data t.bus_free in
      let ready = resp + l2_transfer t in
      t.bus_free <- ready;
      let { Setassoc.evicted = _; evicted_dirty } =
        Setassoc.fill t.l2 line2 ~dirty
      in
      if evicted_dirty then begin
        t.writebacks <- t.writebacks + 1;
        emit t start "writeback" [ ("addr", Fastsim_obs.Json.Int addr) ];
        t.bus_free <- t.bus_free + l2_transfer t
      end;
      t.l2_mshr.(m) <- ready;
      ready
    end

  let load t ~now ~addr =
    t.loads <- t.loads + 1;
    let line = Setassoc.line_addr t.l1 addr in
    (* The tag is installed when a miss is issued, but its data arrives only
       when the fill completes: a load in between merges with the
       outstanding fill (MSHR hit) instead of hitting. *)
    match Hashtbl.find_opt t.fills line with
    | Some ready when ready > now ->
      t.l1_misses <- t.l1_misses + 1;
      t.merged_misses <- t.merged_misses + 1;
      ignore (Setassoc.touch t.l1 line : bool);
      let latency = ready - now in
      emit t now "l1_miss"
        [ ("addr", Fastsim_obs.Json.Int addr);
          ("latency", Fastsim_obs.Json.Int latency);
          ("merged", Fastsim_obs.Json.Bool true) ];
      observe_miss t latency;
      latency
    | _ ->
      Hashtbl.remove t.fills line;
      if Setassoc.touch t.l1 line then begin
        t.l1_hits <- t.l1_hits + 1;
        t.cfg.l1_hit_latency
      end
      else begin
        t.l1_misses <- t.l1_misses + 1;
        let m = earliest_mshr t.l1_mshr in
        let start = max (now + t.cfg.l1_miss_penalty) t.l1_mshr.(m) in
        let ready = l2_access t ~start ~addr ~dirty:false in
        ignore (Setassoc.fill t.l1 line ~dirty:false : Setassoc.fill_result);
        Hashtbl.replace t.fills line ready;
        t.l1_mshr.(m) <- ready;
        let latency = max 1 (ready - now) in
        emit t now "l1_miss"
          [ ("addr", Fastsim_obs.Json.Int addr);
            ("latency", Fastsim_obs.Json.Int latency);
            ("merged", Fastsim_obs.Json.Bool false) ];
        observe_miss t latency;
        latency
      end

  let store t ~now ~addr =
    t.stores <- t.stores + 1;
    let line = Setassoc.line_addr t.l1 addr in
    if Setassoc.touch t.l1 line then t.l1_hits <- t.l1_hits + 1
    else begin
      t.l1_misses <- t.l1_misses + 1;
      emit t now "l1_miss"
        [ ("addr", Fastsim_obs.Json.Int addr);
          ("store", Fastsim_obs.Json.Bool true) ]
    end;
    (* Write-through: one bus beat to L2 via the write buffer. *)
    t.bus_free <- max t.bus_free now + 1;
    ignore (l2_access t ~start:now ~addr ~dirty:true : int)

  let stats t =
    { loads = t.loads;
      stores = t.stores;
      l1_hits = t.l1_hits;
      l1_misses = t.l1_misses;
      l2_hits = t.l2_hits;
      l2_misses = t.l2_misses;
      writebacks = t.writebacks;
      merged_misses = t.merged_misses }

  let reset_stats t =
    t.loads <- 0;
    t.stores <- 0;
    t.l1_hits <- 0;
    t.l1_misses <- 0;
    t.l2_hits <- 0;
    t.l2_misses <- 0;
    t.writebacks <- 0;
    t.merged_misses <- 0

  (* ---- capture / restore (strategy engines, docs/STRATEGY.md) -------- *)
  (* All of the hierarchy's temporal state (MSHR free times, outstanding
     fill completions, the bus) is compared only against [now] or against
     other timestamps, so shifting every timestamp by the same delta is
     behaviour-preserving. A capture therefore stores times RELATIVE to the
     capture cycle, clamped at 0 (a resource that freed in the past behaves
     exactly like one that is free now), with MSHR arrays sorted (only the
     multiset of free times is observable) and dead fill entries dropped
     (a fill whose data already arrived behaves exactly like no entry).
     The result is canonical: byte-equal states are behaviourally equal. *)

  type state = {
    h_l1 : Setassoc.state;
    h_l2 : Setassoc.state;
    h_l1_mshr : int array;        (* relative, clamped, sorted *)
    h_l2_mshr : int array;
    h_fills : (int * int) array;  (* (line, relative ready > 0), by line *)
    h_bus_free : int;             (* relative, clamped *)
    h_stats : stats;              (* absolute counters; not behavioural *)
  }

  let capture t ~now : state =
    let rel arr =
      let a = Array.map (fun v -> max 0 (v - now)) arr in
      Array.sort compare a;
      a
    in
    let fills = ref [] in
    Hashtbl.iter
      (fun line ready -> if ready > now then fills := (line, ready - now) :: !fills)
      t.fills;
    let fills = Array.of_list !fills in
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) fills;
    { h_l1 = Setassoc.save t.l1;
      h_l2 = Setassoc.save t.l2;
      h_l1_mshr = rel t.l1_mshr;
      h_l2_mshr = rel t.l2_mshr;
      h_fills = fills;
      h_bus_free = max 0 (t.bus_free - now);
      h_stats = stats t }

  let restore t ~now (s : state) =
    Setassoc.load t.l1 s.h_l1;
    Setassoc.load t.l2 s.h_l2;
    let abs dst src =
      if Array.length src <> Array.length dst then
        invalid_arg "Hierarchy.load: geometry";
      Array.iteri (fun i v -> dst.(i) <- now + v) src
    in
    abs t.l1_mshr s.h_l1_mshr;
    abs t.l2_mshr s.h_l2_mshr;
    Hashtbl.reset t.fills;
    Array.iter (fun (line, r) -> Hashtbl.replace t.fills line (now + r)) s.h_fills;
    t.bus_free <- now + s.h_bus_free;
    t.loads <- s.h_stats.loads;
    t.stores <- s.h_stats.stores;
    t.l1_hits <- s.h_stats.l1_hits;
    t.l1_misses <- s.h_stats.l1_misses;
    t.l2_hits <- s.h_stats.l2_hits;
    t.l2_misses <- s.h_stats.l2_misses;
    t.writebacks <- s.h_stats.writebacks;
    t.merged_misses <- s.h_stats.merged_misses

  let state_canonical (s : state) : string =
    Marshal.to_string
      (s.h_l1, s.h_l2, s.h_l1_mshr, s.h_l2_mshr, s.h_fills, s.h_bus_free)
      [ Marshal.No_sharing ]
end
