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
  fills : Int_table.t;  (* L1 line -> cycle its fill completes *)
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
    fills = Int_table.create ();
    bus_free = 0;
    loads = 0;
    stores = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_hits = 0;
    l2_misses = 0;
    writebacks = 0;
    merged_misses = 0 }

(* Callers match on [t.trace] first, so an untraced access never builds
   the argument list. *)
let emit tr ts name args =
  Fastsim_obs.Trace.emit tr
    (Fastsim_obs.Event.instant ~ts ~cat:"cache" ~args name)

let observe_miss t latency =
  match t.h_miss_latency with
  | None -> ()
  | Some h -> Fastsim_obs.Metrics.observe h latency

(* [Stdlib.max] compares polymorphically, through a C call. *)
let imax (a : int) b = if a >= b then a else b

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
  if Setassoc.access t.l2 line2 ~dirty then begin
    t.l2_hits <- t.l2_hits + 1;
    let bus_start = imax (start + t.cfg.l2_hit_latency) t.bus_free in
    let ready = bus_start + l1_transfer t in
    t.bus_free <- ready;
    ready
  end
  else begin
    t.l2_misses <- t.l2_misses + 1;
    (match t.trace with
     | None -> ()
     | Some tr ->
       emit tr start "l2_miss" [ ("addr", Fastsim_obs.Json.Int addr) ]);
    let m = earliest_mshr t.l2_mshr in
    let start = imax start t.l2_mshr.(m) in
    (* Request beat on the split-transaction bus, then memory, then the
       response transfer (a full L2 line from memory; the L1's slice
       forwards to the L1). *)
    let req = imax (start + t.cfg.l2_hit_latency) t.bus_free in
    t.bus_free <- req + 1;
    let data = req + 1 + t.cfg.mem_latency in
    let resp = imax data t.bus_free in
    let ready = resp + l2_transfer t in
    t.bus_free <- ready;
    if Setassoc.fill t.l2 line2 ~dirty then begin
      t.writebacks <- t.writebacks + 1;
      (match t.trace with
       | None -> ()
       | Some tr ->
         emit tr start "writeback" [ ("addr", Fastsim_obs.Json.Int addr) ]);
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
  let ready = Int_table.find t.fills line ~default:min_int in
  if ready > now then begin
    t.l1_misses <- t.l1_misses + 1;
    t.merged_misses <- t.merged_misses + 1;
    ignore (Setassoc.touch t.l1 line : bool);
    let latency = ready - now in
    (match t.trace with
     | None -> ()
     | Some tr ->
       emit tr now "l1_miss"
         [ ("addr", Fastsim_obs.Json.Int addr);
           ("latency", Fastsim_obs.Json.Int latency);
           ("merged", Fastsim_obs.Json.Bool true) ]);
    observe_miss t latency;
    latency
  end
  else begin
    Int_table.remove t.fills line;
    if Setassoc.touch t.l1 line then begin
      t.l1_hits <- t.l1_hits + 1;
      t.cfg.l1_hit_latency
    end
    else begin
      t.l1_misses <- t.l1_misses + 1;
      let m = earliest_mshr t.l1_mshr in
      let start = imax (now + t.cfg.l1_miss_penalty) t.l1_mshr.(m) in
      let ready = l2_access t ~start ~addr ~dirty:false in
      ignore (Setassoc.fill t.l1 line ~dirty:false : bool);
      Int_table.replace t.fills line ready;
      t.l1_mshr.(m) <- ready;
      let latency = imax 1 (ready - now) in
      (match t.trace with
       | None -> ()
       | Some tr ->
         emit tr now "l1_miss"
           [ ("addr", Fastsim_obs.Json.Int addr);
             ("latency", Fastsim_obs.Json.Int latency);
             ("merged", Fastsim_obs.Json.Bool false) ]);
      observe_miss t latency;
      latency
    end
  end

let store t ~now ~addr =
  t.stores <- t.stores + 1;
  let line = Setassoc.line_addr t.l1 addr in
  if Setassoc.touch t.l1 line then t.l1_hits <- t.l1_hits + 1
  else begin
    t.l1_misses <- t.l1_misses + 1;
    match t.trace with
    | None -> ()
    | Some tr ->
      emit tr now "l1_miss"
        [ ("addr", Fastsim_obs.Json.Int addr);
          ("store", Fastsim_obs.Json.Bool true) ]
  end;
  (* Write-through: one bus beat to L2 via the write buffer. *)
  t.bus_free <- imax t.bus_free now + 1;
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
  Int_table.iter
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
      invalid_arg "Hierarchy.restore: geometry";
    Array.iteri (fun i v -> dst.(i) <- now + v) src
  in
  abs t.l1_mshr s.h_l1_mshr;
  abs t.l2_mshr s.h_l2_mshr;
  Int_table.reset t.fills;
  Array.iter
    (fun (line, r) -> Int_table.replace t.fills line (now + r))
    s.h_fills;
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
