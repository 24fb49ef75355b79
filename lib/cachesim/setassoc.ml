type t = {
  ways : int;
  line_bits : int;
  set_mask : int;
  tags : int array;      (* -1 = invalid; indexed set*ways + way *)
  dirty : bool array;
  stamp : int array;     (* LRU timestamps *)
  mutable tick : int;
}

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

(* Index of the way holding [addr]'s line, or -1. *)
let find t addr =
  let tag = tag_of t addr in
  let base = set_of t addr * t.ways in
  let last = base + t.ways in
  let i = ref base in
  while !i < last && t.tags.(!i) <> tag do
    incr i
  done;
  if !i < last then !i else -1

let probe t addr = find t addr >= 0

let access t addr ~dirty =
  let i = find t addr in
  if i >= 0 then begin
    t.tick <- t.tick + 1;
    t.stamp.(i) <- t.tick;
    if dirty then t.dirty.(i) <- true;
    true
  end
  else false

let touch t addr = access t addr ~dirty:false

let fill t addr ~dirty =
  assert (find t addr < 0);
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
  let evicted_dirty = t.tags.(v) <> -1 && t.dirty.(v) in
  t.tags.(v) <- tag;
  t.dirty.(v) <- dirty;
  t.tick <- t.tick + 1;
  t.stamp.(v) <- t.tick;
  evicted_dirty

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
