(* Linear probing over power-of-two arrays. Keys are scattered by a
   multiplicative (Fibonacci) hash on the high bits, since the hierarchy's
   keys are line addresses whose low bits are all zero. Occupancy lives in
   its own byte map, so every int is a valid key. Removal shifts later
   members of the probe run back into the hole instead of leaving a
   tombstone, so a probe always stops at the first free slot. *)

type t = {
  mutable bits : int;  (* capacity = 1 lsl bits *)
  mutable keys : int array;
  mutable vals : int array;
  mutable used : Bytes.t;  (* '\001' = occupied *)
  mutable count : int;
}

let initial_bits = 4

let create () =
  let n = 1 lsl initial_bits in
  { bits = initial_bits;
    keys = Array.make n 0;
    vals = Array.make n 0;
    used = Bytes.make n '\000';
    count = 0 }

let length t = t.count
let mask t = (1 lsl t.bits) - 1
let home t k = (k * 0x9E3779B97F4A7C1) lsr (63 - t.bits)
let occupied t i = Bytes.unsafe_get t.used i <> '\000'

(* Slot holding [k], or -1. *)
let slot t k =
  let m = mask t in
  let i = ref (home t k) in
  while occupied t !i && t.keys.(!i) <> k do
    i := (!i + 1) land m
  done;
  if occupied t !i then !i else -1

let mem t k = slot t k >= 0

let find t k ~default =
  let i = slot t k in
  if i >= 0 then t.vals.(i) else default

(* Inserts a key known to be absent; the table has room. *)
let insert_fresh t k v =
  let m = mask t in
  let i = ref (home t k) in
  while occupied t !i do
    i := (!i + 1) land m
  done;
  t.keys.(!i) <- k;
  t.vals.(!i) <- v;
  Bytes.unsafe_set t.used !i '\001';
  t.count <- t.count + 1

let resize t bits =
  let keys = t.keys and vals = t.vals and used = t.used in
  let n = 1 lsl bits in
  t.bits <- bits;
  t.keys <- Array.make n 0;
  t.vals <- Array.make n 0;
  t.used <- Bytes.make n '\000';
  t.count <- 0;
  for i = 0 to Array.length keys - 1 do
    if Bytes.unsafe_get used i <> '\000' then insert_fresh t keys.(i) vals.(i)
  done

let replace t k v =
  let i = slot t k in
  if i >= 0 then t.vals.(i) <- v
  else begin
    (* Keep the load factor at or below 1/2. *)
    if 2 * (t.count + 1) > 1 lsl t.bits then resize t (t.bits + 1);
    insert_fresh t k v
  end

let remove t k =
  let hole = slot t k in
  if hole >= 0 then begin
    let m = mask t in
    let hole = ref hole in
    let j = ref ((!hole + 1) land m) in
    while occupied t !j do
      (* The member at [j] may fill the hole only if the hole lies on its
         probe path, i.e. between its home slot and [j]. *)
      let k' = t.keys.(!j) in
      if (!j - home t k') land m >= (!j - !hole) land m then begin
        t.keys.(!hole) <- k';
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land m
    done;
    Bytes.unsafe_set t.used !hole '\000';
    t.count <- t.count - 1
  end

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    if occupied t i then f t.keys.(i) t.vals.(i)
  done

let reset t =
  let e = create () in
  t.bits <- e.bits;
  t.keys <- e.keys;
  t.vals <- e.vals;
  t.used <- e.used;
  t.count <- 0
