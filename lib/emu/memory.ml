(* A small direct-mapped page TLB sits in front of the page table: the
   emulator's loads and stores hit it almost always, so the hash lookup
   runs once per page switch instead of once per access. Slots are keyed
   by page number; -1 marks an empty slot. Pages are never removed from
   [pages], so an entry can never go stale. *)
type tlb = { keys : int array; slots : Bytes.t array }

type t = { pages : (int, Bytes.t) Hashtbl.t; tlb : tlb }

exception Unaligned of int

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let tlb_size = 64

let create_tlb () =
  { keys = Array.make tlb_size (-1); slots = Array.make tlb_size Bytes.empty }

let create () = { pages = Hashtbl.create 64; tlb = create_tlb () }

let tlb t = t.tlb

let mask32 a = a land 0xffffffff

let page_miss t addr =
  let key = addr lsr page_bits in
  let p =
    match Hashtbl.find t.pages key with
    | p -> p
    | exception Not_found ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.add t.pages key p;
      p
  in
  let slot = key land (tlb_size - 1) in
  t.tlb.keys.(slot) <- key;
  t.tlb.slots.(slot) <- p;
  p

let page t addr =
  let key = addr lsr page_bits in
  let slot = key land (tlb_size - 1) in
  if Array.unsafe_get t.tlb.keys slot = key then
    Array.unsafe_get t.tlb.slots slot
  else page_miss t addr

let check_align addr width =
  if addr land (width - 1) <> 0 then raise (Unaligned addr)

(* All multi-byte accesses are naturally aligned, so they never straddle a
   page boundary and can use the single-page fast path. *)

let load8u t addr =
  let addr = mask32 addr in
  Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let load8 t addr =
  let v = load8u t addr in
  if v >= 0x80 then v - 0x100 else v

let load16u t addr =
  let addr = mask32 addr in
  check_align addr 2;
  Bytes.get_uint16_le (page t addr) (addr land page_mask)

let load16 t addr =
  let v = load16u t addr in
  if v >= 0x8000 then v - 0x10000 else v

let load32 t addr =
  let addr = mask32 addr in
  check_align addr 4;
  Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))

let load64 t addr =
  let addr = mask32 addr in
  check_align addr 8;
  Bytes.get_int64_le (page t addr) (addr land page_mask)

let store8 t addr v =
  let addr = mask32 addr in
  Bytes.unsafe_set (page t addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

let store16 t addr v =
  let addr = mask32 addr in
  check_align addr 2;
  Bytes.set_uint16_le (page t addr) (addr land page_mask) (v land 0xffff)

let store32 t addr v =
  let addr = mask32 addr in
  check_align addr 4;
  Bytes.set_int32_le (page t addr) (addr land page_mask) (Int32.of_int v)

let store64 t addr v =
  let addr = mask32 addr in
  check_align addr 8;
  Bytes.set_int64_le (page t addr) (addr land page_mask) v

let load_double t addr = Int64.float_of_bits (load64 t addr)
let store_double t addr v = store64 t addr (Int64.bits_of_float v)

let init_segment t addr bytes =
  String.iteri (fun i c -> store8 t (addr + i) (Char.code c)) bytes

let load_program t (p : Isa.Program.t) =
  Array.iteri
    (fun i w -> store32 t (p.code_base + (4 * i)) (Int32.to_int w))
    p.words;
  List.iter (fun (addr, bytes) -> init_segment t addr bytes) p.data

let pages_allocated t = Hashtbl.length t.pages

(* ---- capture / restore (strategy engines, docs/STRATEGY.md) ---- *)

let is_zero_page p =
  let n = Bytes.length p in
  let rec go i = i >= n || (Bytes.unsafe_get p i = '\000' && go (i + 1)) in
  go 0

let copy t =
  let pages = Hashtbl.create (max 16 (Hashtbl.length t.pages)) in
  Hashtbl.iter (fun k p -> Hashtbl.add pages k (Bytes.copy p)) t.pages;
  { pages; tlb = create_tlb () }

(* Canonical page image: sorted by page index, with all-zero pages dropped
   (a demand-created zero page is indistinguishable from an untouched
   one), so two behaviourally identical memories always produce equal
   arrays — this doubles as the restorable form and the comparable form. *)
let to_pages t =
  let acc = ref [] in
  Hashtbl.iter
    (fun k p -> if not (is_zero_page p) then acc := (k, Bytes.to_string p) :: !acc)
    t.pages;
  let a = Array.of_list !acc in
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) a;
  a

let of_pages pages =
  let t = create () in
  Array.iter
    (fun (k, img) -> Hashtbl.replace t.pages k (Bytes.of_string img))
    pages;
  t
