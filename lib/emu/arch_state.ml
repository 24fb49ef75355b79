type t = {
  iregs : int array;
  fregs : float array;
  mutable pc : int;
}

let create ?(pc = 0) () =
  { iregs = Array.make Isa.Reg.count 0;
    fregs = Array.make Isa.Reg.count 0.0;
    pc }

let norm32 v =
  let v = v land 0xffffffff in
  if v >= 0x80000000 then v - 0x100000000 else v

let to_u32 v = v land 0xffffffff

let get_i t r = if r = Isa.Reg.zero then 0 else Array.unsafe_get t.iregs r
let set_i t r v =
  if r <> Isa.Reg.zero then Array.unsafe_set t.iregs r (norm32 v)

let get_f t r = Array.unsafe_get t.fregs r
let set_f t r v = Array.unsafe_set t.fregs r v

let snapshot t =
  { iregs = Array.copy t.iregs; fregs = Array.copy t.fregs; pc = t.pc }

(* Typed loops rather than [Array.blit]: the runtime's blit cannot tell an
   int array from a pointer array and pays a write barrier per element
   when the target lives in the major heap, as checkpoint slots do. *)
let restore t ~from_ =
  for r = 0 to Array.length t.iregs - 1 do
    Array.unsafe_set t.iregs r (Array.unsafe_get from_.iregs r)
  done;
  for r = 0 to Array.length t.fregs - 1 do
    Array.unsafe_set t.fregs r (Array.unsafe_get from_.fregs r)
  done;
  t.pc <- from_.pc

let equal a b =
  a.pc = b.pc && a.iregs = b.iregs
  && Array.for_all2 (fun (x : float) y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.fregs b.fregs
