type stage =
  | Fetched
  | Queued
  | Exec of int
  | Wait_cache of int
  | Done

let st_fetched = 0
let st_queued = 1
let st_exec = 2
let st_wait = 3
let st_done = 4

type entry = {
  addr : int;
  insn : Isa.Instr.t;
  fu : Isa.Instr.fu_class;
  srcs : Isa.Instr.dest array;
  dst : Isa.Instr.dest option;
  mutable st : int;
  mutable counter : int;
  mutable taken : bool;
  mutable mispredicted : bool;
  mutable ind_target : int;
  mutable ind_stall : bool;
  (* Rename-stage bookkeeping (Rename). Derived deterministically from the
     rest of the iQ on restore, so it is NOT part of the snapshot. *)
  mutable new_phys : int;
  mutable old_phys : int;
  mutable shadow_slot : int;
}

let stage e =
  if e.st = st_fetched then Fetched
  else if e.st = st_queued then Queued
  else if e.st = st_exec then Exec e.counter
  else if e.st = st_wait then Wait_cache e.counter
  else Done

let set_stage e = function
  | Fetched ->
    e.st <- st_fetched;
    e.counter <- 0
  | Queued ->
    e.st <- st_queued;
    e.counter <- 0
  | Exec n ->
    e.st <- st_exec;
    e.counter <- n
  | Wait_cache n ->
    e.st <- st_wait;
    e.counter <- n
  | Done ->
    e.st <- st_done;
    e.counter <- 0

type fetch_state =
  | F_run of int
  | F_stall_indirect
  | F_stall_wedged
  | F_halted

type t = {
  buf : entry option array;  (* power-of-two sized ring *)
  mask : int;
  cap : int;                 (* logical capacity *)
  mutable head : int;
  mutable count : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Pipeline.create";
  let n = ref 1 in
  while !n < capacity do
    n := !n * 2
  done;
  { buf = Array.make !n None; mask = !n - 1; cap = capacity; head = 0;
    count = 0 }

let capacity t = t.cap
let length t = t.count
let is_full t = t.count = t.cap
let is_empty t = t.count = 0

(* Issue-readiness operands. Stores enter the address queue as soon as
   their BASE register is ready (the R10000 computes store addresses
   independently of store data; data reaches the cache at retirement,
   which in-order retire already sequences after the producer). *)
let issue_srcs insn =
  match insn with
  | Isa.Instr.Store (_, _, base, _) | Isa.Instr.Fstore (_, base, _) ->
    if base = Isa.Reg.zero then [||] else [| Isa.Instr.Dint base |]
  | _ -> Array.of_list (Isa.Instr.sources insn)

let make_entry addr insn ~fu ~srcs ~dst =
  { addr;
    insn;
    fu;
    srcs;
    dst;
    st = st_fetched;
    counter = 0;
    taken = false;
    mispredicted = false;
    ind_target = -1;
    ind_stall = false;
    new_phys = -1;
    old_phys = -1;
    shadow_slot = -1 }

let entry_of_addr prog addr =
  let insn = Isa.Program.fetch prog addr in
  make_entry addr insn ~fu:(Isa.Instr.fu_class insn) ~srcs:(issue_srcs insn)
    ~dst:(Isa.Instr.dest insn)

(* The static operands of every instruction, computed once per program
   and shared (immutably) by every entry fetched from it. *)
type decoded = {
  d_base : int;
  d_insn : Isa.Instr.t array;
  d_fu : Isa.Instr.fu_class array;
  d_srcs : Isa.Instr.dest array array;
  d_dst : Isa.Instr.dest option array;
  d_ctl : Isa.Instr.control array;
  d_target : int array;  (* conditional branches: taken target; else -1 *)
}

let decode_program (prog : Isa.Program.t) =
  let code = prog.Isa.Program.code in
  let base = prog.Isa.Program.code_base in
  { d_base = base;
    d_insn = code;
    d_fu = Array.map Isa.Instr.fu_class code;
    d_srcs = Array.map issue_srcs code;
    d_dst = Array.map Isa.Instr.dest code;
    d_ctl = Array.map Isa.Instr.control code;
    d_target =
      Array.mapi
        (fun i insn ->
          match Isa.Instr.branch_targets insn ~pc:(base + (4 * i)) with
          | Some (_, target) -> target
          | None -> -1)
        code }

let decoded_index d addr =
  let i = (addr - d.d_base) asr 2 in
  if addr land 3 = 0 && addr >= d.d_base && i < Array.length d.d_insn then i
  else -1

let decoded_control d i = d.d_ctl.(i)
let decoded_target d i = d.d_target.(i)

let entry_at d i addr =
  make_entry addr d.d_insn.(i) ~fu:d.d_fu.(i) ~srcs:d.d_srcs.(i)
    ~dst:d.d_dst.(i)

let entry_of_decoded d addr =
  let i = decoded_index d addr in
  if i < 0 then raise (Isa.Program.Fault addr) else entry_at d i addr

let slot t i = (t.head + i) land t.mask

let push t e =
  if is_full t then invalid_arg "Pipeline.push: full";
  t.buf.(slot t t.count) <- Some e;
  t.count <- t.count + 1

let pop t =
  if is_empty t then invalid_arg "Pipeline.pop: empty";
  let i = t.head land t.mask in
  match t.buf.(i) with
  | None -> assert false
  | Some e ->
    t.buf.(i) <- None;
    t.head <- (t.head + 1) land t.mask;
    t.count <- t.count - 1;
    e

let peek t = if is_empty t then None else t.buf.(t.head land t.mask)

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Pipeline.get";
  match t.buf.(slot t i) with Some e -> e | None -> assert false

let unsafe_get t i =
  match Array.unsafe_get t.buf ((t.head + i) land t.mask) with
  | Some e -> e
  | None -> assert false

let truncate t n =
  if n < 0 || n > t.count then invalid_arg "Pipeline.truncate";
  for i = n to t.count - 1 do
    t.buf.(slot t i) <- None
  done;
  t.count <- n

let iteri f t =
  for i = 0 to t.count - 1 do
    match t.buf.(slot t i) with Some e -> f i e | None -> assert false
  done

let successor e =
  match Isa.Instr.control e.insn with
  | Ctl_none -> Some (e.addr + 4)
  | Ctl_cond -> (
    (* Younger entries lie on the FETCHED path: the predicted direction
       while a misprediction is pending, the actual direction once it has
       been repaired (the wrong-path suffix is squashed at resolution). *)
    let direction = if e.mispredicted then not e.taken else e.taken in
    match Isa.Instr.branch_targets e.insn ~pc:e.addr with
    | Some (fall, target) -> Some (if direction then target else fall)
    | None -> assert false)
  | Ctl_direct target -> Some target
  | Ctl_indirect -> if e.ind_target >= 0 then Some e.ind_target else None
  | Ctl_halt -> None
