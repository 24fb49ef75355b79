type load_rec = { l_addr : int; l_width : int }
type store_rec = { s_addr : int; s_width : int }

type control =
  | Cond of {
      pc : int;
      taken : bool;
      predicted_taken : bool;
      fall_through : int;
      taken_target : int;
    }
  | Indirect of { pc : int; target : int; predicted : int option }
  | Halted of { pc : int }
  | Wedged of { pc : int }

exception Fault of string

(* The processor model speculates through at most 4 conditional branches,
   but direct execution runs one control event ahead of the pipeline's
   fetch, so a few extra outstanding checkpoints are possible. *)
let max_checkpoints = 8

(* A wrong path that executes this many instructions without reaching a
   control event can never be fetched that deep by a 32-entry pipeline;
   treat it as a fetch stall (wedge) to bound wrong-path execution. *)
let wrong_path_step_limit = 10_000

(* Architectural straight-line runs between control events are bounded too:
   exceeding this means an infinite loop of direct jumps (a broken test
   program), which would otherwise spin forever inside event production. *)
let straight_line_step_limit = 50_000_000

(* ---- lQ/sQ rings ------------------------------------------------------ *)

module Seq_queue = struct
  (* Entries live unboxed in a power-of-two int ring; a slot's contents
     outside [head, tail) are dead and never read. *)
  type t = {
    mutable buf : int array;
    mutable head : int;  (* absolute seq of next pop *)
    mutable tail : int;  (* absolute seq of next push *)
  }

  let create () = { buf = Array.make 64 0; head = 0; tail = 0 }

  let slot t seq = seq land (Array.length t.buf - 1)

  let grow t =
    let n = Array.length t.buf in
    let buf' = Array.make (2 * n) 0 in
    for seq = t.head to t.tail - 1 do
      buf'.(seq land ((2 * n) - 1)) <- t.buf.(seq land (n - 1))
    done;
    t.buf <- buf'

  let push t x =
    if t.tail - t.head >= Array.length t.buf then grow t;
    Array.unsafe_set t.buf (slot t t.tail) x;
    t.tail <- t.tail + 1

  let pop t =
    if t.head >= t.tail then invalid_arg "Seq_queue.pop: empty";
    let x = Array.unsafe_get t.buf (slot t t.head) in
    t.head <- t.head + 1;
    x

  let peek t = if t.head >= t.tail then None else Some t.buf.(slot t t.head)

  let length t = t.tail - t.head
  let head_seq t = t.head
  let tail_seq t = t.tail

  let truncate_to t seq = t.tail <- (if seq > t.head then seq else t.head)

  let last t =
    if t.tail <= t.head then invalid_arg "Seq_queue.last: empty";
    t.buf.(slot t (t.tail - 1))

  let iter f t =
    for s = t.head to t.tail - 1 do
      f t.buf.(slot t s)
    done
end

(* ---- the pre-decoded program ---------------------------------------- *)

(* Each instruction of [Isa.Program.code] is decoded once, when the
   emulator is created, into an opcode that names its exact operation
   (ALU function, access width, branch condition) and three int operands
   in a flat array. Branch and jump targets become instruction indices,
   [Lui] immediates are pre-shifted, and instructions that only write r0
   (and have no other effect) become [Nop], so the interpreter's register
   writes need no r0 test. Index [n] holds an [Off_code] sentinel, so
   falling off the end of the code segment needs no bounds check. *)
module Decoded = struct
  type op =
    | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu
    | Addi | Subi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltui
    | Lui | Mul | Div | Rem
    | Lb | Lbu | Lh | Lhu | Lw | Fld
    | Sb | Sh | Sw | Fst
    | Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fneg | Fabs
    | Feq | Flt | Fle | Fcvt_if | Fcvt_fi
    | Beq | Bne | Blt | Bge | Ble | Bgt
    | Jump | Jal | Jr | Jalr
    | Nop | Halt
    | Off_code

  (* Operands of instruction [i] are [args.(3i)], [args.(3i+1)] and
     [args.(3i+2)]:
     - ALU, mul/div, FP ops, compares, conversions: dest, src1, src2/imm;
     - loads: dest, base, offset; stores: source, base, offset;
     - branches: src1, src2, target index; [Jump]/[Jal]: link, -, target
       index; [Jr]/[Jalr]: link, source, -.
     [blk.(i)] counts the instructions from [i] to the end of its basic
     block, inclusive: the next branch, jump, [Halt] or the sentinel. *)
  type t = {
    ops : op array;
    args : int array;
    blk : int array;
    base : int;  (* byte address of instruction 0 *)
    n : int;     (* number of real instructions; [ops.(n)] is the sentinel *)
  }

  let ends_block = function
    | Beq | Bne | Blt | Bge | Ble | Bgt | Jump | Jal | Jr | Jalr | Halt
    | Off_code ->
      true
    | _ -> false

  let of_program (p : Isa.Program.t) =
    let module I = Isa.Instr in
    let n = Array.length p.code in
    let base = p.code_base in
    let ops = Array.make (n + 1) Off_code in
    let args = Array.make (3 * (n + 1)) 0 in
    let set i op a b c =
      ops.(i) <- op;
      args.(3 * i) <- a;
      args.((3 * i) + 1) <- b;
      args.((3 * i) + 2) <- c
    in
    let alu (op : I.alu_op) ~imm =
      match op with
      | Add -> if imm then Addi else Add
      | Sub -> if imm then Subi else Sub
      | And -> if imm then Andi else And
      | Or -> if imm then Ori else Or
      | Xor -> if imm then Xori else Xor
      | Sll -> if imm then Slli else Sll
      | Srl -> if imm then Srli else Srl
      | Sra -> if imm then Srai else Sra
      | Slt -> if imm then Slti else Slt
      | Sltu -> if imm then Sltui else Sltu
    in
    let word_index addr = (addr - base) asr 2 in
    let zero = Isa.Reg.zero in
    Array.iteri
      (fun i (insn : I.t) ->
        match insn with
        | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _)
        | Mul (rd, _, _) | Div (rd, _, _) | Rem (rd, _, _)
        | Fcmp (_, rd, _, _) | Fcvt_fi (rd, _)
          when rd = zero ->
          set i Nop 0 0 0
        | Alu (op, rd, rs1, rs2) -> set i (alu op ~imm:false) rd rs1 rs2
        | Alui (op, rd, rs1, imm) -> set i (alu op ~imm:true) rd rs1 imm
        | Lui (rd, imm) -> set i Lui rd 0 (Arch_state.norm32 (imm lsl 16))
        | Mul (rd, rs1, rs2) -> set i Mul rd rs1 rs2
        | Div (rd, rs1, rs2) -> set i Div rd rs1 rs2
        | Rem (rd, rs1, rs2) -> set i Rem rd rs1 rs2
        | Load (w, rd, base, off) ->
          let op = match w with Lb -> Lb | Lbu -> Lbu | Lh -> Lh | Lhu -> Lhu | Lw -> Lw in
          set i op rd base off
        | Store (w, rs, base, off) ->
          let op = match w with Sb -> Sb | Sh -> Sh | Sw -> Sw in
          set i op rs base off
        | Fload (fd, base, off) -> set i Fld fd base off
        | Fstore (fs, base, off) -> set i Fst fs base off
        | Fop (op, fd, fs1, fs2) ->
          let op =
            match op with
            | Fadd -> Fadd | Fsub -> Fsub | Fmul -> Fmul | Fdiv -> Fdiv
            | Fsqrt -> Fsqrt | Fneg -> Fneg | Fabs -> Fabs
          in
          set i op fd fs1 fs2
        | Fcmp (op, rd, fs1, fs2) ->
          let op = match op with Feq -> Feq | Flt -> Flt | Fle -> Fle in
          set i op rd fs1 fs2
        | Fcvt_if (fd, rs) -> set i Fcvt_if fd rs 0
        | Fcvt_fi (rd, fs) -> set i Fcvt_fi rd fs 0
        | Branch (c, rs1, rs2, off) ->
          let op =
            match c with
            | Eq -> Beq | Ne -> Bne | Lt -> Blt | Ge -> Bge | Le -> Ble
            | Gt -> Bgt
          in
          set i op rs1 rs2 (i + 1 + off)
        | Jump target -> set i Jump 0 0 (word_index (target * 4))
        | Jal (rd, target) -> set i Jal rd 0 (word_index (target * 4))
        | Jr rs -> set i Jr 0 rs 0
        | Jalr (rd, rs) -> set i Jalr rd rs 0
        | Nop -> set i Nop 0 0 0
        | Halt -> set i Halt 0 0 0)
      p.code;
    let blk = Array.make (n + 1) 1 in
    for i = n - 1 downto 0 do
      if not (ends_block ops.(i)) then blk.(i) <- blk.(i + 1) + 1
    done;
    { ops; args; blk; base; n }
end

(* ---- emulator state ---------------------------------------------------- *)

(* Architectural observation hooks for functional warming (the sampled
   strategy engine, docs/STRATEGY.md): fired by the interpreter as
   instructions execute, so a fast-forwarding pass can keep cache and
   branch-predictor models warm without any timing simulation. *)
type warm_hooks = {
  wh_load : addr:int -> width:int -> unit;
  wh_store : addr:int -> width:int -> unit;
  wh_cond : pc:int -> taken:bool -> unit;
  wh_indirect : pc:int -> target:int -> unit;
  wh_call : pc:int -> return_to:int -> unit;
}

(* A control event held unboxed in the emulator's own fields: storing a
   freshly allocated [control] in a long-lived record would cost a write
   barrier on every event. [Ev_none]: the run stopped on its budget. *)
type ev_kind = Ev_none | Ev_cond | Ev_indirect | Ev_halted | Ev_wedged

(* lQ/sQ entries are packed into one int: address above, width below. *)
let pack addr width = (addr lsl 4) lor width

(* The undo log holds one entry per speculative store, [undo_stride] ints
   each: address, width, and the overwritten bytes as two 32-bit halves. *)
let undo_stride = 4

type t = {
  (* the decoded program (see [Decoded.t]) *)
  ops : Decoded.op array;
  args : int array;
  blk : int array;
  base : int;
  ncode : int;
  mem : Memory.t;
  tlb : Memory.tlb;  (* [mem]'s *)
  st : Arch_state.t;
  regs : int array;  (* [st]'s register files *)
  fregs : float array;
  pred : Predictor.t;
  recording : bool;
  lq : Seq_queue.t;
  sq : Seq_queue.t;
  mutable undo : int array;
  mutable undo_len : int;  (* entries *)
  (* The bQ: misprediction checkpoints, oldest at index 0. Slot [k]'s
     registers (pc = corrected resume target), undo mark, lQ/sQ tails and
     instruction count. *)
  ck_regs : Arch_state.t array;
  ck_undo : int array;
  ck_lq : int array;
  ck_sq : int array;
  ck_insts : int array;
  mutable n_ck : int;
  mutable insts : int;
  mutable wp_insts : int;
  mutable halted_f : bool;
  mutable wedged_f : bool;
  (* One-event read-ahead: direct execution always runs one control event
     past the last one handed to the µ-architecture, so every load/store on
     straight-line code the pipeline can fetch is already in lQ/sQ. Off for
     per-instruction (step_one) clients. *)
  mutable read_ahead : bool;
  (* The last event [exec] stopped at; with [read_ahead], the pending one.
     [ev_target] is a Cond's taken target or an Indirect's target. *)
  mutable has_pending : bool;
  mutable ev : ev_kind;
  mutable ev_pc : int;
  mutable ev_taken : bool;
  mutable ev_predicted_taken : bool;
  mutable ev_target : int;
  mutable ev_has_predicted : bool;  (* an Indirect's predicted target *)
  mutable ev_predicted : int;
  mutable hooks : warm_hooks option;
}

let make ~recording ?(predictor = Predictor.always_not_taken) ~mem ~st prog =
  let { Decoded.ops; args; blk; base; n } = Decoded.of_program prog in
  { ops;
    args;
    blk;
    base;
    ncode = n;
    mem;
    tlb = Memory.tlb mem;
    st;
    regs = st.Arch_state.iregs;
    fregs = st.fregs;
    pred = predictor;
    recording;
    lq = Seq_queue.create ();
    sq = Seq_queue.create ();
    undo = Array.make (256 * undo_stride) 0;
    undo_len = 0;
    ck_regs = Array.init max_checkpoints (fun _ -> Arch_state.create ());
    ck_undo = Array.make max_checkpoints 0;
    ck_lq = Array.make max_checkpoints 0;
    ck_sq = Array.make max_checkpoints 0;
    ck_insts = Array.make max_checkpoints 0;
    n_ck = 0;
    insts = 0;
    wp_insts = 0;
    halted_f = false;
    wedged_f = false;
    read_ahead = false;
    has_pending = false;
    ev = Ev_none;
    ev_pc = 0;
    ev_taken = false;
    ev_predicted_taken = false;
    ev_target = 0;
    ev_has_predicted = false;
    ev_predicted = 0;
    hooks = None }

let create_gen ~recording ?predictor prog =
  let mem = Memory.create () in
  Memory.load_program mem prog;
  make ~recording ?predictor ~mem
    ~st:(Arch_state.create ~pc:prog.Isa.Program.entry ())
    prog

let speculative t = t.n_ck > 0

let push_undo t addr width lo hi =
  let k = t.undo_len * undo_stride in
  if k >= Array.length t.undo then begin
    let arr = Array.make (2 * Array.length t.undo) 0 in
    Array.blit t.undo 0 arr 0 k;
    t.undo <- arr
  end;
  let u = t.undo in
  Array.unsafe_set u k addr;
  Array.unsafe_set u (k + 1) width;
  Array.unsafe_set u (k + 2) lo;
  Array.unsafe_set u (k + 3) hi;
  t.undo_len <- t.undo_len + 1

let apply_undo t mark =
  for e = t.undo_len - 1 downto mark do
    let k = e * undo_stride in
    let addr = t.undo.(k) and lo = t.undo.(k + 2) in
    let p = Memory.page t.mem addr and o = addr land 0xfff in
    match t.undo.(k + 1) with
    | 1 -> Bytes.set_uint8 p o lo
    | 2 -> Bytes.set_uint16_le p o lo
    | 4 -> Bytes.set_int32_le p o (Int32.of_int lo)
    | 8 ->
      Bytes.set_int32_le p o (Int32.of_int lo);
      Bytes.set_int32_le p (o + 4) (Int32.of_int t.undo.(k + 3))
    | _ -> assert false
  done;
  t.undo_len <- mark

let push_checkpoint t ~resume =
  assert (t.n_ck < max_checkpoints);
  let k = t.n_ck in
  let regs = t.ck_regs.(k) in
  Arch_state.restore regs ~from_:t.st;
  regs.pc <- resume;
  t.ck_undo.(k) <- t.undo_len;
  t.ck_lq.(k) <- Seq_queue.tail_seq t.lq;
  t.ck_sq.(k) <- Seq_queue.tail_seq t.sq;
  t.ck_insts.(k) <- t.insts;
  t.n_ck <- k + 1

let[@inline] norm32 v = (v lsl 31) asr 31
let[@inline] u32 v = v land 0xffffffff

let[@inline] fcvt_to_int v =
  if Float.is_nan v then 0
  else if v >= 2147483647.0 then 0x7fffffff
  else if v <= -2147483648.0 then -0x80000000
  else int_of_float (Float.trunc v)

(* Operand access for the interpreter: [args.(k)] names a register. r0 is
   never written (see [Decoded]), so it always reads as zero. *)
let[@inline] arg t k = Array.unsafe_get t.args k
let[@inline] ri t k = Array.unsafe_get t.regs (arg t k)
let[@inline] wi t k v = Array.unsafe_set t.regs (arg t k) (norm32 v)
let[@inline] rf t k = Array.unsafe_get t.fregs (arg t k)
let[@inline] wf t k v = Array.unsafe_set t.fregs (arg t k) v

(* The effective address of the load or store at [k]. *)
let[@inline] ea t k = u32 (ri t (k + 1) + arg t (k + 2))

(* [Memory.page] with the TLB hit path inlined. *)
let[@inline] page t addr =
  let key = addr lsr Memory.page_bits in
  let slot = key land (Memory.tlb_size - 1) in
  if Array.unsafe_get t.tlb.keys slot = key then
    Array.unsafe_get t.tlb.slots slot
  else Memory.page_miss t.mem addr

(* Records a load or store that executed: lQ/sQ entry and warming hook. *)
let[@inline] loaded t addr width =
  if t.recording then Seq_queue.push t.lq (pack addr width);
  match t.hooks with Some h -> h.wh_load ~addr ~width | None -> ()

let[@inline] stored t addr width =
  if t.recording then Seq_queue.push t.sq (pack addr width);
  match t.hooks with Some h -> h.wh_store ~addr ~width | None -> ()

let stop_at t pc =
  t.st.pc <- pc;
  Ev_none

let wedge t pc =
  t.wedged_f <- true;
  t.ev_pc <- pc;
  Ev_wedged

let fetch_fault t pc =
  t.st.pc <- pc;
  if speculative t then wedge t pc
  else raise (Fault (Printf.sprintf "fetch outside code segment at 0x%x" pc))

(* A misaligned access by the instruction at [i]: it counts as executed,
   but does not complete. *)
let mem_fault t i last ~width ~addr kind =
  t.insts <- t.insts - (last - i);
  let pc = t.base + (4 * i) in
  if speculative t then begin
    t.st.pc <- pc + 4;
    wedge t pc
  end
  else begin
    t.st.pc <- pc;
    raise
      (Fault
         (Printf.sprintf "misaligned %d-byte %s at 0x%x (pc 0x%x)" width kind
            addr pc))
  end

(* ---- the interpreter ------------------------------------------------- *)

(* [exec t budget] executes from [t.st.pc] until a control event or until
   [budget] instructions have run, and returns the kind of event (its
   details are left in the [ev_*] fields), or [Ev_none] when the budget
   ran out; [t.st.pc] is then the next PC to execute. Conditional
   branches and indirect jumps are events only when recording; [Halt], a
   fetch outside the code segment and a misaligned access always end the
   run (the last two raise [Fault] off the speculative path).

   The loop keeps the PC as an instruction index [i] and allocates
   nothing. The budget is charged once per basic
   block, on entry: [enter t j b] charges [blk.(j)] instructions to [b]
   and to [t.insts] and runs to index [last], the end of the block. When
   less than a block's worth of budget is left, [last] is where the budget
   runs out instead, so the stop is exact to the instruction. An early
   exit inside a block (a faulting access, [Halt], the sentinel) refunds
   the uncharged tail. *)
let rec enter t j b =
  if b <= 0 then stop_at t (t.base + (4 * j))
  else if j < 0 || j >= t.ncode then fetch_fault t (t.base + (4 * j))
  else begin
    let l = Array.unsafe_get t.blk j in
    let l = if l <= b then l else b in
    t.insts <- t.insts + l;
    go t j (j + l - 1) (b - l)
  end

and enter_pc t pc b =
  if b <= 0 then stop_at t pc
  else if pc land 3 <> 0 then fetch_fault t pc
  else enter t ((pc - t.base) asr 2) b

and branch t i b taken =
  let pc = t.base + (4 * i) in
  let target = arg t ((3 * i) + 2) in
  (match t.hooks with Some h -> h.wh_cond ~pc ~taken | None -> ());
  if t.recording then begin
    let predicted_taken = t.pred.predict_cond ~pc in
    t.pred.train_cond ~pc ~taken;
    let taken_target = t.base + (4 * target) in
    if predicted_taken <> taken then
      push_checkpoint t ~resume:(if taken then taken_target else pc + 4);
    t.st.pc <- (if predicted_taken then taken_target else pc + 4);
    t.ev_pc <- pc;
    t.ev_taken <- taken;
    t.ev_predicted_taken <- predicted_taken;
    t.ev_target <- taken_target;
    Ev_cond
  end
  else enter t (if taken then target else i + 1) b

and indirect t i b ~link =
  let k = 3 * i in
  let pc = t.base + (4 * i) in
  let target = u32 (ri t (k + 1)) in
  if link && arg t k <> 0 then wi t k (pc + 4);
  (match t.hooks with
   | Some h ->
     h.wh_indirect ~pc ~target;
     if link then h.wh_call ~pc ~return_to:(pc + 4)
   | None -> ());
  if t.recording then begin
    (match t.pred.predict_indirect ~pc with
     | Some p ->
       t.ev_has_predicted <- true;
       t.ev_predicted <- p
     | None -> t.ev_has_predicted <- false);
    t.pred.train_indirect ~pc ~target;
    if link then t.pred.note_call ~pc ~return_to:(pc + 4);
    t.st.pc <- target;
    t.ev_pc <- pc;
    t.ev_target <- target;
    Ev_indirect
  end
  else enter_pc t target b

and go t i last b =
  if i > last then stop_at t (t.base + (4 * i))
  else
    let k = 3 * i in
    match Array.unsafe_get t.ops i with
    | Add -> wi t k (ri t (k + 1) + ri t (k + 2)); go t (i + 1) last b
    | Sub -> wi t k (ri t (k + 1) - ri t (k + 2)); go t (i + 1) last b
    | And -> wi t k (u32 (ri t (k + 1)) land u32 (ri t (k + 2))); go t (i + 1) last b
    | Or -> wi t k (u32 (ri t (k + 1)) lor u32 (ri t (k + 2))); go t (i + 1) last b
    | Xor -> wi t k (u32 (ri t (k + 1)) lxor u32 (ri t (k + 2))); go t (i + 1) last b
    | Sll -> wi t k (u32 (ri t (k + 1)) lsl (ri t (k + 2) land 31)); go t (i + 1) last b
    | Srl -> wi t k (u32 (ri t (k + 1)) lsr (ri t (k + 2) land 31)); go t (i + 1) last b
    | Sra -> wi t k (ri t (k + 1) asr (ri t (k + 2) land 31)); go t (i + 1) last b
    | Slt -> wi t k (if ri t (k + 1) < ri t (k + 2) then 1 else 0); go t (i + 1) last b
    | Sltu ->
      wi t k (if u32 (ri t (k + 1)) < u32 (ri t (k + 2)) then 1 else 0);
      go t (i + 1) last b
    | Addi -> wi t k (ri t (k + 1) + arg t (k + 2)); go t (i + 1) last b
    | Subi -> wi t k (ri t (k + 1) - arg t (k + 2)); go t (i + 1) last b
    | Andi -> wi t k (u32 (ri t (k + 1)) land arg t (k + 2)); go t (i + 1) last b
    | Ori -> wi t k (u32 (ri t (k + 1)) lor arg t (k + 2)); go t (i + 1) last b
    | Xori -> wi t k (u32 (ri t (k + 1)) lxor arg t (k + 2)); go t (i + 1) last b
    | Slli -> wi t k (u32 (ri t (k + 1)) lsl arg t (k + 2)); go t (i + 1) last b
    | Srli -> wi t k (u32 (ri t (k + 1)) lsr arg t (k + 2)); go t (i + 1) last b
    | Srai -> wi t k (ri t (k + 1) asr arg t (k + 2)); go t (i + 1) last b
    | Slti -> wi t k (if ri t (k + 1) < arg t (k + 2) then 1 else 0); go t (i + 1) last b
    | Sltui ->
      wi t k (if u32 (ri t (k + 1)) < u32 (arg t (k + 2)) then 1 else 0);
      go t (i + 1) last b
    | Lui -> wi t k (arg t (k + 2)); go t (i + 1) last b
    | Mul -> wi t k (ri t (k + 1) * ri t (k + 2)); go t (i + 1) last b
    | Div ->
      let y = ri t (k + 2) in
      wi t k (if y = 0 then 0 else ri t (k + 1) / y);
      go t (i + 1) last b
    | Rem ->
      let y = ri t (k + 2) in
      wi t k (if y = 0 then ri t (k + 1) else ri t (k + 1) mod y);
      go t (i + 1) last b
    | Lb ->
      let addr = ea t k in
      let v = Bytes.get_int8 (page t addr) (addr land 0xfff) in
      loaded t addr 1;
      if arg t k <> 0 then wi t k v;
      go t (i + 1) last b
    | Lbu ->
      let addr = ea t k in
      let v = Bytes.get_uint8 (page t addr) (addr land 0xfff) in
      loaded t addr 1;
      if arg t k <> 0 then wi t k v;
      go t (i + 1) last b
    | Lh ->
      let addr = ea t k in
      if addr land 1 <> 0 then mem_fault t i last ~width:2 ~addr "load"
      else begin
        let v = Bytes.get_int16_le (page t addr) (addr land 0xfff) in
        loaded t addr 2;
        if arg t k <> 0 then wi t k v;
        go t (i + 1) last b
      end
    | Lhu ->
      let addr = ea t k in
      if addr land 1 <> 0 then mem_fault t i last ~width:2 ~addr "load"
      else begin
        let v = Bytes.get_uint16_le (page t addr) (addr land 0xfff) in
        loaded t addr 2;
        if arg t k <> 0 then wi t k v;
        go t (i + 1) last b
      end
    | Lw ->
      let addr = ea t k in
      if addr land 3 <> 0 then mem_fault t i last ~width:4 ~addr "load"
      else begin
        let v = Int32.to_int (Bytes.get_int32_le (page t addr) (addr land 0xfff)) in
        loaded t addr 4;
        if arg t k <> 0 then wi t k v;
        go t (i + 1) last b
      end
    | Fld ->
      let addr = ea t k in
      if addr land 7 <> 0 then mem_fault t i last ~width:8 ~addr "load"
      else begin
        let v =
          Int64.float_of_bits (Bytes.get_int64_le (page t addr) (addr land 0xfff))
        in
        loaded t addr 8;
        wf t k v;
        go t (i + 1) last b
      end
    | Sb ->
      let addr = ea t k in
      let p = page t addr and o = addr land 0xfff in
      if speculative t then push_undo t addr 1 (Bytes.get_uint8 p o) 0;
      Bytes.set_uint8 p o (ri t k land 0xff);
      stored t addr 1;
      go t (i + 1) last b
    | Sh ->
      let addr = ea t k in
      if addr land 1 <> 0 then mem_fault t i last ~width:2 ~addr "store"
      else begin
        let p = page t addr and o = addr land 0xfff in
        if speculative t then push_undo t addr 2 (Bytes.get_uint16_le p o) 0;
        Bytes.set_uint16_le p o (ri t k land 0xffff);
        stored t addr 2;
        go t (i + 1) last b
      end
    | Sw ->
      let addr = ea t k in
      if addr land 3 <> 0 then mem_fault t i last ~width:4 ~addr "store"
      else begin
        let p = page t addr and o = addr land 0xfff in
        if speculative t then
          push_undo t addr 4 (u32 (Int32.to_int (Bytes.get_int32_le p o))) 0;
        Bytes.set_int32_le p o (Int32.of_int (ri t k));
        stored t addr 4;
        go t (i + 1) last b
      end
    | Fst ->
      let addr = ea t k in
      if addr land 7 <> 0 then mem_fault t i last ~width:8 ~addr "store"
      else begin
        let p = page t addr and o = addr land 0xfff in
        if speculative t then
          push_undo t addr 8
            (u32 (Int32.to_int (Bytes.get_int32_le p o)))
            (u32 (Int32.to_int (Bytes.get_int32_le p (o + 4))));
        Bytes.set_int64_le p o (Int64.bits_of_float (rf t k));
        stored t addr 8;
        go t (i + 1) last b
      end
    | Fadd -> wf t k (rf t (k + 1) +. rf t (k + 2)); go t (i + 1) last b
    | Fsub -> wf t k (rf t (k + 1) -. rf t (k + 2)); go t (i + 1) last b
    | Fmul -> wf t k (rf t (k + 1) *. rf t (k + 2)); go t (i + 1) last b
    | Fdiv -> wf t k (rf t (k + 1) /. rf t (k + 2)); go t (i + 1) last b
    | Fsqrt -> wf t k (Float.sqrt (rf t (k + 1))); go t (i + 1) last b
    | Fneg -> wf t k (-.rf t (k + 1)); go t (i + 1) last b
    | Fabs -> wf t k (Float.abs (rf t (k + 1))); go t (i + 1) last b
    | Feq -> wi t k (if rf t (k + 1) = rf t (k + 2) then 1 else 0); go t (i + 1) last b
    | Flt -> wi t k (if rf t (k + 1) < rf t (k + 2) then 1 else 0); go t (i + 1) last b
    | Fle -> wi t k (if rf t (k + 1) <= rf t (k + 2) then 1 else 0); go t (i + 1) last b
    | Fcvt_if -> wf t k (float_of_int (ri t (k + 1))); go t (i + 1) last b
    | Fcvt_fi -> wi t k (fcvt_to_int (rf t (k + 1))); go t (i + 1) last b
    | Beq -> branch t i b (ri t k = ri t (k + 1))
    | Bne -> branch t i b (ri t k <> ri t (k + 1))
    | Blt -> branch t i b (ri t k < ri t (k + 1))
    | Bge -> branch t i b (ri t k >= ri t (k + 1))
    | Ble -> branch t i b (ri t k <= ri t (k + 1))
    | Bgt -> branch t i b (ri t k > ri t (k + 1))
    | Jump -> enter t (arg t (k + 2)) b
    | Jal ->
      let pc = t.base + (4 * i) in
      if arg t k <> 0 then wi t k (pc + 4);
      if t.recording then t.pred.note_call ~pc ~return_to:(pc + 4);
      (match t.hooks with
       | Some h -> h.wh_call ~pc ~return_to:(pc + 4)
       | None -> ());
      enter t (arg t (k + 2)) b
    | Jr -> indirect t i b ~link:false
    | Jalr -> indirect t i b ~link:true
    | Nop -> go t (i + 1) last b
    | Halt ->
      (* [Halt] is not counted as an executed instruction. *)
      t.insts <- t.insts - (last - i + 1);
      let pc = t.base + (4 * i) in
      t.st.pc <- pc;
      if speculative t then wedge t pc
      else begin
        t.halted_f <- true;
        t.ev_pc <- pc;
        Ev_halted
      end
    | Off_code ->
      t.insts <- t.insts - (last - i + 1);
      fetch_fault t (t.base + (4 * i))

let exec t budget = enter_pc t t.st.pc budget

(* The event in the [ev_*] fields as a [control] value. *)
let event t =
  let pc = t.ev_pc in
  match t.ev with
  | Ev_cond ->
    Cond
      { pc;
        taken = t.ev_taken;
        predicted_taken = t.ev_predicted_taken;
        fall_through = pc + 4;
        taken_target = t.ev_target }
  | Ev_indirect ->
    Indirect
      { pc;
        target = t.ev_target;
        predicted = (if t.ev_has_predicted then Some t.ev_predicted else None) }
  | Ev_halted -> Halted { pc }
  | Ev_wedged | Ev_none -> Wedged { pc }

let set_event t = function
  | Cond { pc; taken; predicted_taken; fall_through = _; taken_target } ->
    t.ev <- Ev_cond;
    t.ev_pc <- pc;
    t.ev_taken <- taken;
    t.ev_predicted_taken <- predicted_taken;
    t.ev_target <- taken_target
  | Indirect { pc; target; predicted } ->
    t.ev <- Ev_indirect;
    t.ev_pc <- pc;
    t.ev_target <- target;
    t.ev_has_predicted <- predicted <> None;
    t.ev_predicted <- Option.value predicted ~default:0
  | Halted { pc } ->
    t.ev <- Ev_halted;
    t.ev_pc <- pc
  | Wedged { pc } ->
    t.ev <- Ev_wedged;
    t.ev_pc <- pc

(* Runs forward to the next control event (no read-ahead) and leaves it in
   the [ev_*] fields. *)
let produce t =
  if t.halted_f then begin
    t.ev <- Ev_halted;
    t.ev_pc <- t.st.pc
  end
  else if t.wedged_f then begin
    t.ev <- Ev_wedged;
    t.ev_pc <- t.st.pc
  end
  else begin
    let spec = speculative t in
    match
      exec t (if spec then wrong_path_step_limit else straight_line_step_limit)
    with
    | Ev_none when spec -> t.ev <- wedge t t.st.pc
    | Ev_none ->
      raise
        (Fault
           (Printf.sprintf
              "no control event within %d instructions (infinite                      direct-jump loop at 0x%x?)"
              straight_line_step_limit t.st.pc))
    | k -> t.ev <- k
  end

(* Re-establishes the one-event read-ahead. *)
let prime t =
  produce t;
  t.has_pending <- true

let create ?(read_ahead = true) ?predictor prog =
  let t = create_gen ~recording:true ?predictor prog in
  t.read_ahead <- read_ahead;
  if read_ahead then prime t;
  t

type stepped = {
  s_addr : int;
  s_event : control option;
  s_load : load_rec option;
  s_store : store_rec option;
}

let load_of v = { l_addr = v lsr 4; l_width = v land 15 }
let store_of v = { s_addr = v lsr 4; s_width = v land 15 }

let step_one t =
  if t.halted_f then
    { s_addr = t.st.pc; s_event = Some (Halted { pc = t.st.pc });
      s_load = None; s_store = None }
  else if t.wedged_f then
    { s_addr = t.st.pc; s_event = Some (Wedged { pc = t.st.pc });
      s_load = None; s_store = None }
  else begin
    let addr = t.st.pc in
    let lq_before = Seq_queue.tail_seq t.lq in
    let sq_before = Seq_queue.tail_seq t.sq in
    let k = exec t 1 in
    let s_load =
      if Seq_queue.tail_seq t.lq > lq_before then
        Some (load_of (Seq_queue.last t.lq))
      else None
    in
    let s_store =
      if Seq_queue.tail_seq t.sq > sq_before then
        Some (store_of (Seq_queue.last t.sq))
      else None
    in
    { s_addr = addr;
      s_event =
        (if k = Ev_none then None
         else begin
           t.ev <- k;
           Some (event t)
         end);
      s_load;
      s_store }
  end

let next_event t =
  (* No pending event only without read-ahead. *)
  if not t.has_pending then produce t;
  let ev = event t in
  prime t;
  ev

let outstanding t = t.n_ck

let rollback_to t ~index =
  if index < 0 || index >= t.n_ck then invalid_arg "Emulator.rollback_to";
  apply_undo t t.ck_undo.(index);
  Seq_queue.truncate_to t.lq t.ck_lq.(index);
  Seq_queue.truncate_to t.sq t.ck_sq.(index);
  Arch_state.restore t.st ~from_:t.ck_regs.(index);
  t.wp_insts <- t.wp_insts + (t.insts - t.ck_insts.(index));
  t.insts <- t.ck_insts.(index);
  t.n_ck <- index;
  t.wedged_f <- false;
  t.halted_f <- false;
  let corrected = t.st.pc in
  t.has_pending <- false;
  (* Re-establish the one-event read-ahead along the corrected path. *)
  if t.read_ahead then prime t;
  corrected

let pop_load t = load_of (Seq_queue.pop t.lq)
let pop_store t = store_of (Seq_queue.pop t.sq)
let loads_pending t = Seq_queue.length t.lq
let stores_pending t = Seq_queue.length t.sq
let halted t = t.halted_f
let wedged t = t.wedged_f
let insts_executed t = t.insts
let wrong_path_insts t = t.wp_insts
let state t = t.st
let memory t = t.mem

let run_functional ?(max_insts = max_int) prog =
  let t = create_gen ~recording:false prog in
  ignore (exec t (max_insts - t.insts) : ev_kind);
  (t.st, t.mem, t.insts)

(* ---- capture / restore (strategy engines, docs/STRATEGY.md) -------- *)

module Capture = struct
  type cap_ck = {
    k_regs : Arch_state.t;
    k_undo : int;
    k_lq : int;
    k_sq : int;
    k_insts : int;
  }

  type t = {
    c_state : Arch_state.t;
    c_pages : (int * string) array;
    c_undo : (int * int * int64) array;
    c_checkpoints : cap_ck list;
    c_lq : load_rec array;
    c_sq : store_rec array;
    c_halted : bool;
    c_wedged : bool;
    c_pending : control option;
    c_insts : int;
    c_wp_insts : int;
  }

  let canonical (c : t) : string =
    Marshal.to_string
      ( c.c_state,
        c.c_pages,
        c.c_undo,
        c.c_checkpoints,
        c.c_lq,
        c.c_sq,
        c.c_halted,
        c.c_wedged,
        c.c_pending )
      [ Marshal.No_sharing ]
end

let capture t : Capture.t =
  let q_to_array q of_int =
    let acc = ref [] in
    Seq_queue.iter (fun x -> acc := of_int x :: !acc) q;
    Array.of_list (List.rev !acc)
  in
  let lq_head = Seq_queue.head_seq t.lq in
  let sq_head = Seq_queue.head_seq t.sq in
  { Capture.c_state = Arch_state.snapshot t.st;
    c_pages = Memory.to_pages t.mem;
    c_undo =
      Array.init t.undo_len (fun e ->
          let k = e * undo_stride in
          ( t.undo.(k),
            t.undo.(k + 1),
            Int64.logor
              (Int64.of_int t.undo.(k + 2))
              (Int64.shift_left (Int64.of_int t.undo.(k + 3)) 32) ));
    c_checkpoints =
      List.init t.n_ck (fun y ->
          let k = t.n_ck - 1 - y in
          { Capture.k_regs = Arch_state.snapshot t.ck_regs.(k);
            k_undo = t.ck_undo.(k);
            k_lq = t.ck_lq.(k) - lq_head;
            k_sq = t.ck_sq.(k) - sq_head;
            k_insts = t.ck_insts.(k) - t.insts });
    c_lq = q_to_array t.lq load_of;
    c_sq = q_to_array t.sq store_of;
    c_halted = t.halted_f;
    c_wedged = t.wedged_f;
    c_pending = (if t.has_pending then Some (event t) else None);
    c_insts = t.insts;
    c_wp_insts = t.wp_insts }

let restore ?predictor prog (c : Capture.t) =
  let t =
    make ~recording:true ?predictor
      ~mem:(Memory.of_pages c.Capture.c_pages)
      ~st:(Arch_state.snapshot c.Capture.c_state)
      prog
  in
  Array.iter (fun l -> Seq_queue.push t.lq (pack l.l_addr l.l_width)) c.c_lq;
  Array.iter
    (fun (s : store_rec) -> Seq_queue.push t.sq (pack s.s_addr s.s_width))
    c.c_sq;
  Array.iter
    (fun (addr, width, pre) ->
      push_undo t addr width
        (Int64.to_int (Int64.logand pre 0xffffffffL))
        (Int64.to_int (Int64.shift_right_logical pre 32)))
    c.c_undo;
  (* youngest first in the capture, oldest first in the bQ *)
  List.iter
    (fun (k : Capture.cap_ck) ->
      let y = t.n_ck in
      Arch_state.restore t.ck_regs.(y) ~from_:k.k_regs;
      t.ck_undo.(y) <- k.k_undo;
      (* captured seqs are relative to the consumed head, which a rebuilt
         queue restarts at 0 *)
      t.ck_lq.(y) <- k.k_lq;
      t.ck_sq.(y) <- k.k_sq;
      t.ck_insts.(y) <- c.c_insts + k.k_insts;
      t.n_ck <- y + 1)
    (List.rev c.c_checkpoints);
  t.insts <- c.c_insts;
  t.wp_insts <- c.c_wp_insts;
  t.halted_f <- c.c_halted;
  t.wedged_f <- c.c_wedged;
  t.read_ahead <- true;
  (* The pending read-ahead event is restored VERBATIM — never
     re-produced. Producing it again would re-execute instructions the
     capture already executed and re-train the branch predictor on
     outcomes it was already trained on, silently corrupting later
     predictions (pinned by a regression test in test_strategy.ml). *)
  Option.iter
    (fun ev ->
      set_event t ev;
      t.has_pending <- true)
    c.c_pending;
  t

let create_at ?predictor prog ~(state : Arch_state.t) ~(mem : Memory.t)
    ~insts =
  let t =
    make ~recording:true ?predictor ~mem ~st:(Arch_state.snapshot state) prog
  in
  t.insts <- insts;
  t.read_ahead <- true;
  prime t;
  t

(* ---- functional checkpointing --------------------------------------- *)

type functional_ck = {
  f_state : Arch_state.t;
  f_mem : Memory.t;
  f_insts : int;
}

let run_functional_checkpoints ?(max_insts = max_int) ?on_inst ?hooks prog
    ~at =
  let t = create_gen ~recording:false prog in
  t.hooks <- hooks;
  let cks = ref [] in
  let remaining = ref (List.sort_uniq compare at) in
  let take () =
    match !remaining with
    | n :: rest when t.insts >= n ->
      remaining := rest;
      cks :=
        { f_state = Arch_state.snapshot t.st;
          f_mem = Memory.copy t.mem;
          f_insts = t.insts }
        :: !cks
    | _ -> ()
  in
  take ();
  (* Run to the next checkpoint in one go, or one instruction at a time
     when [on_inst] must see every PC. *)
  let rec loop () =
    if t.halted_f || t.insts >= max_insts then ()
    else begin
      let budget =
        match on_inst, !remaining with
        | Some f, _ ->
          f ~pc:t.st.pc;
          1
        | None, n :: _ -> min (max 1 (n - t.insts)) (max_insts - t.insts)
        | None, [] -> max_insts - t.insts
      in
      ignore (exec t budget : ev_kind);
      take ();
      loop ()
    end
  in
  loop ();
  (List.rev !cks, Arch_state.snapshot t.st, t.insts, t.halted_f)
