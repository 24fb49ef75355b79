(* The closure-based interpreter the emulator had before it was rewritten
   over a pre-decoded program, kept verbatim (apart from re-exporting
   the public types and carrying its own polymorphic queue) as the
   reference the equivalence tests hold the fast core to. Not for use
   outside tests: it allocates on every instruction. *)

open Emu

module Seq_queue = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int;  (* absolute seq of next pop *)
    mutable tail : int;  (* absolute seq of next push *)
  }

  let create () = { buf = Array.make 64 None; head = 0; tail = 0 }

  let slot t seq = seq land (Array.length t.buf - 1)

  let grow t =
    let n = Array.length t.buf in
    let buf' = Array.make (2 * n) None in
    for seq = t.head to t.tail - 1 do
      buf'.(seq land ((2 * n) - 1)) <- t.buf.(seq land (n - 1))
    done;
    t.buf <- buf'

  let push t x =
    if t.tail - t.head >= Array.length t.buf then grow t;
    t.buf.(slot t t.tail) <- Some x;
    t.tail <- t.tail + 1

  let pop t =
    if t.head >= t.tail then invalid_arg "Seq_queue.pop: empty";
    let i = slot t t.head in
    match t.buf.(i) with
    | None -> assert false
    | Some x ->
      t.buf.(i) <- None;
      t.head <- t.head + 1;
      x

  let peek t =
    if t.head >= t.tail then None
    else t.buf.(slot t t.head)

  let length t = t.tail - t.head
  let head_seq t = t.head
  let tail_seq t = t.tail

  let truncate_to t seq =
    let seq = max seq t.head in
    for s = seq to t.tail - 1 do
      t.buf.(slot t s) <- None
    done;
    t.tail <- seq

  let clear t = truncate_to t t.head

  let last t =
    if t.tail <= t.head then invalid_arg "Seq_queue.last: empty";
    match t.buf.(slot t (t.tail - 1)) with
    | Some x -> x
    | None -> assert false

  let iter f t =
    for s = t.head to t.tail - 1 do
      match t.buf.(slot t s) with Some x -> f x | None -> assert false
    done
end

type load_rec = Emu.Emulator.load_rec = { l_addr : int; l_width : int }
type store_rec = Emu.Emulator.store_rec = { s_addr : int; s_width : int }

type control = Emu.Emulator.control =
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

exception Fault = Emu.Emulator.Fault

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

type checkpoint = {
  ck_regs : Arch_state.t;  (* pc = corrected resume target *)
  ck_undo : int;
  ck_lq : int;
  ck_sq : int;
  ck_insts : int;
}

(* Architectural observation hooks for functional warming (the sampled
   strategy engine, docs/STRATEGY.md): fired by [step] as instructions
   execute, so a fast-forwarding pass can keep cache and branch-predictor
   models warm without any timing simulation. *)
type warm_hooks = Emu.Emulator.warm_hooks = {
  wh_load : addr:int -> width:int -> unit;
  wh_store : addr:int -> width:int -> unit;
  wh_cond : pc:int -> taken:bool -> unit;
  wh_indirect : pc:int -> target:int -> unit;
  wh_call : pc:int -> return_to:int -> unit;
}

type t = {
  prog : Isa.Program.t;
  mem : Memory.t;
  st : Arch_state.t;
  pred : Predictor.t;
  recording : bool;
  lq : load_rec Seq_queue.t;
  sq : store_rec Seq_queue.t;
  mutable undo : (int * int * int64) array;
  mutable undo_len : int;
  mutable checkpoints : checkpoint list;  (* youngest first *)
  mutable insts : int;
  mutable wp_insts : int;
  mutable halted_f : bool;
  mutable wedged_f : bool;
  (* One-event read-ahead: direct execution always runs one control event
     past the last one handed to the µ-architecture, so every load/store on
     straight-line code the pipeline can fetch is already in lQ/sQ. Off for
     per-instruction (step_one) clients. *)
  mutable read_ahead : bool;
  mutable pending : control option;
  mutable hooks : warm_hooks option;
}

let create_gen ~recording ?(predictor = Predictor.always_not_taken) prog =
  let mem = Memory.create () in
  Memory.load_program mem prog;
  { prog;
    mem;
    st = Arch_state.create ~pc:prog.Isa.Program.entry ();
    pred = predictor;
    recording;
    lq = Seq_queue.create ();
    sq = Seq_queue.create ();
    undo = Array.make 256 (0, 0, 0L);
    undo_len = 0;
    checkpoints = [];
    insts = 0;
    wp_insts = 0;
    halted_f = false;
    wedged_f = false;
    read_ahead = false;
    pending = None;
    hooks = None }

let speculative t = t.checkpoints <> []

let push_undo t addr width pre =
  if t.undo_len >= Array.length t.undo then begin
    let arr = Array.make (2 * Array.length t.undo) (0, 0, 0L) in
    Array.blit t.undo 0 arr 0 t.undo_len;
    t.undo <- arr
  end;
  t.undo.(t.undo_len) <- (addr, width, pre);
  t.undo_len <- t.undo_len + 1

let apply_undo t mark =
  for i = t.undo_len - 1 downto mark do
    let addr, width, pre = t.undo.(i) in
    match width with
    | 1 -> Memory.store8 t.mem addr (Int64.to_int pre)
    | 2 -> Memory.store16 t.mem addr (Int64.to_int pre)
    | 4 -> Memory.store32 t.mem addr (Int64.to_int pre)
    | 8 -> Memory.store64 t.mem addr pre
    | _ -> assert false
  done;
  t.undo_len <- mark

let pre_value t addr width =
  match width with
  | 1 -> Int64.of_int (Memory.load8u t.mem addr)
  | 2 -> Int64.of_int (Memory.load16u t.mem addr)
  | 4 -> Int64.of_int (Memory.load32 t.mem addr land 0xffffffff)
  | 8 -> Memory.load64 t.mem addr
  | _ -> assert false

let eval_cond (c : Isa.Instr.cond) a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Le -> a <= b
  | Gt -> a > b

let fcvt_to_int v =
  if Float.is_nan v then 0
  else if v >= 2147483647.0 then 0x7fffffff
  else if v <= -2147483648.0 then -0x80000000
  else int_of_float (Float.trunc v)

(* Executes the instruction at the current PC. Returns a control event if
   the instruction is a conditional branch, indirect jump, or halt. *)
let step t : control option =
  let st = t.st in
  let pc = st.pc in
  let open Isa.Instr in
  match Isa.Program.fetch t.prog pc with
  | exception Isa.Program.Fault _ ->
    if speculative t then begin
      t.wedged_f <- true;
      Some (Wedged { pc })
    end
    else raise (Fault (Printf.sprintf "fetch outside code segment at 0x%x" pc))
  | insn -> (
    let gi = Arch_state.get_i st in
    let si = Arch_state.set_i st in
    let gf = Arch_state.get_f st in
    let sf = Arch_state.set_f st in
    let u32 = Arch_state.to_u32 in
    t.insts <- t.insts + 1;
    let next = pc + 4 in
    let mem_fault = ref false in
    let do_load rd_set ~addr ~width ~loader =
      let addr = u32 addr in
      match loader addr with
      | v ->
        if t.recording then Seq_queue.push t.lq { l_addr = addr; l_width = width };
        (match t.hooks with
         | Some h -> h.wh_load ~addr ~width
         | None -> ());
        rd_set v
      | exception Memory.Unaligned _ ->
        if speculative t then mem_fault := true
        else raise (Fault (Printf.sprintf "misaligned %d-byte load at 0x%x (pc 0x%x)" width addr pc))
    in
    let do_store ~addr ~width ~storer =
      let addr = u32 addr in
      if addr land (width - 1) <> 0 then begin
        if speculative t then mem_fault := true
        else raise (Fault (Printf.sprintf "misaligned %d-byte store at 0x%x (pc 0x%x)" width addr pc))
      end
      else begin
        if speculative t then push_undo t addr width (pre_value t addr width);
        storer addr;
        if t.recording then Seq_queue.push t.sq { s_addr = addr; s_width = width };
        (match t.hooks with
         | Some h -> h.wh_store ~addr ~width
         | None -> ())
      end
    in
    let event = ref None in
    (match insn with
     | Alu (op, rd, rs1, rs2) ->
       let a = gi rs1 and b = gi rs2 in
       let v =
         match op with
         | Add -> a + b
         | Sub -> a - b
         | And -> u32 a land u32 b
         | Or -> u32 a lor u32 b
         | Xor -> u32 a lxor u32 b
         | Sll -> u32 a lsl (b land 31)
         | Srl -> u32 a lsr (b land 31)
         | Sra -> a asr (b land 31)
         | Slt -> if a < b then 1 else 0
         | Sltu -> if u32 a < u32 b then 1 else 0
       in
       si rd v;
       st.pc <- next
     | Alui (op, rd, rs1, imm) ->
       let a = gi rs1 in
       let v =
         match op with
         | Add -> a + imm
         | Sub -> a - imm
         | And -> u32 a land imm
         | Or -> u32 a lor imm
         | Xor -> u32 a lxor imm
         | Sll -> u32 a lsl imm
         | Srl -> u32 a lsr imm
         | Sra -> a asr imm
         | Slt -> if a < imm then 1 else 0
         | Sltu -> if u32 a < u32 imm then 1 else 0
       in
       si rd v;
       st.pc <- next
     | Lui (rd, imm) ->
       si rd (imm lsl 16);
       st.pc <- next
     | Mul (rd, rs1, rs2) ->
       si rd (gi rs1 * gi rs2);
       st.pc <- next
     | Div (rd, rs1, rs2) ->
       let b = gi rs2 in
       si rd (if b = 0 then 0 else gi rs1 / b);
       st.pc <- next
     | Rem (rd, rs1, rs2) ->
       let b = gi rs2 in
       si rd (if b = 0 then gi rs1 else gi rs1 mod b);
       st.pc <- next
     | Load (w, rd, base, off) ->
       let addr = gi base + off in
       (match w with
        | Lb -> do_load (si rd) ~addr ~width:1 ~loader:(Memory.load8 t.mem)
        | Lbu -> do_load (si rd) ~addr ~width:1 ~loader:(Memory.load8u t.mem)
        | Lh -> do_load (si rd) ~addr ~width:2 ~loader:(Memory.load16 t.mem)
        | Lhu -> do_load (si rd) ~addr ~width:2 ~loader:(Memory.load16u t.mem)
        | Lw -> do_load (si rd) ~addr ~width:4 ~loader:(Memory.load32 t.mem));
       st.pc <- next
     | Store (w, rs, base, off) ->
       let addr = gi base + off in
       let v = gi rs in
       (match w with
        | Sb -> do_store ~addr ~width:1 ~storer:(fun a -> Memory.store8 t.mem a v)
        | Sh -> do_store ~addr ~width:2 ~storer:(fun a -> Memory.store16 t.mem a v)
        | Sw -> do_store ~addr ~width:4 ~storer:(fun a -> Memory.store32 t.mem a v));
       st.pc <- next
     | Fload (fd, base, off) ->
       do_load (sf fd) ~addr:(gi base + off) ~width:8
         ~loader:(Memory.load_double t.mem);
       st.pc <- next
     | Fstore (fs, base, off) ->
       let v = gf fs in
       do_store ~addr:(gi base + off) ~width:8
         ~storer:(fun a -> Memory.store_double t.mem a v);
       st.pc <- next
     | Fop (op, fd, fs1, fs2) ->
       let a = gf fs1 and b = gf fs2 in
       let v =
         match op with
         | Fadd -> a +. b
         | Fsub -> a -. b
         | Fmul -> a *. b
         | Fdiv -> a /. b
         | Fsqrt -> Float.sqrt a
         | Fneg -> -.a
         | Fabs -> Float.abs a
       in
       sf fd v;
       st.pc <- next
     | Fcmp (op, rd, fs1, fs2) ->
       let a = gf fs1 and b = gf fs2 in
       let r = match op with Feq -> a = b | Flt -> a < b | Fle -> a <= b in
       si rd (if r then 1 else 0);
       st.pc <- next
     | Fcvt_if (fd, rs) ->
       sf fd (float_of_int (gi rs));
       st.pc <- next
     | Fcvt_fi (rd, fs) ->
       si rd (fcvt_to_int (gf fs));
       st.pc <- next
     | Branch (c, rs1, rs2, off) ->
       let taken = eval_cond c (gi rs1) (gi rs2) in
       let fall_through = next and taken_target = next + (4 * off) in
       let actual = if taken then taken_target else fall_through in
       (match t.hooks with Some h -> h.wh_cond ~pc ~taken | None -> ());
       if t.recording then begin
         let predicted_taken = t.pred.predict_cond ~pc in
         t.pred.train_cond ~pc ~taken;
         if predicted_taken <> taken then begin
           assert (List.length t.checkpoints < max_checkpoints);
           let snap = Arch_state.snapshot st in
           snap.pc <- actual;
           t.checkpoints <-
             { ck_regs = snap;
               ck_undo = t.undo_len;
               ck_lq = Seq_queue.tail_seq t.lq;
               ck_sq = Seq_queue.tail_seq t.sq;
               ck_insts = t.insts }
             :: t.checkpoints
         end;
         st.pc <- (if predicted_taken then taken_target else fall_through);
         event :=
           Some
             (Cond { pc; taken; predicted_taken; fall_through; taken_target })
       end
       else st.pc <- actual
     | Jump target -> st.pc <- target * 4
     | Jal (rd, target) ->
       si rd next;
       if t.recording then t.pred.note_call ~pc ~return_to:next;
       (match t.hooks with
        | Some h -> h.wh_call ~pc ~return_to:next
        | None -> ());
       st.pc <- target * 4
     | Jr rs ->
       let target = u32 (gi rs) in
       st.pc <- target;
       (match t.hooks with
        | Some h -> h.wh_indirect ~pc ~target
        | None -> ());
       if t.recording then begin
         let predicted = t.pred.predict_indirect ~pc in
         t.pred.train_indirect ~pc ~target;
         event := Some (Indirect { pc; target; predicted })
       end
     | Jalr (rd, rs) ->
       let target = u32 (gi rs) in
       si rd next;
       st.pc <- target;
       (match t.hooks with
        | Some h ->
          h.wh_indirect ~pc ~target;
          h.wh_call ~pc ~return_to:next
        | None -> ());
       if t.recording then begin
         let predicted = t.pred.predict_indirect ~pc in
         t.pred.train_indirect ~pc ~target;
         t.pred.note_call ~pc ~return_to:next;
         event := Some (Indirect { pc; target; predicted })
       end
     | Nop -> st.pc <- next
     | Halt ->
       t.insts <- t.insts - 1;
       if speculative t then begin
         t.wedged_f <- true;
         event := Some (Wedged { pc })
       end
       else begin
         t.halted_f <- true;
         event := Some (Halted { pc })
       end);
    if !mem_fault then begin
      t.wedged_f <- true;
      Some (Wedged { pc })
    end
    else !event)

(* Runs forward to the next control event (no read-ahead). *)
let produce t =
  if t.halted_f then Halted { pc = t.st.pc }
  else if t.wedged_f then Wedged { pc = t.st.pc }
  else begin
    let budget = ref wrong_path_step_limit in
    let straight = ref straight_line_step_limit in
    let rec loop () =
      match step t with
      | Some ev -> ev
      | None ->
        if speculative t then begin
          decr budget;
          if !budget <= 0 then begin
            t.wedged_f <- true;
            Wedged { pc = t.st.pc }
          end
          else loop ()
        end
        else begin
          decr straight;
          if !straight <= 0 then
            raise
              (Fault
                 (Printf.sprintf
                    "no control event within %d instructions (infinite                      direct-jump loop at 0x%x?)"
                    straight_line_step_limit t.st.pc))
          else loop ()
        end
    in
    loop ()
  end

let create ?(read_ahead = true) ?predictor prog =
  let t = create_gen ~recording:true ?predictor prog in
  t.read_ahead <- read_ahead;
  if read_ahead then t.pending <- Some (produce t);
  t

type stepped = Emu.Emulator.stepped = {
  s_addr : int;
  s_event : control option;
  s_load : load_rec option;
  s_store : store_rec option;
}

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
    let event = step t in
    let s_load =
      if Seq_queue.tail_seq t.lq > lq_before then Some (Seq_queue.last t.lq)
      else None
    in
    let s_store =
      if Seq_queue.tail_seq t.sq > sq_before then Some (Seq_queue.last t.sq)
      else None
    in
    { s_addr = addr; s_event = event; s_load; s_store }
  end

let next_event t =
  match t.pending with
  | None ->
    (* Only reachable on a freshly rolled-back emulator. *)
    let ev = produce t in
    t.pending <- Some (produce t);
    ev
  | Some ev ->
    t.pending <- Some (produce t);
    ev

let outstanding t = List.length t.checkpoints

let rollback_to t ~index =
  let n = List.length t.checkpoints in
  if index < 0 || index >= n then invalid_arg "Emulator.rollback_to";
  (* Checkpoints are stored youngest-first; index counts from the oldest. *)
  let pos = n - 1 - index in
  let ck = List.nth t.checkpoints pos in
  apply_undo t ck.ck_undo;
  Seq_queue.truncate_to t.lq ck.ck_lq;
  Seq_queue.truncate_to t.sq ck.ck_sq;
  Arch_state.restore t.st ~from_:ck.ck_regs;
  t.wp_insts <- t.wp_insts + (t.insts - ck.ck_insts);
  t.insts <- ck.ck_insts;
  t.checkpoints <- List.filteri (fun i _ -> i > pos) t.checkpoints;
  t.wedged_f <- false;
  t.halted_f <- false;
  let corrected = t.st.pc in
  t.pending <- None;
  (* Re-establish the one-event read-ahead along the corrected path. *)
  if t.read_ahead then t.pending <- Some (produce t);
  corrected

let pop_load t = Seq_queue.pop t.lq
let pop_store t = Seq_queue.pop t.sq
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
  let rec loop () =
    if t.halted_f || t.insts >= max_insts then ()
    else
      match step t with
      | None | Some _ -> loop ()
  in
  loop ();
  (t.st, t.mem, t.insts)

(* ---- functional checkpointing --------------------------------------- *)

type functional_ck = Emu.Emulator.functional_ck = {
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
  let rec loop () =
    if t.halted_f || t.insts >= max_insts then ()
    else begin
      (match on_inst with Some f -> f ~pc:t.st.pc | None -> ());
      ignore (step t : control option);
      take ();
      loop ()
    end
  in
  loop ();
  (List.rev !cks, Arch_state.snapshot t.st, t.insts, t.halted_f)
