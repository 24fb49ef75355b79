(* Functional emulation: per-opcode semantics, control events, speculative
   execution and rollback. *)

module I = Isa.Instr

let check = Alcotest.check

(* Runs a short program functionally and returns (state, memory). *)
let run stmts =
  let prog = Workloads.Dsl.assemble (stmts @ [ Workloads.Dsl.halt ]) in
  let st, mem, _ = Emu.Emulator.run_functional prog in
  (st, mem)

let reg st r = Emu.Arch_state.get_i st r
let freg st r = Emu.Arch_state.get_f st r

let test_alu () =
  let st, _ =
    run
      Workloads.Dsl.
        [ li 1 7;
          li 2 (-3);
          insn (I.Alu (I.Add, 3, 1, 2));
          insn (I.Alu (I.Sub, 4, 1, 2));
          insn (I.Alu (I.And, 5, 1, 2));
          insn (I.Alu (I.Or, 6, 1, 2));
          insn (I.Alu (I.Xor, 7, 1, 2));
          insn (I.Alu (I.Slt, 8, 2, 1));
          insn (I.Alu (I.Sltu, 9, 2, 1));
          li 10 1;
          insn (I.Alu (I.Sll, 11, 1, 10));
          insn (I.Alu (I.Srl, 12, 2, 10));
          insn (I.Alu (I.Sra, 13, 2, 10)) ]
  in
  check Alcotest.int "add" 4 (reg st 3);
  check Alcotest.int "sub" 10 (reg st 4);
  check Alcotest.int "and" (7 land Emu.Arch_state.to_u32 (-3)) (reg st 5);
  check Alcotest.int "or" (Emu.Arch_state.norm32 (7 lor Emu.Arch_state.to_u32 (-3))) (reg st 6);
  check Alcotest.int "xor" (Emu.Arch_state.norm32 (7 lxor Emu.Arch_state.to_u32 (-3))) (reg st 7);
  check Alcotest.int "slt signed" 1 (reg st 8);
  check Alcotest.int "sltu unsigned" 0 (reg st 9);
  check Alcotest.int "sll" 14 (reg st 11);
  check Alcotest.int "srl" 0x7ffffffe (reg st 12);
  check Alcotest.int "sra" (-2) (reg st 13)

let test_wraparound () =
  let st, _ =
    run
      Workloads.Dsl.
        [ li 1 0x7fffffff;
          insn (I.Alui (I.Add, 2, 1, 1));     (* overflow wraps *)
          li 3 (-2147483648);
          insn (I.Alui (I.Add, 4, 3, -1)) ]
  in
  check Alcotest.int "wraps to min" (-2147483648) (reg st 2);
  check Alcotest.int "negative overflow" 0x7fffffff (reg st 4)

let test_muldiv () =
  let st, _ =
    run
      Workloads.Dsl.
        [ li 1 100000;
          li 2 100000;
          insn (I.Mul (3, 1, 2));    (* 10^10 wraps to low 32 bits *)
          li 4 17;
          li 5 5;
          insn (I.Div (6, 4, 5));
          insn (I.Rem (7, 4, 5));
          li 8 (-17);
          insn (I.Div (9, 8, 5));
          insn (I.Rem (10, 8, 5));
          insn (I.Div (11, 4, 0));   (* division by zero yields 0 *)
          insn (I.Rem (12, 4, 0)) ]  (* remainder by zero yields dividend *)
  in
  check Alcotest.int "mul wrap" (Emu.Arch_state.norm32 10_000_000_000)
    (reg st 3);
  check Alcotest.int "div" 3 (reg st 6);
  check Alcotest.int "rem" 2 (reg st 7);
  check Alcotest.int "div trunc" (-3) (reg st 9);
  check Alcotest.int "rem sign" (-2) (reg st 10);
  check Alcotest.int "div0" 0 (reg st 11);
  check Alcotest.int "rem0" 17 (reg st 12)

let test_loads_stores () =
  let st, mem =
    run
      Workloads.Dsl.
        [ data "buf" [ Space 64 ];
          la 1 "buf";
          li 2 (-1);
          sw 2 1 0;
          lbu 3 1 0;
          lb 4 1 0;
          lhu 5 1 0;
          lh 6 1 2;
          li 7 0x1234;
          sh 7 1 8;
          lhu 8 1 8;
          li 9 0xab;
          sb 9 1 12;
          lbu 10 1 12 ]
  in
  ignore mem;
  check Alcotest.int "lbu" 0xff (reg st 3);
  check Alcotest.int "lb" (-1) (reg st 4);
  check Alcotest.int "lhu" 0xffff (reg st 5);
  check Alcotest.int "lh" (-1) (reg st 6);
  check Alcotest.int "sh/lhu" 0x1234 (reg st 8);
  check Alcotest.int "sb/lbu" 0xab (reg st 10)

let test_fp () =
  let st, _ =
    run
      Workloads.Dsl.
        [ data "vals" [ Doubles [ 2.25; -4.0 ] ];
          la 1 "vals";
          fld 0 1 0;
          fld 1 1 8;
          fadd 2 0 1;
          fsub 3 0 1;
          fmul 4 0 1;
          fdiv 5 0 1;
          fsqrt 6 0;
          fneg 7 1;
          fabs_ 8 1;
          feq 2 0 0;
          flt 3 1 0;
          fle 4 0 1;
          li 5 (-7);
          cvt_if 9 5;
          cvt_fi 6 9 ]
  in
  check (Alcotest.float 1e-12) "fadd" (-1.75) (freg st 2);
  check (Alcotest.float 1e-12) "fsub" 6.25 (freg st 3);
  check (Alcotest.float 1e-12) "fmul" (-9.0) (freg st 4);
  check (Alcotest.float 1e-12) "fdiv" (-0.5625) (freg st 5);
  check (Alcotest.float 1e-12) "fsqrt" 1.5 (freg st 6);
  check (Alcotest.float 1e-12) "fneg" 4.0 (freg st 7);
  check (Alcotest.float 1e-12) "fabs" 4.0 (freg st 8);
  check Alcotest.int "feq" 1 (reg st 2);
  check Alcotest.int "flt" 1 (reg st 3);
  check Alcotest.int "fle" 0 (reg st 4);
  check (Alcotest.float 1e-12) "cvt_if" (-7.0) (freg st 9);
  check Alcotest.int "cvt_fi" (-7) (reg st 6)

let test_control () =
  let st, _ =
    run
      Workloads.Dsl.
        [ li 1 3;
          li 20 0;
          label "loop";
          addi 20 20 10;
          addi 1 1 (-1);
          bgt 1 0 "loop";
          call "fn";
          j "end_";
          label "fn";
          addi 20 20 100;
          ret;
          label "end_";
          addi 20 20 1000 ]
  in
  check Alcotest.int "loop + call + jump" 1130 (reg st 20)

let test_jump_tables () =
  let st, _ =
    run
      Workloads.Dsl.
        [ data "tbl" [ Label_words [ "c0"; "c1" ] ];
          la 1 "tbl";
          lw 2 1 4;
          insn (I.Jalr (25, 2));
          j "end_";
          label "c0";
          li 20 111;
          ret;
          label "c1";
          li 20 222;
          insn (I.Jr 25);
          label "end_";
          nop ]
  in
  check Alcotest.int "dispatched to c1" 222 (reg st 20)

let test_architectural_fault () =
  let prog =
    Workloads.Dsl.assemble Workloads.Dsl.[ li 1 0x1001; lw 2 1 0; halt ]
  in
  match Emu.Emulator.run_functional prog with
  | _ -> Alcotest.fail "expected Fault"
  | exception Emu.Emulator.Fault _ -> ()

(* --- speculative execution --- *)

let events_prog =
  (* one always-mispredicted-at-first branch plus wrong-path stores *)
  Workloads.Dsl.
    [ data "buf" [ Words [ 1; 2; 3; 4 ] ];
      la 1 "buf";
      li 2 1;
      beq 2 2 "taken";       (* actually taken; not-taken predicted *)
      li 3 99;               (* wrong path *)
      sw 3 1 0;
      sw 3 1 4;
      label "taken";
      lw 4 1 0 ]

let test_speculation_rollback () =
  let prog = Workloads.Dsl.assemble (events_prog @ [ Workloads.Dsl.halt ]) in
  let emu = Emu.Emulator.create prog in
  (* First event: the mispredicted branch. The emulator has already run
     down the wrong path (read-ahead), executing the wrong-path stores. *)
  (match Emu.Emulator.next_event emu with
   | Emu.Emulator.Cond { taken; predicted_taken; _ } ->
     check Alcotest.bool "taken" true taken;
     check Alcotest.bool "predicted not-taken" false predicted_taken
   | _ -> Alcotest.fail "expected Cond event");
  check Alcotest.int "one checkpoint" 1 (Emu.Emulator.outstanding emu);
  (* wrong-path stores hit memory... *)
  let mem = Emu.Emulator.memory emu in
  check Alcotest.int "wrong-path store visible" 99
    (Emu.Memory.load32 mem (Isa.Program.symbol prog "buf"));
  (* ...until the rollback restores the pre-store values *)
  let corrected = Emu.Emulator.rollback_to emu ~index:0 in
  check Alcotest.int "corrected pc" (Isa.Program.symbol prog "taken")
    corrected;
  check Alcotest.int "store undone" 1
    (Emu.Memory.load32 mem (Isa.Program.symbol prog "buf"));
  check Alcotest.int "no checkpoints" 0 (Emu.Emulator.outstanding emu)

let test_rollback_restores_registers () =
  let prog = Workloads.Dsl.assemble (events_prog @ [ Workloads.Dsl.halt ]) in
  let emu = Emu.Emulator.create prog in
  ignore (Emu.Emulator.next_event emu : Emu.Emulator.control);
  (* r3 was clobbered on the wrong path *)
  check Alcotest.int "wrong-path r3" 99
    (Emu.Arch_state.get_i (Emu.Emulator.state emu) 3);
  ignore (Emu.Emulator.rollback_to emu ~index:0 : int);
  check Alcotest.int "r3 restored" 0
    (Emu.Arch_state.get_i (Emu.Emulator.state emu) 3)

let test_wrong_path_wedge () =
  (* wrong path runs into a Halt: emulator wedges instead of halting *)
  let prog =
    Workloads.Dsl.(
      assemble
        [ li 2 1;
          beq 2 2 "on";   (* taken; predicted not-taken *)
          halt;           (* wrong path hits halt *)
          label "on";
          li 3 5;
          halt ])
  in
  let emu = Emu.Emulator.create prog in
  (match Emu.Emulator.next_event emu with
   | Emu.Emulator.Cond _ -> ()
   | _ -> Alcotest.fail "cond first");
  (match Emu.Emulator.next_event emu with
   | Emu.Emulator.Wedged _ -> ()
   | _ -> Alcotest.fail "expected wedge on wrong-path halt");
  check Alcotest.bool "wedged" true (Emu.Emulator.wedged emu);
  ignore (Emu.Emulator.rollback_to emu ~index:0 : int);
  check Alcotest.bool "unwedged" false (Emu.Emulator.wedged emu);
  (match Emu.Emulator.next_event emu with
   | Emu.Emulator.Halted _ -> ()
   | _ -> Alcotest.fail "real halt after rollback");
  check Alcotest.int "r3 set on correct path" 5
    (Emu.Arch_state.get_i (Emu.Emulator.state emu) 3)

let test_lq_sq_recording () =
  let prog =
    Workloads.Dsl.(
      assemble
        [ data "buf" [ Words [ 10; 20 ] ];
          la 1 "buf";
          lw 2 1 0;
          sw 2 1 4;
          li 3 1;
          beq 3 3 "end_";
          label "end_";
          halt ])
  in
  let emu = Emu.Emulator.create prog in
  ignore (Emu.Emulator.next_event emu : Emu.Emulator.control);
  let buf = Isa.Program.symbol prog "buf" in
  let l = Emu.Emulator.pop_load emu in
  check Alcotest.int "load addr" buf l.Emu.Emulator.l_addr;
  check Alcotest.int "load width" 4 l.Emu.Emulator.l_width;
  let s = Emu.Emulator.pop_store emu in
  check Alcotest.int "store addr" (buf + 4) s.Emu.Emulator.s_addr

(* Property: for random programs, speculative execution with immediate
   rollbacks reaches exactly the same final state as pure functional
   execution. *)
let spec_equals_functional_prop =
  QCheck.Test.make ~name:"speculation+rollback == functional" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prog = Gen.program_of_seed seed in
      let fst_state, fst_mem, n = Emu.Emulator.run_functional prog in
      let emu = Emu.Emulator.create ~predictor:(Bpred.standard ~prog ()) prog in
      let steps = ref 0 in
      while (not (Emu.Emulator.halted emu)) && !steps < 10 * n + 1000 do
        incr steps;
        (match Emu.Emulator.next_event emu with
         | Emu.Emulator.Cond _ | Emu.Emulator.Indirect _ -> ()
         | Emu.Emulator.Halted _ -> ()
         | Emu.Emulator.Wedged _ -> ());
        (* resolve the oldest misprediction as soon as it exists *)
        if Emu.Emulator.outstanding emu > 0 then
          ignore (Emu.Emulator.rollback_to emu ~index:0 : int)
      done;
      Emu.Emulator.halted emu
      && Emu.Arch_state.equal fst_state (Emu.Emulator.state emu)
      && Emu.Emulator.insts_executed emu = n
      &&
      (* compare the scratch region's final contents *)
      let scratch = Isa.Program.symbol prog "scratch" in
      let mem = Emu.Emulator.memory emu in
      let ok = ref true in
      for i = 0 to 255 do
        if Emu.Memory.load32 mem (scratch + (4 * i))
           <> Emu.Memory.load32 fst_mem (scratch + (4 * i))
        then ok := false
      done;
      !ok)

(* The functional core allocates per page touched (and once per run for
   the decoded program), never per instruction. Deterministic: it counts
   words allocated, not time. *)
let test_functional_allocation () =
  let w = Workloads.Suite.find "compress" in
  let prog = w.Workloads.Workload.build w.Workloads.Workload.test_scale in
  let before = Gc.minor_words () in
  let _, mem, n = Emu.Emulator.run_functional prog in
  let words = Gc.minor_words () -. before in
  let per_inst = words /. float_of_int n in
  if per_inst >= 0.01 then
    Alcotest.failf
      "%.0f minor words over %d instructions (%.3f per instruction, %d \
       pages touched)"
      words n per_inst
      (Emu.Memory.pages_allocated mem)

let suite =
  [ Alcotest.test_case "alu ops" `Quick test_alu;
    Alcotest.test_case "wraparound" `Quick test_wraparound;
    Alcotest.test_case "mul/div/rem" `Quick test_muldiv;
    Alcotest.test_case "loads/stores" `Quick test_loads_stores;
    Alcotest.test_case "fp ops" `Quick test_fp;
    Alcotest.test_case "control flow" `Quick test_control;
    Alcotest.test_case "jump tables" `Quick test_jump_tables;
    Alcotest.test_case "architectural fault" `Quick test_architectural_fault;
    Alcotest.test_case "speculation rollback (memory)" `Quick
      test_speculation_rollback;
    Alcotest.test_case "speculation rollback (registers)" `Quick
      test_rollback_restores_registers;
    Alcotest.test_case "wrong-path wedge" `Quick test_wrong_path_wedge;
    Alcotest.test_case "lQ/sQ recording" `Quick test_lq_sq_recording;
    Alcotest.test_case "functional run allocates per page, not per instruction"
      `Quick test_functional_allocation;
    QCheck_alcotest.to_alcotest spec_equals_functional_prop ]
