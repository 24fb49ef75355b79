(* The decoded, allocation-free emulator core against the closure-based
   reference interpreter it replaced (Ref_emulator). The fast-vs-slow
   engine checks cannot see an emulator bug, because both engines share
   the emulator; this suite runs both emulators side by side and compares
   everything the timing models consume: the control-event stream, the
   lQ/sQ contents, the register file after every event, and at the end
   the memory image and the instruction counts. *)

module E = Emu.Emulator
module R = Ref_emulator
module D = Workloads.Dsl

let check = Alcotest.check

let fail_at what n = Alcotest.failf "%s differs at event %d" what n

let pp_event = function
  | E.Cond { pc; taken; predicted_taken; _ } ->
    Printf.sprintf "Cond(0x%x, taken %b, predicted %b)" pc taken
      predicted_taken
  | E.Indirect { pc; target; _ } -> Printf.sprintf "Indirect(0x%x -> 0x%x)" pc target
  | E.Halted { pc } -> Printf.sprintf "Halted(0x%x)" pc
  | E.Wedged { pc } -> Printf.sprintf "Wedged(0x%x)" pc

(* Drains both lQs and sQs and compares them entry by entry. *)
let drain_and_compare n e r =
  let rec drain pending pop acc =
    if pending () = 0 then List.rev acc else drain pending pop (pop () :: acc)
  in
  let el = drain (fun () -> E.loads_pending e) (fun () -> E.pop_load e) [] in
  let rl = drain (fun () -> R.loads_pending r) (fun () -> R.pop_load r) [] in
  if el <> rl then fail_at "lQ" n;
  let es = drain (fun () -> E.stores_pending e) (fun () -> E.pop_store e) [] in
  let rs = drain (fun () -> R.stores_pending r) (fun () -> R.pop_store r) [] in
  if es <> rs then fail_at "sQ" n

let compare_final what e r =
  check Alcotest.bool (what ^ ": registers") true
    (Emu.Arch_state.equal (E.state e) (R.state r));
  check Alcotest.bool (what ^ ": memory image") true
    (Emu.Memory.to_pages (E.memory e) = Emu.Memory.to_pages (R.memory r));
  check Alcotest.int (what ^ ": insts") (R.insts_executed r)
    (E.insts_executed e);
  check Alcotest.int (what ^ ": wrong-path insts") (R.wrong_path_insts r)
    (E.wrong_path_insts e)

(* Drives both emulators in recording mode, each with its own instance of
   the same predictor, rolling back at fixed points: every other event,
   and whenever the emulator wedges, to a checkpoint chosen by the event
   count (not always the oldest); to the oldest once four are outstanding,
   which keeps the bQ within its capacity. The
   lQ/sQ are drained every third event, so truncation also meets
   unconsumed entries. Returns the number of events compared. *)
let lockstep ?(max_events = 200_000) ~predictor prog =
  let e = E.create ~predictor:(predictor prog) prog in
  let r = R.create ~predictor:(predictor prog) prog in
  let rec go n =
    if n >= max_events || (E.halted e && E.outstanding e = 0) then n
    else begin
      let ev = E.next_event e in
      let rv = R.next_event r in
      if ev <> rv then
        Alcotest.failf "event %d: %s, reference %s" n (pp_event ev)
          (pp_event rv);
      if E.outstanding e <> R.outstanding r then fail_at "bQ depth" n;
      if not (Emu.Arch_state.equal (E.state e) (R.state r)) then
        fail_at "registers" n;
      if E.wedged e <> R.wedged r || E.halted e <> R.halted r then
        fail_at "halted/wedged" n;
      if n mod 3 = 0 then drain_and_compare n e r;
      let out = E.outstanding e in
      if out > 0 && (n mod 2 = 0 || E.wedged e || out >= 4) then begin
        let index = if out >= 4 then 0 else n / 2 mod out in
        let pe = E.rollback_to e ~index and pr = R.rollback_to r ~index in
        if pe <> pr then fail_at "corrected pc" n
      end;
      go (n + 1)
    end
  in
  let n = go 0 in
  drain_and_compare n e r;
  compare_final "recording" e r;
  n

let functional prog =
  let est, emem, en = E.run_functional prog in
  let rst, rmem, rn = R.run_functional prog in
  check Alcotest.bool "functional: registers" true (Emu.Arch_state.equal est rst);
  check Alcotest.bool "functional: memory" true
    (Emu.Memory.to_pages emem = Emu.Memory.to_pages rmem);
  check Alcotest.int "functional: insts" rn en

(* The baseline's per-instruction stepping. *)
let stepped ?(max_steps = 200_000) prog =
  let e = E.create ~read_ahead:false prog in
  let r = R.create ~read_ahead:false prog in
  let rec go n =
    if n < max_steps && not (E.halted e) then begin
      let se = E.step_one e and sr = R.step_one r in
      if se <> sr then fail_at "step_one" n;
      if E.outstanding e > 0 && n mod 5 = 0 then
        ignore (E.rollback_to e ~index:0, R.rollback_to r ~index:0);
      go (n + 1)
    end
  in
  go 0;
  compare_final "step_one" e r

(* Functional checkpointing with warming hooks: the hook call streams, the
   checkpoints and the final state must agree. *)
let checkpoints prog =
  let log () =
    let l = ref [] in
    ( l,
      { E.wh_load = (fun ~addr ~width -> l := `L (addr, width) :: !l);
        wh_store = (fun ~addr ~width -> l := `S (addr, width) :: !l);
        wh_cond = (fun ~pc ~taken -> l := `C (pc, taken) :: !l);
        wh_indirect = (fun ~pc ~target -> l := `I (pc, target) :: !l);
        wh_call = (fun ~pc ~return_to -> l := `K (pc, return_to) :: !l) } )
  in
  let at = [ 0; 7; 100; 1000; 5000 ] in
  let el, eh = log () and rl, rh = log () in
  let ecks, est, en, eh' = E.run_functional_checkpoints ~hooks:eh prog ~at in
  let rcks, rst, rn, rh' = R.run_functional_checkpoints ~hooks:rh prog ~at in
  check Alcotest.bool "hook streams" true (!el = !rl);
  check Alcotest.bool "final state" true (Emu.Arch_state.equal est rst);
  check Alcotest.(pair int bool) "count, halted" (rn, rh') (en, eh');
  check Alcotest.int "checkpoints" (List.length rcks) (List.length ecks);
  List.iter2
    (fun (a : E.functional_ck) (b : E.functional_ck) ->
      check Alcotest.int "checkpoint insts" b.f_insts a.f_insts;
      check Alcotest.bool "checkpoint state" true
        (Emu.Arch_state.equal a.f_state b.f_state);
      check Alcotest.bool "checkpoint memory" true
        (Emu.Memory.to_pages a.f_mem = Emu.Memory.to_pages b.f_mem))
    ecks rcks;
  (* on_inst sees every PC, one instruction at a time *)
  let pcs () =
    let l = ref [] in
    (l, fun ~pc -> l := pc :: !l)
  in
  let ep, ef = pcs () and rp, rf = pcs () in
  ignore (E.run_functional_checkpoints ~max_insts:3000 ~on_inst:ef prog ~at);
  ignore (R.run_functional_checkpoints ~max_insts:3000 ~on_inst:rf prog ~at);
  check Alcotest.bool "on_inst PCs" true (!ep = !rp)

let standard prog = Bpred.standard ~prog ()
let not_taken _ = Emu.Predictor.always_not_taken

let every_mode prog =
  ignore (lockstep ~predictor:standard prog : int);
  ignore (lockstep ~predictor:not_taken prog : int);
  functional prog;
  stepped prog;
  checkpoints prog

let test_generated () =
  for seed = 1 to 40 do
    let st = Random.State.make [| seed |] in
    let bias = if seed mod 2 = 0 then Fastsim_check.Bias.default else Fastsim_check.Bias.quick in
    every_mode (Fastsim_check.Prog.assemble (Fastsim_check.Generate.program ~bias st))
  done

let test_kernels () =
  List.iter
    (fun (w : Workloads.Workload.t) -> every_mode (w.build w.test_scale))
    Workloads.Suite.all

(* Wrong paths that end in each way a wrong path can end. Each program
   takes a branch the not-taken predictor gets wrong, so the fall-through
   is the wrong path. *)
let wrong_path body =
  D.assemble
    ([ D.data "buf" [ D.Words [ 1; 2; 3; 4 ] ];
       D.la 1 "buf";
       D.li 2 1;
       D.beq 2 2 "right" ]
    @ body
    @ [ D.label "right"; D.lw 4 1 0; D.sw 4 1 8; D.halt ])

let test_wedge_at_limit () =
  (* direct-jump loops (no control events) of 2 and 3 instructions: the
     wrong-path budget of 10 000 instructions runs out at a block end and
     inside a block *)
  List.iter
    (fun body ->
      let prog = wrong_path body in
      let e = E.create prog in
      (match E.next_event e with
       | E.Cond _ -> ()
       | _ -> Alcotest.fail "expected the mispredicted branch");
      (* the read-ahead has already run the wrong path into the limit *)
      (match E.next_event e with
       | E.Wedged _ -> ()
       | ev -> Alcotest.failf "expected a wedge, got %s" (pp_event ev));
      ignore (E.rollback_to e ~index:0 : int);
      check Alcotest.int "wrong-path insts" 10_000 (E.wrong_path_insts e);
      ignore (lockstep ~predictor:not_taken prog : int);
      stepped prog)
    [ [ D.label "spin"; D.addi 3 3 1; D.j "spin" ];
      [ D.label "spin"; D.addi 3 3 1; D.addi 5 5 2; D.j "spin" ] ]

let test_wrong_path_faults () =
  List.iter
    (fun body ->
      let prog = wrong_path body in
      ignore (lockstep ~predictor:not_taken prog : int);
      stepped prog)
    [ (* misaligned load, then a misaligned store *)
      [ D.lw 3 1 2 ];
      [ D.lh 3 1 1 ];
      [ D.sw 2 1 6 ];
      [ D.sh 2 1 3 ];
      [ D.fld 0 1 4 ];
      [ D.fsd 0 1 12 ];
      (* a wrong-path store that lands, then one that faults *)
      [ D.sw 2 1 0; D.fsd 0 1 8; D.sb 2 1 3; D.sh 2 1 5 ];
      (* fetch outside the code segment: an indirect jump off the code,
         and a misaligned indirect target *)
      [ D.li 5 0x40; D.insn (Isa.Instr.Jr 5) ];
      [ D.la 5 "right"; D.addi 5 5 2; D.insn (Isa.Instr.Jr 5) ];
      (* a wrong-path halt *)
      [ D.halt ] ]

(* Fetches outside the code segment on a wrong path: running off its
   end, a direct jump past it, and a branch target beyond it. The first
   and last take a wrong path only under a predict-taken predictor. *)
let test_fetch_off_the_end () =
  let taken _ = Bpred.static_taken () in
  let off_end = D.[ li 2 1; beq 2 0 "tail"; halt; label "tail"; addi 3 3 1 ] in
  let far_branch =
    D.[ li 2 1; insn (Isa.Instr.Branch (Isa.Instr.Eq, 2, 0, 5000)); halt ]
  in
  List.iter
    (fun stmts ->
      let prog = D.assemble stmts in
      ignore (lockstep ~predictor:taken prog : int))
    [ off_end; far_branch ];
  ignore
    (lockstep ~predictor:not_taken
       (wrong_path [ D.insn (Isa.Instr.Jump 0x100000) ])
      : int);
  (* architecturally, falling off the end is a Fault in both *)
  let prog = D.assemble [ D.li 2 1; D.addi 3 3 1 ] in
  match E.run_functional prog with
  | _ -> Alcotest.fail "expected Fault"
  | exception E.Fault m -> (
    match R.run_functional prog with
    | _ -> Alcotest.fail "reference: expected Fault"
    | exception R.Fault m' -> check Alcotest.string "message" m' m)

let suite =
  [ Alcotest.test_case "generated programs" `Quick test_generated;
    Alcotest.test_case "all kernels at test scale" `Quick test_kernels;
    Alcotest.test_case "wedge at the wrong-path limit" `Quick
      test_wedge_at_limit;
    Alcotest.test_case "wrong-path faults and fetches" `Quick
      test_wrong_path_faults;
    Alcotest.test_case "fetch off the end of the code" `Quick
      test_fetch_off_the_end ]
