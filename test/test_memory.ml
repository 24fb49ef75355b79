(* Sparse memory: widths, sign extension, alignment, program loading. *)

let check = Alcotest.check

let test_widths () =
  let m = Emu.Memory.create () in
  Emu.Memory.store32 m 0x1000 0xdeadbeef;
  check Alcotest.int "load32" (Emu.Arch_state.norm32 0xdeadbeef)
    (Emu.Memory.load32 m 0x1000);
  check Alcotest.int "load8u" 0xef (Emu.Memory.load8u m 0x1000);
  check Alcotest.int "load8 sign" (-17) (Emu.Memory.load8 m 0x1000);
  check Alcotest.int "load16u" 0xbeef (Emu.Memory.load16u m 0x1000);
  check Alcotest.int "load16 sign" (0xbeef - 0x10000)
    (Emu.Memory.load16 m 0x1000);
  Emu.Memory.store8 m 0x1001 0x7f;
  check Alcotest.int "byte patch" 0x7f (Emu.Memory.load8u m 0x1001);
  Emu.Memory.store16 m 0x2000 (-2);
  check Alcotest.int "halfword" (-2) (Emu.Memory.load16 m 0x2000);
  Emu.Memory.store64 m 0x3000 0x0102030405060708L;
  check Alcotest.int "low word of 64" 0x05060708 (Emu.Memory.load32 m 0x3000);
  check Alcotest.int "high word of 64" 0x01020304 (Emu.Memory.load32 m 0x3004)

let test_doubles () =
  let m = Emu.Memory.create () in
  Emu.Memory.store_double m 0x4000 3.14159;
  check (Alcotest.float 0.0) "double" 3.14159
    (Emu.Memory.load_double m 0x4000);
  Emu.Memory.store_double m 0x4008 (-0.0);
  check Alcotest.bool "minus zero bits" true
    (Int64.bits_of_float (Emu.Memory.load_double m 0x4008)
    = Int64.bits_of_float (-0.0))

let test_zero_fill () =
  let m = Emu.Memory.create () in
  check Alcotest.int "untouched reads zero" 0
    (Emu.Memory.load32 m 0x7fff0000);
  check Alcotest.int "one page so far" 1 (Emu.Memory.pages_allocated m)

let test_alignment () =
  let m = Emu.Memory.create () in
  let raises f =
    match f () with
    | _ -> Alcotest.fail "expected Unaligned"
    | exception Emu.Memory.Unaligned _ -> ()
  in
  raises (fun () -> Emu.Memory.load32 m 0x1002);
  raises (fun () -> Emu.Memory.load16 m 0x1001);
  raises (fun () -> Emu.Memory.load64 m 0x1004);
  raises (fun () -> Emu.Memory.store32 m 0x1001 0);
  (* bytes are always fine *)
  Emu.Memory.store8 m 0x1003 1

let test_page_boundary () =
  let m = Emu.Memory.create () in
  (* aligned accesses never straddle pages; check both sides of one *)
  Emu.Memory.store32 m 0xffc 0x11223344;
  Emu.Memory.store32 m 0x1000 0x55667788;
  check Alcotest.int "below" 0x11223344 (Emu.Memory.load32 m 0xffc);
  check Alcotest.int "above" 0x55667788 (Emu.Memory.load32 m 0x1000)

let test_init_segment () =
  let m = Emu.Memory.create () in
  Emu.Memory.init_segment m 0x100 "abc";
  check Alcotest.int "a" (Char.code 'a') (Emu.Memory.load8u m 0x100);
  check Alcotest.int "c" (Char.code 'c') (Emu.Memory.load8u m 0x102)

let test_load_program () =
  let prog =
    Isa.Asm.(assemble [ data "d" [ Words [ 42; 43 ] ]; nop; halt ])
  in
  let m = Emu.Memory.create () in
  Emu.Memory.load_program m prog;
  let d = Isa.Program.symbol prog "d" in
  check Alcotest.int "data word" 42 (Emu.Memory.load32 m d);
  check Alcotest.int "code word" (Int32.to_int (Isa.Encode.encode Isa.Instr.Nop))
    (Emu.Memory.load32 m prog.Isa.Program.code_base)

(* Every memory has its own page TLB: a copy (by [copy], by a
   [to_pages]/[of_pages] round trip, or inside an emulator rebuilt by
   [restore]) must never write through a page cached by the original. *)
let test_tlb_isolation () =
  let m = Emu.Memory.create () in
  Emu.Memory.store32 m 0x1000 1;
  List.iter
    (fun (what, c) ->
      (* warm both TLBs on the same page, then write through each *)
      check Alcotest.int (what ^ ": copied") 1 (Emu.Memory.load32 c 0x1000);
      check Alcotest.int (what ^ ": original") 1 (Emu.Memory.load32 m 0x1000);
      Emu.Memory.store32 c 0x1000 2;
      check Alcotest.int (what ^ ": original unchanged") 1
        (Emu.Memory.load32 m 0x1000);
      Emu.Memory.store32 m 0x1000 3;
      check Alcotest.int (what ^ ": copy unchanged") 2
        (Emu.Memory.load32 c 0x1000);
      Emu.Memory.store32 m 0x1000 1)
    [ ("copy", Emu.Memory.copy m);
      ("of_pages", Emu.Memory.of_pages (Emu.Memory.to_pages m)) ];
  (* capture/restore: run the restored emulator on, and write through its
     memory directly; the original's memory must not move *)
  let w = Workloads.Suite.find "compress" in
  let prog = w.Workloads.Workload.build w.Workloads.Workload.test_scale in
  let e = Emu.Emulator.create prog in
  for _ = 1 to 200 do
    ignore (Emu.Emulator.next_event e : Emu.Emulator.control);
    if Emu.Emulator.outstanding e > 0 then
      ignore (Emu.Emulator.rollback_to e ~index:0 : int)
  done;
  let before = Emu.Memory.to_pages (Emu.Emulator.memory e) in
  let e' = Emu.Emulator.restore prog (Emu.Emulator.capture e) in
  for _ = 1 to 200 do
    ignore (Emu.Emulator.next_event e' : Emu.Emulator.control);
    if Emu.Emulator.outstanding e' > 0 then
      ignore (Emu.Emulator.rollback_to e' ~index:0 : int)
  done;
  let mem' = Emu.Emulator.memory e' in
  check Alcotest.bool "restored emulator stored" true
    (Emu.Memory.to_pages mem' <> before);
  Array.iter
    (fun (page, _) ->
      let addr = page lsl Emu.Memory.page_bits in
      Emu.Memory.store32 mem' addr (Emu.Memory.load32 mem' addr + 1))
    before;
  check Alcotest.bool "original memory unchanged" true
    (Emu.Memory.to_pages (Emu.Emulator.memory e) = before)

let roundtrip_prop =
  QCheck.Test.make ~name:"store32/load32 round-trip" ~count:500
    QCheck.(pair (int_bound 0xfffff) int)
    (fun (addr4, v) ->
      let m = Emu.Memory.create () in
      let addr = addr4 * 4 in
      Emu.Memory.store32 m addr v;
      Emu.Memory.load32 m addr = Emu.Arch_state.norm32 v)

let suite =
  [ Alcotest.test_case "widths and signs" `Quick test_widths;
    Alcotest.test_case "doubles" `Quick test_doubles;
    Alcotest.test_case "zero fill" `Quick test_zero_fill;
    Alcotest.test_case "alignment" `Quick test_alignment;
    Alcotest.test_case "page boundary" `Quick test_page_boundary;
    Alcotest.test_case "init segment" `Quick test_init_segment;
    Alcotest.test_case "load program" `Quick test_load_program;
    Alcotest.test_case "TLB isolation" `Quick test_tlb_isolation;
    QCheck_alcotest.to_alcotest roundtrip_prop ]
