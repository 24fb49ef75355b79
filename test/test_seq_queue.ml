(* Sequence-addressed queues: FIFO order, truncation, growth. *)

let check = Alcotest.check

let test_fifo () =
  let q = Emu.Emulator.Seq_queue.create () in
  for i = 0 to 99 do
    Emu.Emulator.Seq_queue.push q i
  done;
  check Alcotest.int "length" 100 (Emu.Emulator.Seq_queue.length q);
  for i = 0 to 99 do
    check Alcotest.int "pop order" i (Emu.Emulator.Seq_queue.pop q)
  done;
  check Alcotest.int "empty" 0 (Emu.Emulator.Seq_queue.length q);
  (match Emu.Emulator.Seq_queue.pop q with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ())

let test_growth () =
  let q = Emu.Emulator.Seq_queue.create () in
  for i = 0 to 9999 do
    Emu.Emulator.Seq_queue.push q i
  done;
  for i = 0 to 9999 do
    check Alcotest.int "grown pop" i (Emu.Emulator.Seq_queue.pop q)
  done

let test_truncate () =
  let q = Emu.Emulator.Seq_queue.create () in
  for i = 0 to 9 do
    Emu.Emulator.Seq_queue.push q i
  done;
  Emu.Emulator.Seq_queue.truncate_to q 6;
  check Alcotest.int "len after truncate" 6 (Emu.Emulator.Seq_queue.length q);
  check Alcotest.int "tail seq" 6 (Emu.Emulator.Seq_queue.tail_seq q);
  Emu.Emulator.Seq_queue.push q 100;
  for _ = 0 to 5 do
    ignore (Emu.Emulator.Seq_queue.pop q : int)
  done;
  check Alcotest.int "new entry after truncate" 100 (Emu.Emulator.Seq_queue.pop q)

let test_truncate_past_consumed () =
  let q = Emu.Emulator.Seq_queue.create () in
  for i = 0 to 9 do
    Emu.Emulator.Seq_queue.push q i
  done;
  for _ = 0 to 7 do
    ignore (Emu.Emulator.Seq_queue.pop q : int)
  done;
  (* consumption has passed seq 5; truncate must simply empty the queue *)
  Emu.Emulator.Seq_queue.truncate_to q 5;
  check Alcotest.int "emptied" 0 (Emu.Emulator.Seq_queue.length q);
  check Alcotest.int "head=tail" (Emu.Emulator.Seq_queue.head_seq q)
    (Emu.Emulator.Seq_queue.tail_seq q)

let test_interleaved () =
  let q = Emu.Emulator.Seq_queue.create () in
  Emu.Emulator.Seq_queue.push q 1;
  Emu.Emulator.Seq_queue.push q 2;
  check Alcotest.int "pop 1" 1 (Emu.Emulator.Seq_queue.pop q);
  Emu.Emulator.Seq_queue.push q 3;
  check (Alcotest.option Alcotest.int) "peek" (Some 2) (Emu.Emulator.Seq_queue.peek q);
  check Alcotest.int "last" 3 (Emu.Emulator.Seq_queue.last q);
  check Alcotest.int "pop 2" 2 (Emu.Emulator.Seq_queue.pop q);
  check Alcotest.int "pop 3" 3 (Emu.Emulator.Seq_queue.pop q)

let model_prop =
  (* random interleaving of push/pop/truncate against a list model *)
  QCheck.Test.make ~name:"queue matches list model" ~count:300
    QCheck.(list (int_bound 10))
    (fun ops ->
      let q = Emu.Emulator.Seq_queue.create () in
      let model = ref [] in (* youngest first *)
      let consumed = ref 0 in
      List.iter
        (fun op ->
          if op <= 6 then begin
            Emu.Emulator.Seq_queue.push q op;
            model := op :: !model
          end
          else if op <= 8 then begin
            match List.rev !model with
            | [] -> ()
            | oldest :: rest ->
              incr consumed;
              assert (Emu.Emulator.Seq_queue.pop q = oldest);
              model := List.rev rest
          end
          else begin
            (* drop the youngest entry if any *)
            let tail = Emu.Emulator.Seq_queue.tail_seq q in
            Emu.Emulator.Seq_queue.truncate_to q (max (tail - 1) (Emu.Emulator.Seq_queue.head_seq q));
            match !model with [] -> () | _ :: rest -> model := rest
          end)
        ops;
      Emu.Emulator.Seq_queue.length q = List.length !model)

let suite =
  [ Alcotest.test_case "fifo order" `Quick test_fifo;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "truncate past consumed" `Quick
      test_truncate_past_consumed;
    Alcotest.test_case "interleaved" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest model_prop ]
