type t = {
  params : Params.t;
  prog : Isa.Program.t;
  (* [prog]'s static operands, shared with every simulator restored
     from this one (see [restore ~from]). *)
  decoded : Pipeline.decoded;
  iq : Pipeline.t;
  mutable fetch : Pipeline.fetch_state;
  mutable halted_f : bool;
  (* The explicit rename stage: bounded freelists + branch shadow maps.
     A deterministic function of the iQ (Rename.rebuild), so it is not
     part of the snapshot. *)
  rename : Rename.t;
  (* Scratch wakeup maps, rebuilt every cycle (paper §4.1): the entry
     index of the youngest in-flight writer of each architectural
     register, or -1 when the architectural value is current. *)
  int_writer : int array;
  fp_writer : int array;
  (* Cumulative retired-instruction counts per functional-unit class,
     indexed by [Isa.Instr.fu_index]. *)
  cls : int array;
  (* Scratch configuration-encode buffer (hot path, see Snapshot.Arena):
     reused every interaction cycle so snapshotting allocates nothing. *)
  arena : Snapshot.Arena.t;
}

type cycle_result = { retired : int; interactions : int; halted : bool }

let create ?(params = Params.default) prog =
  Params.validate params;
  { params;
    prog;
    decoded = Pipeline.decode_program prog;
    iq = Pipeline.create ~capacity:params.active_list;
    fetch = Pipeline.F_run prog.Isa.Program.entry;
    halted_f = false;
    rename = Rename.create params;
    int_writer = Array.make Isa.Reg.count (-1);
    fp_writer = Array.make Isa.Reg.count (-1);
    cls = Array.make Isa.Instr.fu_count 0;
    arena = Snapshot.Arena.create () }

let create_at ?params prog ~pc =
  let t = create ?params prog in
  t.fetch <- Pipeline.F_run pc;
  t

let restore ?(params = Params.default) ?from prog key =
  Params.validate params;
  let decoded =
    match from with
    | Some f when f.prog == prog -> f.decoded
    | Some _ | None -> Pipeline.decode_program prog
  in
  let fetch, iq =
    Snapshot.decode ~decoded prog ~capacity:params.active_list key
  in
  let rename = Rename.create params in
  Rename.rebuild rename iq;
  { params;
    prog;
    decoded;
    iq;
    fetch;
    halted_f = false;
    rename;
    int_writer = Array.make Isa.Reg.count (-1);
    fp_writer = Array.make Isa.Reg.count (-1);
    cls = Array.make Isa.Instr.fu_count 0;
    arena = Snapshot.Arena.create () }

let snapshot t =
  Snapshot.encode ~limit:t.params.Params.active_list ~fetch:t.fetch t.iq

let snapshot_arena t =
  Snapshot.encode_into ~limit:t.params.Params.active_list t.arena
    ~fetch:t.fetch t.iq;
  t.arena

let dump ppf t =
  let fs =
    match t.fetch with
    | Pipeline.F_run pc -> Printf.sprintf "run@0x%x" pc
    | Pipeline.F_stall_indirect -> "stall-ind"
    | Pipeline.F_stall_wedged -> "wedged"
    | Pipeline.F_halted -> "halted"
  in
  Format.fprintf ppf "fetch=%s free-phys=%d/%d@." fs
    (Rename.free_int t.rename) (Rename.free_fp t.rename);
  Pipeline.iteri
    (fun i e ->
      let st =
        match Pipeline.stage e with
        | Pipeline.Fetched -> "fetched"
        | Pipeline.Queued -> "queued"
        | Pipeline.Exec n -> Printf.sprintf "exec(%d)" n
        | Pipeline.Wait_cache n -> Printf.sprintf "wait(%d)" n
        | Pipeline.Done -> "done"
      in
      Format.fprintf ppf "  [%2d] 0x%x %-24s %s%s%s%s@." i e.Pipeline.addr
        (Isa.Instr.to_string e.Pipeline.insn)
        st
        (if e.Pipeline.taken then " taken" else "")
        (if e.Pipeline.mispredicted then " MISPRED" else "")
        (if e.Pipeline.ind_stall then " IND-STALL" else ""))
    t.iq

let halted t = t.halted_f
let retired_by_class t = Array.copy t.cls
let in_flight t = Pipeline.length t.iq
let fetch_state t = t.fetch
let free_phys t = (Rename.free_int t.rename, Rename.free_fp t.rename)

let is_cond e =
  match Isa.Instr.control e.Pipeline.insn with
  | Isa.Instr.Ctl_cond -> true
  | _ -> false

(* Phase 1: in-order retirement of completed instructions. *)
let retire t =
  let retired = ref 0 and halted_now = ref false in
  let continue_ = ref true in
  while
    !continue_ && (not !halted_now) && !retired < t.params.retire_width
  do
    match Pipeline.peek t.iq with
    | Some e when e.Pipeline.st = Pipeline.st_done ->
      ignore (Pipeline.pop t.iq : Pipeline.entry);
      Rename.retire t.rename e;
      incr retired;
      t.cls.(Isa.Instr.fu_index e.Pipeline.fu) <-
        t.cls.(Isa.Instr.fu_index e.Pipeline.fu) + 1;
      (match e.Pipeline.insn with
       | Isa.Instr.Halt ->
         halted_now := true;
         t.halted_f <- true
       | _ -> ())
    | Some _ | None -> continue_ := false
  done;
  (!retired, !halted_now)

(* Scratch per-cycle occupancy counters, filled by the merged
   execute/issue pass and consumed by decode and fetch. *)
type counts = {
  mutable c_intq : int;
  mutable c_fpq : int;
  mutable c_memq : int;
  mutable c_first_fetched : int;
  mutable c_unresolved_cond : int;
}

let fresh_counts () =
  { c_intq = 0;
    c_fpq = 0;
    c_memq = 0;
    c_first_fetched = -1;
    c_unresolved_cond = 0 }

(* Issue-queue occupancy follows the port map: a class competing for the
   integer ports sits in the integer queue, and so on. At the default map
   this reproduces the historical int/fp/addr queue split. *)
let bump_queue (p : Params.t) (c : counts) fu =
  match Params.port p fu with
  | Params.P_int -> c.c_intq <- c.c_intq + 1
  | Params.P_fp -> c.c_fpq <- c.c_fpq + 1
  | Params.P_mem -> c.c_memq <- c.c_memq + 1

let queue_free (p : Params.t) (c : counts) fu =
  match Params.port p fu with
  | Params.P_int -> c.c_intq < p.Params.int_queue
  | Params.P_fp -> c.c_fpq < p.Params.fp_queue
  | Params.P_mem -> c.c_memq < p.Params.addr_queue

(* Phases 2+3 merged into a single oldest-to-newest scan: advance executing
   instructions (completions issue loads/stores to the cache, resolve
   branches, trigger rollbacks), then issue ready queued instructions —
   readiness only consults older entries, which this pass has already
   updated, so the merge is behaviour-preserving. Occupancy counters for
   decode and fetch are gathered on the same pass. *)
let execute_and_issue t ~now (o : Oracle.t) interactions (c : counts) =
  let p = t.params in
  Array.fill t.int_writer 0 Isa.Reg.count (-1);
  Array.fill t.fp_writer 0 Isa.Reg.count (-1);
  let int_issued = ref 0 and fp_issued = ref 0 and mem_issued = ref 0 in
  let total_issued = ref 0 in
  let div_busy = ref false and fpdiv_busy = ref false in
  (* Non-pipelined units busy with instructions issued in earlier cycles. *)
  Pipeline.iteri
    (fun _ e ->
      if e.Pipeline.st = Pipeline.st_exec && e.Pipeline.counter > 1 then
        match e.Pipeline.fu with
        | Isa.Instr.Fu_int_div -> div_busy := true
        | Isa.Instr.Fu_fp_div | Isa.Instr.Fu_fp_sqrt -> fpdiv_busy := true
        | _ -> ())
    t.iq;
  let saw_unissued_mem = ref false in
  let i = ref 0 in
  while !i < Pipeline.length t.iq do
    let e = Pipeline.unsafe_get t.iq !i in
    (* -- execute/complete -- *)
    let st = e.Pipeline.st in
    if st = Pipeline.st_exec then begin
      if e.Pipeline.counter > 1 then
        e.Pipeline.counter <- e.Pipeline.counter - 1
      else if Isa.Instr.is_load e.Pipeline.insn then begin
        let lat = o.cache_load ~now in
        incr interactions;
        if lat <= 0 then e.Pipeline.st <- Pipeline.st_done
        else begin
          e.Pipeline.st <- Pipeline.st_wait;
          e.Pipeline.counter <- lat
        end
      end
      else if Isa.Instr.is_store e.Pipeline.insn then begin
        o.cache_store ~now;
        incr interactions;
        e.Pipeline.st <- Pipeline.st_done
      end
      else begin
        e.Pipeline.st <- Pipeline.st_done;
        match Isa.Instr.control e.Pipeline.insn with
        | Isa.Instr.Ctl_cond ->
          if e.Pipeline.mispredicted then begin
            (* Resolve the misprediction: index is this branch's position
               among outstanding mispredictions, oldest first. *)
            let index = ref 0 in
            for j = 0 to !i - 1 do
              if (Pipeline.unsafe_get t.iq j).Pipeline.mispredicted then
                incr index
            done;
            e.Pipeline.mispredicted <- false;
            o.rollback ~index:!index;
            incr interactions;
            (* Undo the squashed suffix's renames and restore this
               branch's shadow map before the entries disappear. *)
            Rename.rollback t.rename t.iq ~keep:(!i + 1) e;
            Pipeline.truncate t.iq (!i + 1);
            (* Squashed entries may have been counted already; recount from
               scratch is unnecessary — younger entries only added to the
               counters below, and this loop stops at the new length. The
               first_fetched marker can only have pointed at squashed
               entries. *)
            c.c_first_fetched <- -1;
            let fall, target =
              match
                Isa.Instr.branch_targets e.Pipeline.insn ~pc:e.Pipeline.addr
              with
              | Some x -> x
              | None -> assert false
            in
            t.fetch <-
              Pipeline.F_run (if e.Pipeline.taken then target else fall)
          end;
          (* Resolved either way: the checkpoint is dead. *)
          Rename.release_shadow t.rename e
        | Isa.Instr.Ctl_indirect when e.Pipeline.ind_stall ->
          e.Pipeline.ind_stall <- false;
          t.fetch <- Pipeline.F_run e.Pipeline.ind_target
        | _ -> ()
      end
    end
    else if st = Pipeline.st_wait then begin
      if e.Pipeline.counter > 1 then
        e.Pipeline.counter <- e.Pipeline.counter - 1
      else e.Pipeline.st <- Pipeline.st_done
    end
    (* -- issue -- *)
    else if st = Pipeline.st_queued then begin
      let srcs = e.Pipeline.srcs in
      let ready = ref true in
      for s = 0 to Array.length srcs - 1 do
        (match Array.unsafe_get srcs s with
         | Isa.Instr.Dint r ->
           let w = t.int_writer.(r) in
           if
             w >= 0
             && (Pipeline.unsafe_get t.iq w).Pipeline.st <> Pipeline.st_done
           then ready := false
         | Isa.Instr.Dfloat r ->
           let w = t.fp_writer.(r) in
           if
             w >= 0
             && (Pipeline.unsafe_get t.iq w).Pipeline.st <> Pipeline.st_done
           then ready := false)
      done;
      if !ready then begin
        let fu = e.Pipeline.fu in
        (* A port is free when its group has an unclaimed unit this cycle
           and the global issue width (0 = uncapped) is not exhausted.
           Non-pipelined semantics stay class-based regardless of the
           port map: the divider and the FP divide/sqrt unit each accept
           one instruction at a time, and address generation proceeds
           strictly in program order (R10000 address queue — this also
           serialises cache calls into lQ/sQ order). *)
        let port_issued =
          match Params.port p fu with
          | Params.P_int -> int_issued
          | Params.P_fp -> fp_issued
          | Params.P_mem -> mem_issued
        in
        let class_free =
          match fu with
          | Isa.Instr.Fu_int_div -> not !div_busy
          | Fu_fp_div | Fu_fp_sqrt -> not !fpdiv_busy
          | Fu_mem -> not !saw_unissued_mem
          | Fu_none -> false
          | Fu_int_alu | Fu_int_mul | Fu_fp_add | Fu_fp_mul | Fu_branch ->
            true
        in
        let unit_free =
          class_free
          && !port_issued < Params.port_units p (Params.port p fu)
          && (p.Params.issue_width = 0
             || !total_issued < p.Params.issue_width)
        in
        if unit_free then begin
          e.Pipeline.st <- Pipeline.st_exec;
          e.Pipeline.counter <- Params.latency p fu;
          incr port_issued;
          incr total_issued;
          match fu with
          | Isa.Instr.Fu_int_div -> div_busy := true
          | Fu_fp_div | Fu_fp_sqrt -> fpdiv_busy := true
          | _ -> ()
        end
      end
    end;
    (* -- occupancy bookkeeping on the post-update state -- *)
    let st = e.Pipeline.st in
    let fu = e.Pipeline.fu in
    if fu = Isa.Instr.Fu_mem
       && (st = Pipeline.st_fetched || st = Pipeline.st_queued)
    then saw_unissued_mem := true;
    if st = Pipeline.st_fetched then begin
      if c.c_first_fetched = -1 then c.c_first_fetched <- !i
    end
    else if st = Pipeline.st_queued then bump_queue p c fu;
    if st <> Pipeline.st_done && is_cond e then
      c.c_unresolved_cond <- c.c_unresolved_cond + 1;
    (match e.Pipeline.dst with
     | Some (Isa.Instr.Dint r) -> t.int_writer.(r) <- !i
     | Some (Isa.Instr.Dfloat r) -> t.fp_writer.(r) <- !i
     | None -> ());
    incr i
  done

(* Phase 4: in-order decode/rename of fetched instructions, limited by
   issue-queue capacity and physical-register availability. *)
let decode t (c : counts) =
  let p = t.params in
  if c.c_first_fetched >= 0 then begin
    let stop = ref false and k = ref 0 in
    while
      (not !stop)
      && !k < p.decode_width
      && c.c_first_fetched + !k < Pipeline.length t.iq
    do
      let e = Pipeline.get t.iq (c.c_first_fetched + !k) in
      assert (e.Pipeline.st = Pipeline.st_fetched);
      (match e.Pipeline.fu with
       | Isa.Instr.Fu_none ->
         (* Nop / Halt: no queue, no unit; complete at decode and wait to
            retire in order. *)
         e.Pipeline.st <- Pipeline.st_done;
         incr k
       | fu ->
         let need_int, need_fp =
           match e.Pipeline.dst with
           | Some (Isa.Instr.Dint _) -> (1, 0)
           | Some (Isa.Instr.Dfloat _) -> (0, 1)
           | None -> (0, 0)
         in
         if
           Rename.free_int t.rename < need_int
           || Rename.free_fp t.rename < need_fp
         then stop := true
         else if queue_free p c fu then begin
           e.Pipeline.st <- Pipeline.st_queued;
           Rename.alloc t.rename e;
           if is_cond e then Rename.save_shadow t.rename e;
           bump_queue p c fu;
           incr k
         end
         else stop := true)
    done
  end

(* Phase 5: fetch along the path direct execution took, pulling a control
   outcome at each conditional branch and indirect jump. *)
let fetch t (o : Oracle.t) interactions (c : counts) =
  let p = t.params in
  let fetched = ref 0 and continue_ = ref true in
  while
    !continue_ && !fetched < p.fetch_width && not (Pipeline.is_full t.iq)
  do
    match t.fetch with
    | Pipeline.F_stall_indirect | Pipeline.F_stall_wedged | Pipeline.F_halted
      ->
      continue_ := false
    | Pipeline.F_run pc ->
      let i = Pipeline.decoded_index t.decoded pc in
      if i < 0 then begin
        (* Wrong-path fetch ran off the code segment. *)
        t.fetch <- Pipeline.F_stall_wedged;
        continue_ := false
      end
      else begin
        match Pipeline.decoded_control t.decoded i with
        | Isa.Instr.Ctl_halt ->
          Pipeline.push t.iq (Pipeline.entry_at t.decoded i pc);
          incr fetched;
          t.fetch <- Pipeline.F_halted;
          continue_ := false
        | Isa.Instr.Ctl_none ->
          Pipeline.push t.iq (Pipeline.entry_at t.decoded i pc);
          incr fetched;
          t.fetch <- Pipeline.F_run (pc + 4)
        | Isa.Instr.Ctl_direct target ->
          Pipeline.push t.iq (Pipeline.entry_at t.decoded i pc);
          incr fetched;
          t.fetch <- Pipeline.F_run target;
          (* A taken transfer ends the fetch packet. *)
          continue_ := false
        | Isa.Instr.Ctl_cond ->
          if c.c_unresolved_cond >= p.max_spec_branches then
            continue_ := false
          else begin
            match o.fetch_control () with
            | Oracle.C_cond { taken; mispredicted } ->
              incr interactions;
              let e = Pipeline.entry_at t.decoded i pc in
              e.Pipeline.taken <- taken;
              e.Pipeline.mispredicted <- mispredicted;
              Pipeline.push t.iq e;
              incr fetched;
              c.c_unresolved_cond <- c.c_unresolved_cond + 1;
              let predicted_taken =
                if mispredicted then not taken else taken
              in
              if predicted_taken then begin
                t.fetch <-
                  Pipeline.F_run (Pipeline.decoded_target t.decoded i);
                continue_ := false
              end
              else t.fetch <- Pipeline.F_run (pc + 4)
            | Oracle.C_stalled ->
              incr interactions;
              t.fetch <- Pipeline.F_stall_wedged;
              continue_ := false
            | Oracle.C_indirect _ ->
              invalid_arg "Detailed.fetch: indirect outcome at branch"
          end
        | Isa.Instr.Ctl_indirect -> (
          match o.fetch_control () with
          | Oracle.C_indirect { target; hit } ->
            incr interactions;
            let e = Pipeline.entry_at t.decoded i pc in
            e.Pipeline.ind_target <- target;
            if hit then begin
              Pipeline.push t.iq e;
              t.fetch <- Pipeline.F_run target
            end
            else begin
              e.Pipeline.ind_stall <- true;
              Pipeline.push t.iq e;
              t.fetch <- Pipeline.F_stall_indirect
            end;
            incr fetched;
            continue_ := false
          | Oracle.C_stalled ->
            incr interactions;
            t.fetch <- Pipeline.F_stall_wedged;
            continue_ := false
          | Oracle.C_cond _ ->
            invalid_arg "Detailed.fetch: cond outcome at indirect jump")
      end
  done

let step_cycle t ~now (o : Oracle.t) =
  let interactions = ref 0 in
  let retired, halted_now = retire t in
  if halted_now then { retired; interactions = !interactions; halted = true }
  else begin
    let c = fresh_counts () in
    execute_and_issue t ~now o interactions c;
    decode t c;
    fetch t o interactions c;
    { retired; interactions = !interactions; halted = false }
  end
