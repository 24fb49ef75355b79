let check_pow2 name n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (name ^ ": size must be a power of two")

module Twobit = struct
  type t = { counters : int array; mask : int }

  let create ?(entries = 512) () =
    check_pow2 "Twobit.create" entries;
    { counters = Array.make entries 1; mask = entries - 1 }

  let index t pc = (pc lsr 2) land t.mask
  let predict t ~pc = t.counters.(index t pc) >= 2

  let train t ~pc ~taken =
    let i = index t pc in
    let c = t.counters.(i) in
    (* saturating; explicit int tests, since the polymorphic [min]/[max]
       compile to a runtime compare call *)
    t.counters.(i) <-
      (if taken then if c < 3 then c + 1 else 3 else if c > 0 then c - 1 else 0)

  let entries t = Array.length t.counters
end

module Btb = struct
  type t = { tags : int array; targets : int array; mask : int }

  let create ?(entries = 64) () =
    check_pow2 "Btb.create" entries;
    { tags = Array.make entries (-1); targets = Array.make entries 0;
      mask = entries - 1 }

  let index t pc = (pc lsr 2) land t.mask

  let predict t ~pc =
    let i = index t pc in
    if t.tags.(i) = pc then Some t.targets.(i) else None

  let train t ~pc ~target =
    let i = index t pc in
    t.tags.(i) <- pc;
    t.targets.(i) <- target
end

module Ras = struct
  type t = { stack : int array; mutable top : int; mutable size : int }

  let create ?(depth = 16) () =
    check_pow2 "Ras.create" depth;
    { stack = Array.make depth 0; top = 0; size = 0 }

  let push t addr =
    t.stack.(t.top) <- addr;
    t.top <- (t.top + 1) land (Array.length t.stack - 1);
    if t.size < Array.length t.stack then t.size <- t.size + 1

  let pop t =
    if t.size = 0 then None
    else begin
      t.top <- (t.top - 1) land (Array.length t.stack - 1);
      t.size <- t.size - 1;
      Some t.stack.(t.top)
    end

  let depth t = t.size
end

let is_return prog pc =
  match prog with
  | None -> false
  | Some p -> (
    match Isa.Program.fetch_opt p pc with
    | Some (Isa.Instr.Jr rs) -> rs = Isa.Reg.link
    | Some _ | None -> false)

let standard_over ?prog ?metrics bht btb ras : Emu.Predictor.t =
  (* Observability counters (find-or-create; absent registry = no-ops).
     Strictly passive: predictions are unaffected. *)
  let m name =
    Option.map (fun reg -> Fastsim_obs.Metrics.counter reg name) metrics
  in
  let c_cond = m "bpred.cond_lookups" in
  let c_btb = m "bpred.btb_lookups" in
  let c_btb_hit = m "bpred.btb_hits" in
  let c_ras = m "bpred.ras_pops" in
  let c_ras_empty = m "bpred.ras_underflows" in
  let tick = function
    | None -> ()
    | Some c -> Fastsim_obs.Metrics.incr c
  in
  { predict_cond =
      (fun ~pc ->
        tick c_cond;
        Twobit.predict bht ~pc);
    train_cond = (fun ~pc ~taken -> Twobit.train bht ~pc ~taken);
    predict_indirect =
      (fun ~pc ->
        if is_return prog pc then begin
          match Ras.pop ras with
          | Some _ as r ->
            tick c_ras;
            r
          | None ->
            tick c_ras_empty;
            None
        end
        else begin
          tick c_btb;
          match Btb.predict btb ~pc with
          | Some _ as r ->
            tick c_btb_hit;
            r
          | None -> None
        end);
    train_indirect =
      (fun ~pc ~target ->
        if not (is_return prog pc) then Btb.train btb ~pc ~target);
    note_call = (fun ~pc:_ ~return_to -> Ras.push ras return_to) }

let standard ?prog ?metrics () : Emu.Predictor.t =
  standard_over ?prog ?metrics (Twobit.create ()) (Btb.create ())
    (Ras.create ())

let static_not_taken () = Emu.Predictor.always_not_taken

let static_taken () : Emu.Predictor.t =
  { Emu.Predictor.always_not_taken with predict_cond = (fun ~pc:_ -> true) }

(* ---- state capture (strategy engines, docs/STRATEGY.md) ------------ *)
(* The predictor interface is a record of closures, so checkpointing a
   run means capturing the tables those closures close over. A [handle]
   pairs a predictor with save/load over its private tables. The saved
   form is normalised plain data: RAS rotation is removed (only the live
   entries, oldest first, are observable through push/pop), so byte
   comparison of two saved states is a sound behavioural comparison. *)

type state = {
  s_bht : int array;
  s_btb_tags : int array;
  s_btb_targets : int array;
  s_ras : int array;  (** live entries, oldest first. *)
}

type handle = {
  h_pred : Emu.Predictor.t;
  h_save : unit -> state;
  h_load : state -> unit;
}

let empty_state =
  { s_bht = [||]; s_btb_tags = [||]; s_btb_targets = [||]; s_ras = [||] }

let static_handle pred =
  { h_pred = pred;
    h_save = (fun () -> empty_state);
    h_load = (fun _ -> ()) }

let standard_handle ?prog ?metrics () =
  let bht = Twobit.create () in
  let btb = Btb.create () in
  let ras = Ras.create () in
  let pred = standard_over ?prog ?metrics bht btb ras in
  let save () =
    let depth = Array.length ras.Ras.stack in
    { s_bht = Array.copy bht.Twobit.counters;
      s_btb_tags = Array.copy btb.Btb.tags;
      s_btb_targets = Array.copy btb.Btb.targets;
      s_ras =
        Array.init ras.Ras.size (fun i ->
            ras.Ras.stack.((ras.Ras.top - ras.Ras.size + i) land (depth - 1)))
    }
  in
  let load (s : state) =
    Array.blit s.s_bht 0 bht.Twobit.counters 0 (Array.length s.s_bht);
    Array.blit s.s_btb_tags 0 btb.Btb.tags 0 (Array.length s.s_btb_tags);
    Array.blit s.s_btb_targets 0 btb.Btb.targets 0
      (Array.length s.s_btb_targets);
    let depth = Array.length ras.Ras.stack in
    Array.fill ras.Ras.stack 0 depth 0;
    Array.blit s.s_ras 0 ras.Ras.stack 0 (Array.length s.s_ras);
    ras.Ras.top <- Array.length s.s_ras land (depth - 1);
    ras.Ras.size <- Array.length s.s_ras
  in
  { h_pred = pred; h_save = save; h_load = load }

let not_taken_handle () = static_handle (static_not_taken ())
let taken_handle () = static_handle (static_taken ())
