exception Format_error of string

(* Four generations of the stream format, all 8-byte magics:
   - FSPC0002: plain action chains.
   - FSPC0003: added the 'T' (stride) action tag with inline segments.
     By construction an FSPC0002 stream contains no 'T', so one reader
     covers both.
   - FSPC0004: grammar-compressed. The stream carries a string table
     (configuration keys, referenced by index from 'G' targets and rule
     segments) and a topologically ordered rule table (the chain store's
     hash-consed rules); a stride serialises as its owner ops plus
     one rule index instead of inline segments, so chain suffixes shared
     by many strides are written once.
   Readers exist for all three ({!Codec.supported}); the v3 writer is
   kept for size-comparison benchmarks but deprecated, v2 is read-only. *)
let magic_v4 = "FSPC0004"
let magic_v3 = "FSPC0003"
let magic_v2 = "FSPC0002"

(* The digest covers the CODE WORDS ONLY — deliberately. Configuration keys
   embed instruction addresses and decoded µ-ops, so a saved cache is only
   meaningful against the same code image; data segments, on the other
   hand, are consumed through the live oracle (cache simulator + direct
   execution) during replay, which validates every outcome anyway. Keeping
   data out of the digest is what makes warm-starting across reseeded
   inputs work (docs/SWEEP.md): the same kernel over different data reuses
   the pcache, and any data-dependent path simply diverges to detailed
   simulation. test/test_persist.ml pins this down. *)
let program_digest (p : Isa.Program.t) =
  let b = Bytes.create (4 * Array.length p.words) in
  Array.iteri (fun i w -> Bytes.set_int32_le b (4 * i) w) p.words;
  Digest.bytes b

(* ---- writing ---- *)

let write_string oc s =
  output_binary_int oc (String.length s);
  output_string oc s

let write_bool oc b = output_char oc (if b then '\001' else '\000')

let write_ctl oc (out : Action.ctl) =
  match out with
  | Uarch.Oracle.C_cond { taken; mispredicted } ->
    output_char oc 'c';
    write_bool oc taken;
    write_bool oc mispredicted
  | Uarch.Oracle.C_indirect { target; hit } ->
    output_char oc 'i';
    output_binary_int oc target;
    write_bool oc hit
  | Uarch.Oracle.C_stalled -> output_char oc 's'

let write_item oc (it : Action.item) =
  match it with
  | Action.I_load lat ->
    output_char oc 'l';
    output_binary_int oc lat
  | Action.I_store -> output_char oc 's'
  | Action.I_ctl out ->
    output_char oc 'c';
    write_ctl oc out
  | Action.I_rollback i ->
    output_char oc 'r';
    output_binary_int oc i

let write_items oc (arr : Action.item array) =
  output_binary_int oc (Array.length arr);
  Array.iter (write_item oc) arr

(* Action chains grow one node per silent region, so a long-running
   workload produces chains deep enough to overflow the OCaml stack under
   naive recursion (one frame per node). The writer therefore runs an
   explicit worklist; edge payloads (latency / control outcome) become
   their own work items so the stream layout is identical to the old
   recursive writer's pre-order. *)
type write_item =
  | W_node of Action.node
  | W_lat of int
  | W_ctl of Action.ctl

(* [goto] and [stride] abstract the two tags whose encoding differs
   between v3 (inline key string / inline segments) and v4 (string-table
   and rule-table indices). *)
let write_node ~goto ~stride oc (root : Action.node) =
  let stack = ref [ W_node root ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | item :: rest ->
      stack := rest;
      (match item with
       | W_lat lat -> output_binary_int oc lat
       | W_ctl out -> write_ctl oc out
       | W_node node -> (
         match node with
         | Action.N_load { l_edges } ->
           output_char oc 'L';
           output_binary_int oc (List.length l_edges);
           stack :=
             List.fold_right
               (fun (lat, next) acc -> W_lat lat :: W_node next :: acc)
               l_edges !stack
         | Action.N_store next ->
           output_char oc 'S';
           stack := W_node next :: !stack
         | Action.N_ctl { c_edges } ->
           output_char oc 'C';
           output_binary_int oc (List.length c_edges);
           stack :=
             List.fold_right
               (fun (out, next) acc -> W_ctl out :: W_node next :: acc)
               c_edges !stack
         | Action.N_rollback (i, next) ->
           output_char oc 'R';
           output_binary_int oc i;
           stack := W_node next :: !stack
         | Action.N_halt -> output_char oc 'H'
         | Action.N_goto g ->
           output_char oc 'G';
           goto g.Action.target.Action.cfg_key
         | Action.N_stride s ->
           output_char oc 'T';
           write_items oc s.Action.s_ops;
           stride s;
           stack := W_node s.Action.s_term :: !stack))
  done

let configs_of pc =
  let configs = ref [] in
  Pcache.iter_configs (fun c -> configs := c :: !configs) pc;
  List.rev !configs

let write_group oc ~goto ~stride (g : Action.group) =
  output_binary_int oc g.Action.g_silent;
  output_binary_int oc g.Action.g_retired;
  output_binary_int oc (Array.length g.Action.g_classes);
  Array.iter (output_binary_int oc) g.Action.g_classes;
  write_node ~goto ~stride oc g.Action.g_first

(* FSPC0003: inline keys and segments everywhere. Kept (deprecated) so the
   bench can compare v4 sizes against it. *)
let save_v3 pc ~program oc =
  output_string oc magic_v3;
  write_string oc (program_digest program);
  let goto key = write_string oc key in
  let stride (s : Action.stride_node) =
    output_binary_int oc (Array.length s.Action.s_segs);
    Array.iter
      (fun (seg : Action.stride_seg) ->
        write_string oc seg.Action.sg_cfg.Action.cfg_key;
        output_binary_int oc seg.Action.sg_silent;
        output_binary_int oc seg.Action.sg_retired;
        output_binary_int oc (Array.length seg.Action.sg_classes);
        Array.iter (output_binary_int oc) seg.Action.sg_classes;
        write_items oc seg.Action.sg_ops)
      s.Action.s_segs
  in
  let configs = configs_of pc in
  output_binary_int oc (List.length configs);
  List.iter
    (fun (c : Action.config) ->
      write_string oc c.Action.cfg_key;
      match c.Action.cfg_group with
      | None -> write_bool oc false
      | Some g ->
        write_bool oc true;
        write_group oc ~goto ~stride g)
    configs

(* FSPC0004: two collection passes (strings, then the rule closure),
   then stream sections in dependency order — string table, rule table
   (children before parents: rules sort by creation id, and a store only
   ever creates children first), configs. *)
let save_v4 pc ~program oc =
  let configs = configs_of pc in
  (* string interning: first-seen order is the table order *)
  let strings = Hashtbl.create 256 in
  let str_rev = ref [] in
  let nstr = ref 0 in
  let intern_str s =
    match Hashtbl.find_opt strings s with
    | Some i -> i
    | None ->
      let i = !nstr in
      Hashtbl.add strings s i;
      str_rev := s :: !str_rev;
      incr nstr;
      i
  in
  (* reachable rule closure, keyed by creation id *)
  let rules = Hashtbl.create 64 in
  let add_rule_closure (root : Action.rule) =
    let stack = ref [ root ] in
    let continue_ = ref true in
    while !continue_ do
      match !stack with
      | [] -> continue_ := false
      | r :: rest -> (
        stack := rest;
        match r.Action.ru_node with
        | Action.R_nil -> ()
        | Action.R_seg { rs_seg; rs_rest } ->
          if not (Hashtbl.mem rules r.Action.ru_id) then begin
            Hashtbl.add rules r.Action.ru_id r;
            ignore (intern_str rs_seg.Action.pg_key : int);
            stack := rs_rest :: !stack
          end
        | Action.R_rep { rp_body; rp_rest; _ } ->
          if not (Hashtbl.mem rules r.Action.ru_id) then begin
            Hashtbl.add rules r.Action.ru_id r;
            stack := rp_body :: rp_rest :: !stack
          end)
    done
  in
  (* collection pass over every chain *)
  let collect_node =
    Pcache.iter_chain (function
      | Action.N_goto g ->
        ignore (intern_str g.Action.target.Action.cfg_key : int)
      | Action.N_stride s -> add_rule_closure s.Action.s_rule
      | _ -> ())
  in
  List.iter
    (fun (c : Action.config) ->
      ignore (intern_str c.Action.cfg_key : int);
      match c.Action.cfg_group with
      | None -> ()
      | Some g -> collect_node g.Action.g_first)
    configs;
  (* rule index: 0 is the nil rule, table entries start at 1 *)
  let sorted =
    List.sort
      (fun (a : Action.rule) (b : Action.rule) ->
        compare a.Action.ru_id b.Action.ru_id)
      (Hashtbl.fold (fun _ r acc -> r :: acc) rules [])
  in
  let rule_idx = Hashtbl.create 64 in
  List.iteri
    (fun i (r : Action.rule) ->
      Hashtbl.add rule_idx r.Action.ru_id (i + 1))
    sorted;
  let idx_of (r : Action.rule) =
    match r.Action.ru_node with
    | Action.R_nil -> 0
    | _ -> Hashtbl.find rule_idx r.Action.ru_id
  in
  (* stream out *)
  output_string oc magic_v4;
  write_string oc (program_digest program);
  output_binary_int oc !nstr;
  List.iter (write_string oc) (List.rev !str_rev);
  output_binary_int oc (List.length sorted);
  List.iter
    (fun (r : Action.rule) ->
      match r.Action.ru_node with
      | Action.R_nil -> assert false
      | Action.R_seg { rs_seg = p; rs_rest } ->
        output_char oc 'g';
        output_binary_int oc (Hashtbl.find strings p.Action.pg_key);
        output_binary_int oc p.Action.pg_silent;
        output_binary_int oc p.Action.pg_retired;
        output_binary_int oc (Array.length p.Action.pg_classes);
        Array.iter (output_binary_int oc) p.Action.pg_classes;
        write_items oc p.Action.pg_ops;
        output_binary_int oc (idx_of rs_rest)
      | Action.R_rep { rp_body; rp_count; rp_rest } ->
        output_char oc 'p';
        output_binary_int oc (idx_of rp_body);
        output_binary_int oc rp_count;
        output_binary_int oc (idx_of rp_rest))
    sorted;
  let goto key = output_binary_int oc (Hashtbl.find strings key) in
  let stride (s : Action.stride_node) =
    output_binary_int oc (idx_of s.Action.s_rule)
  in
  output_binary_int oc (List.length configs);
  List.iter
    (fun (c : Action.config) ->
      output_binary_int oc (Hashtbl.find strings c.Action.cfg_key);
      match c.Action.cfg_group with
      | None -> write_bool oc false
      | Some g ->
        write_bool oc true;
        write_group oc ~goto ~stride g)
    configs

(* ---- reading ---- *)

(* All loads go through one positional cursor over an in-memory source:
   either the raw bytes of an mmap'd file ([load_file]) or a string (the
   channel API, which slurps its input once). Compared with the old
   [in_channel] reader this removes the per-byte channel machinery from
   the hot reload path and — for spilled registry shards — lets the
   kernel page the file in lazily instead of copying it through stdio
   buffers: the only per-node copies left are the interned [cfg_key]
   strings themselves. *)

type mapped =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type src = S_string of string | S_map of mapped

type reader = { src : src; len : int; mutable pos : int }

let reader_of_string s =
  { src = S_string s; len = String.length s; pos = 0 }

let truncated () = raise (Format_error "truncated p-action cache stream")

let read_char r =
  if r.pos >= r.len then truncated ();
  let c =
    match r.src with
    | S_string s -> String.unsafe_get s r.pos
    | S_map m -> Bigarray.Array1.unsafe_get m r.pos
  in
  r.pos <- r.pos + 1;
  c

let take_string r n =
  if n < 0 || r.len - r.pos < n then truncated ();
  let s =
    match r.src with
    | S_string s -> String.sub s r.pos n
    | S_map m ->
      let pos = r.pos in
      String.init n (fun i -> Bigarray.Array1.unsafe_get m (pos + i))
  in
  r.pos <- r.pos + n;
  s

(* Big-endian 32-bit, sign-extended: the same value [input_binary_int]
   would have produced, so the existing [< 0] sanity checks keep
   rejecting corrupt high-bit counts. *)
let read_int r =
  if r.len - r.pos < 4 then truncated ();
  let b i =
    Char.code
      (match r.src with
       | S_string s -> String.unsafe_get s (r.pos + i)
       | S_map m -> Bigarray.Array1.unsafe_get m (r.pos + i))
  in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  (v lxor 0x80000000) - 0x80000000

let read_string r =
  let n = read_int r in
  if n < 0 || n > 1 lsl 24 then raise (Format_error "bad string length");
  take_string r n

let read_bool r =
  match read_char r with
  | '\000' -> false
  | '\001' -> true
  | _ -> raise (Format_error "bad boolean")

let read_ctl r : Action.ctl =
  match read_char r with
  | 'c' ->
    let taken = read_bool r in
    let mispredicted = read_bool r in
    Uarch.Oracle.C_cond { taken; mispredicted }
  | 'i' ->
    let target = read_int r in
    let hit = read_bool r in
    Uarch.Oracle.C_indirect { target; hit }
  | 's' -> Uarch.Oracle.C_stalled
  | _ -> raise (Format_error "bad control outcome")

let read_item r : Action.item =
  match read_char r with
  | 'l' -> Action.I_load (read_int r)
  | 's' -> Action.I_store
  | 'c' -> Action.I_ctl (read_ctl r)
  | 'r' -> Action.I_rollback (read_int r)
  | _ -> raise (Format_error "bad item tag")

let read_items r =
  let n = read_int r in
  if n < 0 || n > 1 lsl 24 then raise (Format_error "bad item count");
  Array.init n (fun _ -> read_item r)

(* Expanding a crafted rep pyramid must not allocate unbounded memory:
   nsegs is computed before expansion and bounded here. Generous next to
   the 64-segment stride cap; the headroom is for synthetic test rules. *)
let max_rule_nsegs = 1 lsl 20

(* The v4 'G'/'T' encodings resolve through these tables; v3/v2 streams
   carry their payloads inline ([tables = None]). *)
type v4_tables = { v_strings : string array; v_rules : Action.rule array }

let string_at tables idx =
  if idx < 0 || idx >= Array.length tables.v_strings then
    raise (Format_error "bad string index");
  tables.v_strings.(idx)

let rule_at tables idx =
  if idx < 0 || idx >= Array.length tables.v_rules then
    raise (Format_error "bad rule index");
  tables.v_rules.(idx)

(* The reader mirrors the writer's worklist: a frame per node whose
   children are still being parsed, and an iterative [reduce] that folds a
   completed subtree into its parent frame. No recursion, so deep chains
   load without growing the stack. *)
type read_frame =
  | R_store
  | R_rollback of int
  | R_load of load_frame
  | R_ctl of ctl_frame
  | R_stride of Action.item array * Action.stride_seg array * Action.rule
      (* ops, segments and rule already resolved; waiting on [s_term].
         The rule arrives retained: the stride under construction owns
         that reference. *)

and load_frame = {
  mutable l_remaining : int;
  mutable l_acc : (int * Action.node) list;
  mutable l_cur : int;  (* latency label of the edge being parsed *)
}

and ctl_frame = {
  mutable c_remaining : int;
  mutable c_acc : (Action.ctl * Action.node) list;
  mutable c_cur : Action.ctl;
}

let read_node ?tables pc store r : Action.node =
  let frames = ref [] in
  let finished = ref None in
  (* Fold [node0] into the enclosing frames until one still needs more
     children (then return to the tag loop) or none are left (done). *)
  let reduce node0 =
    let node = ref node0 in
    let reducing = ref true in
    while !reducing do
      match !frames with
      | [] ->
        finished := Some !node;
        reducing := false
      | R_store :: rest ->
        frames := rest;
        node := Action.N_store !node
      | R_rollback i :: rest ->
        frames := rest;
        node := Action.N_rollback (i, !node)
      | R_load f :: rest ->
        f.l_acc <- (f.l_cur, !node) :: f.l_acc;
        f.l_remaining <- f.l_remaining - 1;
        if f.l_remaining = 0 then begin
          frames := rest;
          node := Action.N_load { l_edges = List.rev f.l_acc }
        end
        else begin
          f.l_cur <- read_int r;
          reducing := false
        end
      | R_stride (ops, segs, rule) :: rest ->
        frames := rest;
        node :=
          Action.N_stride
            { Action.s_ops = ops; s_segs = segs; s_term = !node;
              s_rule = rule }
      | R_ctl f :: rest ->
        f.c_acc <- (f.c_cur, !node) :: f.c_acc;
        f.c_remaining <- f.c_remaining - 1;
        if f.c_remaining = 0 then begin
          frames := rest;
          node := Action.N_ctl { c_edges = List.rev f.c_acc }
        end
        else begin
          f.c_cur <- read_ctl r;
          reducing := false
        end
    done
  in
  let read_count () =
    let n = read_int r in
    if n < 0 || n > 1 lsl 24 then raise (Format_error "bad edge count");
    n
  in
  while !finished = None do
    match read_char r with
    | 'L' ->
      let n = read_count () in
      if n = 0 then reduce (Action.N_load { l_edges = [] })
      else begin
        let lat = read_int r in
        frames :=
          R_load { l_remaining = n; l_acc = []; l_cur = lat } :: !frames
      end
    | 'S' -> frames := R_store :: !frames
    | 'C' ->
      let n = read_count () in
      if n = 0 then reduce (Action.N_ctl { c_edges = [] })
      else begin
        let out = read_ctl r in
        frames :=
          R_ctl { c_remaining = n; c_acc = []; c_cur = out } :: !frames
      end
    | 'R' ->
      let i = read_int r in
      frames := R_rollback i :: !frames
    | 'H' -> reduce Action.N_halt
    | 'G' ->
      let key =
        match tables with
        | None -> read_string r
        | Some tb -> string_at tb (read_int r)
      in
      reduce (Action.N_goto { target = Pcache.intern pc key })
    | 'T' -> (
      let ops = read_items r in
      match tables with
      | Some tb ->
        (* v4: one rule index; segments come from expanding the rule. *)
        let rule = rule_at tb (read_int r) in
        if rule.Action.ru_nsegs = 0 then
          raise (Format_error "empty stride rule");
        let segs =
          Array.map
            (fun (p : Action.pseg) ->
              { Action.sg_cfg = Pcache.intern pc p.Action.pg_key;
                sg_silent = p.Action.pg_silent;
                sg_retired = p.Action.pg_retired;
                sg_classes = p.Action.pg_classes;
                sg_ops = p.Action.pg_ops })
            (Store.expand rule)
        in
        Store.retain rule;
        frames := R_stride (ops, segs, rule) :: !frames
      | None ->
        (* v3/v2: inline segments, interned into the store on the way in
           (migration: an old stream loads straight into the compressed
           representation). *)
        let nseg = read_int r in
        if nseg < 0 || nseg > 1 lsl 16 then
          raise (Format_error "bad stride segment count");
        let segs =
          Array.init nseg (fun _ ->
              let sg_cfg = Pcache.intern pc (read_string r) in
              let sg_silent = read_int r in
              let sg_retired = read_int r in
              let ncls = read_int r in
              if ncls < 0 || ncls > 64 then
                raise (Format_error "bad class count");
              let sg_classes = Array.init ncls (fun _ -> read_int r) in
              let sg_ops = read_items r in
              { Action.sg_cfg; sg_silent; sg_retired; sg_classes; sg_ops })
        in
        let rule =
          Store.intern_segs store
            (Array.map
               (fun (seg : Action.stride_seg) ->
                 { Action.pg_key = seg.Action.sg_cfg.Action.cfg_key;
                   pg_silent = seg.Action.sg_silent;
                   pg_retired = seg.Action.sg_retired;
                   pg_classes = seg.Action.sg_classes;
                   pg_ops = seg.Action.sg_ops })
               segs)
        in
        frames := R_stride (ops, segs, rule) :: !frames)
    | _ -> raise (Format_error "bad action tag")
  done;
  match !finished with Some n -> n | None -> assert false

let read_configs ?tables pc store r =
  let n = read_int r in
  if n < 0 then raise (Format_error "bad config count");
  for _ = 1 to n do
    let key =
      match tables with
      | None -> read_string r
      | Some tb -> string_at tb (read_int r)
    in
    let cfg = Pcache.intern pc key in
    if read_bool r then begin
      let silent = read_int r in
      let retired = read_int r in
      let ncls = read_int r in
      if ncls < 0 || ncls > 64 then raise (Format_error "bad class count");
      let classes = Array.init ncls (fun _ -> read_int r) in
      let first = read_node ?tables pc store r in
      Pcache.install_group pc cfg ~silent ~retired ~classes ~first
    end
  done

(* v4 preamble: string table, then the rule table rebuilt through the
   store's hash-consing constructors — loading into a shared store dedups
   against whatever other caches already interned. Indices may only refer
   backwards (children are written first), which the bound checks
   enforce. *)
let read_tables store r =
  let nstr = read_int r in
  if nstr < 0 || nstr > 1 lsl 24 then
    raise (Format_error "bad string table size");
  let v_strings = Array.init nstr (fun _ -> read_string r) in
  let nrules = read_int r in
  if nrules < 0 || nrules > 1 lsl 24 then
    raise (Format_error "bad rule table size");
  let v_rules = Array.make (nrules + 1) (Store.nil store) in
  let back tb i idx =
    if idx < 0 || idx >= i then raise (Format_error "bad rule reference");
    tb.(idx)
  in
  for i = 1 to nrules do
    (match read_char r with
     | 'g' ->
       let kidx = read_int r in
       if kidx < 0 || kidx >= nstr then
         raise (Format_error "bad string index");
       let pg_key = v_strings.(kidx) in
       let pg_silent = read_int r in
       let pg_retired = read_int r in
       let ncls = read_int r in
       if ncls < 0 || ncls > 64 then raise (Format_error "bad class count");
       let pg_classes = Array.init ncls (fun _ -> read_int r) in
       let pg_ops = read_items r in
       let rest = back v_rules i (read_int r) in
       v_rules.(i) <-
         Store.cons store
           { Action.pg_key; pg_silent; pg_retired; pg_classes; pg_ops }
           rest
     | 'p' ->
       let body = back v_rules i (read_int r) in
       let count = read_int r in
       if count < 2 || count > 1 lsl 16 then
         raise (Format_error "bad repetition count");
       if body.Action.ru_nsegs = 0 then
         raise (Format_error "empty repetition body");
       let rest = back v_rules i (read_int r) in
       if
         (body.Action.ru_nsegs * count) + rest.Action.ru_nsegs
         > max_rule_nsegs
       then raise (Format_error "rule expands too far");
       v_rules.(i) <- Store.rep store ~body ~count rest
     | _ -> raise (Format_error "bad rule tag"));
    if v_rules.(i).Action.ru_nsegs > max_rule_nsegs then
      raise (Format_error "rule expands too far")
  done;
  { v_strings; v_rules }

let load_reader ?policy ?store ~program r =
  let m = take_string r (String.length magic_v4) in
  let v4 =
    if String.equal m magic_v4 then true
    else if String.equal m magic_v3 || String.equal m magic_v2 then false
    else raise (Format_error "bad magic")
  in
  let digest = read_string r in
  if not (String.equal digest (program_digest program)) then
    raise (Format_error "p-action cache was saved for a different program");
  let store =
    match store with Some s -> s | None -> Store.create ()
  in
  let pc = Pcache.create ?policy ~store () in
  (try
     if v4 then begin
       let tables = read_tables store r in
       read_configs ~tables pc store r
     end
     else read_configs pc store r
   with e ->
     (* Return the half-built cache's rule references and drop any rule
        the stream's table declared but nothing ended up using, so an
        abandoned load never leaks into a shared store. *)
     (try Pcache.release_rules pc with _ -> ());
     Store.prune_dead store;
     raise e);
  Store.prune_dead store;
  pc

let slurp_channel ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

(* ---- versioned codec surface ---------------------------------------- *)

module Codec = struct
  type info = { version : int; magic : string; writable : bool }

  let current = { version = 4; magic = magic_v4; writable = true }
  let v3 = { version = 3; magic = magic_v3; writable = true }
  let v2 = { version = 2; magic = magic_v2; writable = false }
  let supported = [ current; v3; v2 ]

  let of_magic m = List.find_opt (fun c -> String.equal c.magic m) supported

  let save ?(codec = current) pc ~program oc =
    match codec.version with
    | 4 -> save_v4 pc ~program oc
    | 3 -> save_v3 pc ~program oc
    | v ->
      invalid_arg
        (Printf.sprintf "Memo.Persist.Codec.save: %s (v%d) is read-only"
           codec.magic v)

  let save_file ?codec pc ~program path =
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        save ?codec pc ~program oc)

  let load_string ?policy ?store ~program s =
    load_reader ?policy ?store ~program (reader_of_string s)

  let load ?policy ?store ~program ic =
    (* The channel API slurps its input and parses in memory — channels
       may not be seekable (pipes), and the positional reader wants random
       access for sign-free bounds checks. *)
    load_string ?policy ?store ~program (slurp_channel ic)

  let load_file ?policy ?store ~program path =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = (Unix.fstat fd).Unix.st_size in
        let mapped =
          if len <= 0 then None
          else
            (* Map read-only and let the kernel page the shard in lazily;
               fall back to a plain read where mmap is unavailable (some
               filesystems, zero-length corner cases). *)
            match
              Unix.map_file fd Bigarray.char Bigarray.c_layout false
                [| len |]
            with
            | g -> Some (Bigarray.array1_of_genarray g)
            | exception Unix.Unix_error _ -> None
            | exception Sys_error _ -> None
        in
        match mapped with
        | Some m ->
          load_reader ?policy ?store ~program { src = S_map m; len; pos = 0 }
        | None ->
          let ic = Unix.in_channel_of_descr fd in
          load ?policy ?store ~program ic)
end
