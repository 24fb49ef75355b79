type key = string

let fetch_tag = function
  | Pipeline.F_run _ -> 0
  | Pipeline.F_stall_indirect -> 1
  | Pipeline.F_stall_wedged -> 2
  | Pipeline.F_halted -> 3

let put32 b off v =
  Bytes.set b off (Char.unsafe_chr (v land 0xff));
  Bytes.set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get32 (s : string) off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let header_size = 11

(* 64-bit FNV-1a, folded into OCaml's native int (the offset basis is the
   standard constant truncated to 62 bits so it remains a literal; the
   prime is the standard 2^40 + 2^8 + 0xb3). Multiplication wraps, which
   is exactly FNV's behaviour modulo the word size. The final [land
   max_int] keeps the hash non-negative so masking it with a power-of-two
   table size is well defined. *)
let fnv_basis = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let hash_sub (b : Bytes.t) len =
  let h = ref fnv_basis in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime
  done;
  !h land max_int

let hash_key (s : string) =
  let h = ref fnv_basis in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

module Arena = struct
  type t = { mutable buf : Bytes.t; mutable len : int; mutable hash : int }

  let create () = { buf = Bytes.create 256; len = 0; hash = 0 }
  let length a = a.len
  let hash a = a.hash
  let buffer a = a.buf
  let key a = Bytes.sub_string a.buf 0 a.len

  let reserve a size =
    if Bytes.length a.buf < size then begin
      let cap = ref (Bytes.length a.buf * 2) in
      while !cap < size do
        cap := !cap * 2
      done;
      a.buf <- Bytes.create !cap
    end
end

let encode_into ?(limit = 255) (a : Arena.t) ~fetch iq =
  let limit = min limit 255 in
  let n = Pipeline.length iq in
  if n > limit then
    invalid_arg
      (Printf.sprintf
         "Snapshot.encode: iQ has %d entries (configured limit %d)" n limit);
  let n_ind = ref 0 in
  Pipeline.iteri (fun _ e -> if e.Pipeline.ind_target >= 0 then incr n_ind) iq;
  let size = header_size + (4 * n) + (4 * !n_ind) in
  Arena.reserve a size;
  let b = a.Arena.buf in
  Bytes.set b 0 (Char.chr (fetch_tag fetch));
  put32 b 1 (match fetch with Pipeline.F_run pc -> pc | _ -> 0);
  Bytes.set b 5 (Char.chr n);
  Bytes.set b 6 (Char.chr !n_ind);
  put32 b 7 (if n = 0 then 0 else (Pipeline.get iq 0).Pipeline.addr);
  let ind_off = ref (header_size + (4 * n)) in
  Pipeline.iteri
    (fun i e ->
      let open Pipeline in
      let counter = e.counter in
      assert (counter >= 0 && counter < 1 lsl 24);
      let b0 =
        e.st
        lor (if e.taken then 8 else 0)
        lor (if e.mispredicted then 16 else 0)
        lor if e.ind_stall then 32 else 0
      in
      let off = header_size + (4 * i) in
      Bytes.set b off (Char.chr b0);
      Bytes.set b (off + 1) (Char.unsafe_chr (counter land 0xff));
      Bytes.set b (off + 2) (Char.unsafe_chr ((counter lsr 8) land 0xff));
      Bytes.set b (off + 3) (Char.unsafe_chr ((counter lsr 16) land 0xff));
      if e.ind_target >= 0 then begin
        put32 b !ind_off e.ind_target;
        ind_off := !ind_off + 4
      end)
    iq;
  a.Arena.len <- size;
  a.Arena.hash <- hash_sub b size

let encode ?limit ~fetch iq =
  let a = Arena.create () in
  encode_into ?limit a ~fetch iq;
  Arena.key a

let entry_count (k : key) = Char.code k.[5]

let modeled_bytes (k : key) =
  let n = Char.code k.[5] and n_ind = Char.code k.[6] in
  16 + ((3 * n + 1) / 2) + (4 * n_ind)

let decode ?decoded prog ~capacity (k : key) =
  if String.length k < header_size then invalid_arg "Snapshot.decode: short";
  let n = Char.code k.[5] and n_ind = Char.code k.[6] in
  if String.length k <> header_size + (4 * n) + (4 * n_ind) then
    invalid_arg "Snapshot.decode: length mismatch";
  let fetch =
    match Char.code k.[0] with
    | 0 -> Pipeline.F_run (get32 k 1)
    | 1 -> Pipeline.F_stall_indirect
    | 2 -> Pipeline.F_stall_wedged
    | 3 -> Pipeline.F_halted
    | _ -> invalid_arg "Snapshot.decode: bad fetch tag"
  in
  let decoded =
    match decoded with Some d -> d | None -> Pipeline.decode_program prog
  in
  let iq = Pipeline.create ~capacity in
  let ind_off = ref (header_size + (4 * n)) in
  let next_addr = ref (get32 k 7) in
  for i = 0 to n - 1 do
    let off = header_size + (4 * i) in
    let b0 = Char.code k.[off] in
    let counter =
      Char.code k.[off + 1]
      lor (Char.code k.[off + 2] lsl 8)
      lor (Char.code k.[off + 3] lsl 16)
    in
    let e = Pipeline.entry_of_decoded decoded !next_addr in
    let tag = b0 land 7 in
    if tag > 4 then invalid_arg "Snapshot.decode: bad stage tag";
    e.Pipeline.st <- tag;
    e.Pipeline.counter <- counter;
    e.Pipeline.taken <- b0 land 8 <> 0;
    e.Pipeline.mispredicted <- b0 land 16 <> 0;
    e.Pipeline.ind_stall <- b0 land 32 <> 0;
    if
      match Isa.Instr.control e.Pipeline.insn with
      | Isa.Instr.Ctl_indirect -> true
      | _ -> false
    then begin
      e.Pipeline.ind_target <- get32 k !ind_off;
      ind_off := !ind_off + 4
    end;
    Pipeline.push iq e;
    if i < n - 1 then
      match Pipeline.successor e with
      | Some a -> next_addr := a
      | None -> invalid_arg "Snapshot.decode: entry after halt"
  done;
  (fetch, iq)

let pp ppf (k : key) =
  let n = Char.code k.[5] and n_ind = Char.code k.[6] in
  Format.fprintf ppf
    "@[<v>config: fetch_tag=%d fetch_pc=0x%x entries=%d indirect=%d \
     modeled_bytes=%d@]"
    (Char.code k.[0]) (get32 k 1) n n_ind (modeled_bytes k)
