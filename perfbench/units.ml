(* The workloads: which kernels run, at which scale, under which spec,
   and how the seed is used. Of the kernels used here only go and
   tomcatv take a data seed; the others build the same program for every
   seed. *)

module Spec = Fastsim.Sim.Spec

type job = {
  kernel : string;  (** short suite name, e.g. ["go"]. *)
  scale : int;
  data_seed : int option;
  spec : Spec.t;
}

type kind = Batch | Serve

type t = {
  name : string;
  kind : kind;
  jobs : job list;
  registry_budget : int option;  (** serve daemon hot-cache budget. *)
}

let seeded_kernels = [ "go"; "tomcatv" ]

(* A positive data seed per (run seed, kernel); the kernels' LCGs accept
   any positive seed. *)
let data_seed_for seed kernel = 1 + (Hashtbl.hash (seed, kernel) mod 999_983)

let job ?(policy = Memo.Pcache.Unbounded) ~seed ~scale kernel =
  let data_seed =
    if List.mem kernel seeded_kernels then Some (data_seed_for seed kernel)
    else None
  in
  { kernel; scale; data_seed; spec = Spec.with_policy policy Spec.default }

let default_scale k = (Workloads.Suite.find k).Workloads.Workload.default_scale
let test_scale k = (Workloads.Suite.find k).Workloads.Workload.test_scale

let build j =
  match (j.kernel, j.data_seed) with
  | "go", Some data_seed -> Workloads.Kernels_int.go ~data_seed j.scale
  | "tomcatv", Some data_seed -> Workloads.Kernels_fp.tomcatv ~data_seed j.scale
  | k, _ -> (Workloads.Suite.find k).Workloads.Workload.build j.scale

let label j =
  let policy =
    match j.spec.Spec.policy with
    | Memo.Pcache.Unbounded -> ""
    | p -> "@" ^ Spec.policy_to_string p
  in
  Printf.sprintf "%s/%d%s" j.kernel j.scale policy

(* Regular kernels whose p-action caches stay small: almost every
   instruction replays, so emulation, the replay walk and cachesim do
   the work. *)
let regular_replay seed =
  { name = "regular-replay";
    kind = Batch;
    jobs =
      List.map
        (fun k -> job ~seed ~scale:(default_scale k) k)
        [ "ijpeg"; "fpppp"; "wave5"; "apsi"; "tomcatv" ];
    registry_budget = None }

(* Flush_on_full budgets far below each kernel's natural cache size
   (87 KB for go, 41 KB for gcc): a large share of instructions runs in
   detail (about 46% on go, 33% on gcc), so the detailed simulator and
   the p-action cache write path do the work. A quarter of the default
   scale keeps those shares and gives several runs of each kernel in a
   measuring window. *)
let memo_pressure seed =
  { name = "memo-pressure";
    kind = Batch;
    jobs =
      [ job ~seed ~scale:(default_scale "go" / 4)
          ~policy:(Memo.Pcache.Flush_on_full 22_000) "go";
        job ~seed ~scale:(default_scale "gcc" / 4)
          ~policy:(Memo.Pcache.Flush_on_full 5_000) "gcc" ];
    registry_budget = None }

(* Short test-scale requests through the daemon, whose registry budget
   is below the kernels' combined cache size, so spilled caches reload
   through the persist codec on the timed path. Served by suite name, so
   the seed orders the requests rather than changing the programs. *)
let serve_mix _seed =
  { name = "serve-mix";
    kind = Serve;
    jobs =
      List.map
        (fun k ->
          { kernel = k; scale = test_scale k; data_seed = None;
            spec = Spec.default })
        [ "go"; "gcc"; "li"; "ijpeg"; "tomcatv"; "m88ksim" ];
    registry_budget = Some 150_000 }

let all = [ regular_replay; memo_pressure; serve_mix ]

let names = List.map (fun f -> (f 0).name) all

let find name seed =
  List.find_map
    (fun f ->
      let w = f seed in
      if w.name = name then Some w else None)
    all

(* The same jobs at test scale and with the suite's data: the self-test,
   and the short daemon session of a batch workload's traced run, which
   names programs by suite name. *)
let at_test_scale w =
  List.map
    (fun j -> { j with scale = test_scale j.kernel; data_seed = None })
    w.jobs
