(* The FastSim benchmark driver:

     fsbench --workload NAME|all --seed N --seconds S --trace 0|1
     fsbench selftest

   prints one line per metric (name, value, unit, sample count) and then
   the JSON result object, once per workload; for a single workload the
   JSON result is the last line. --trace 0 measures the end-to-end
   metrics; --trace 1 measures the per-layer metrics with the outside-in
   drivers of [Layers]. *)

let usage () =
  prerr_endline
    ("usage: fsbench --workload {" ^ String.concat "|" Units.names
   ^ "|all} --seed N --seconds S --trace 0|1\n       fsbench selftest");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  match args with
  | [ "selftest" ] -> exit (if Selftest.run () then 0 else 1)
  | _ ->
    let opts = parse [] args in
    let get k =
      match List.assoc_opt k opts with Some v -> v | None -> usage ()
    in
    let int k =
      match int_of_string_opt (get k) with Some v -> v | None -> usage ()
    in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = int "trace" <> 0 in
    let workloads =
      match get "workload" with
      | "all" -> List.map (fun f -> f seed) Units.all
      | name -> (
        match Units.find name seed with Some w -> [ w ] | None -> usage ())
    in
    (* Each workload runs in its own child, so one workload's run cannot
       change the process state the next one starts from. *)
    let ok (w : Units.t) =
      match
        Proc.isolated (fun () ->
            Report.note "workload %s seed %d seconds %.0f trace %b" w.Units.name
              seed seconds trace;
            let attempted, failed =
              match (trace, w.Units.kind) with
              | false, Units.Batch -> Batch.run w ~seconds
              | false, Units.Serve -> Serve_mix.run w ~seed ~seconds
              | true, _ -> Layers.run w ~seed ~seconds
            in
            Report.print_metrics ();
            print_endline (Report.result_line ~attempted ~failed);
            failed = 0)
      with
      | Ok ok -> ok
      | Error m ->
        Printf.eprintf "fsbench: %s: %s\n%!" w.Units.name m;
        false
    in
    let results = List.map ok workloads in
    exit (if List.for_all Fun.id results then 0 else 1)
