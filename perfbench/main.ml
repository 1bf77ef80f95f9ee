(* Command line of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints an environment line, then as its last line one JSON object
   with the run's verdict and metrics (end-to-end ones untraced, per-
   layer ones with --trace 1). The full report, with quartiles and the
   first traced iteration's spans, goes to .perfbench/. Exits 1 when a
   verdict, a determinism check, the traced-run identity check or the
   layer-closure check fails, 2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun (w : Perfbench.Workloads.t) -> w.name) Perfbench.Workloads.all));
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

let () =
  let open Perfbench in
  let args = parse Sys.argv in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w = match Workloads.find (get "workload") with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let r = Bench.run ~seconds ~trace ~seed w in
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name seed (if trace then 1 else 0) in
  let path = Report.write ~tag r in
  Printf.printf "# %s: %s\n"
    w.name
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.env));
  List.iter (fun n -> Printf.printf "# FAILED: %s\n" n) r.notes;
  Printf.printf "# report: %s\n" path;
  print_endline
    (Metrics.json_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
       ~catalogue r.values);
  exit (if r.correct then 0 else 1)
