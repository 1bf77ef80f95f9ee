(* The benchmark's own tests: its statistics, its metric catalogue
   against BENCHMARK.json, and its correctness gates on smoke-sized
   workloads (including fake workloads that must trip them). *)

open Perfbench

let t = Alcotest.test_case

(* Nearest-rank percentiles, as reported for wall, CPU and set-up. *)
let percentile () =
  let p xs q = Bench.percentile xs q in
  let hundred = List.init 100 (fun i -> 100 - i) in
  Alcotest.(check (option int)) "p50 of 1..100" (Some 50) (p hundred 50);
  Alcotest.(check (option int)) "p99 of 1..100" (Some 99) (p hundred 99);
  Alcotest.(check (option int)) "p25 of 1..10 is rank 3" (Some 3)
    (p (List.init 10 succ) 25);
  Alcotest.(check (option int)) "p50 of an even count is the lower middle"
    (Some 2) (p [ 4; 1; 3; 2 ] 50);
  Alcotest.(check (option int)) "empty" None (p [] 50);
  Alcotest.(check (list int)) "quartiles" [ 3; 5; 8 ]
    (Bench.quartiles (List.init 10 succ))

let catalogue_names = List.map (fun (m : Metrics.metric) -> m.name) Metrics.all

let looks_like_ratio name =
  List.exists
    (fun pat ->
      let lp = String.length pat and ln = String.length name in
      let rec at i = i + lp <= ln && (String.sub name i lp = pat || at (i + 1)) in
      at 0)
    [ "_ratio"; "_per_"; "per_s"; "_share"; "speedup"; "utilisation"; "_ns" ]

(* Every ratio is derived from metrics that are reported beside it. *)
let ratios_carry_bases () =
  List.iter
    (fun (name, nums, dens, _) ->
      List.iter
        (fun base ->
          if not (List.mem base catalogue_names) then
            Alcotest.failf "%s: base %s is not reported" name base)
        (name :: (nums @ dens)))
    Metrics.ratios;
  List.iter
    (fun name ->
      if looks_like_ratio name && not (List.exists (fun (n, _, _, _) -> n = name) Metrics.ratios)
      then Alcotest.failf "%s looks like a ratio but has no bases" name)
    catalogue_names;
  let v =
    Metrics.derive
      [ ("pool.busy_ms", 30.); ("pool.jobs", 2.); ("pool.wall_ms", 20.);
        ("core.step_ms", 2.); ("core.step_calls", 4.) ]
  in
  Alcotest.(check (float 1e-12)) "utilisation = busy / (jobs * wall)" 0.75
    (List.assoc "pool.utilisation" v);
  Alcotest.(check (float 1e-9)) "step_ns scales ms to ns" 500_000.
    (List.assoc "core.step_ns" v);
  Alcotest.(check (float 0.)) "a zero base gives 0" 0.
    (List.assoc "explore.cache_hit_ratio" v)

(* BENCHMARK.json names what the benchmark prints, with the same
   units and directions. *)
let benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let section key =
    let start = Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) text 0 in
    let stop = Str.search_forward (Str.regexp_string "]") text start in
    String.sub text start (stop - start)
  in
  let names key =
    let s = section key in
    let re = Str.regexp {|"name": *"\([^"]*\)"|} in
    let rec go i acc =
      match Str.search_forward re s i with
      | j -> go (j + 1) (Str.matched_group 1 s :: acc)
      | exception Not_found -> List.rev acc
    in
    go 0 []
  in
  let entry key (m : Metrics.metric) =
    let s = section key in
    let re =
      Str.regexp
        (Printf.sprintf {|"name": *"%s", *"unit": *"\([^"]*\)", *"better": *"\([a-z]*\)"|}
           (Str.quote m.name))
    in
    match Str.search_forward re s 0 with
    | _ ->
        Alcotest.(check string) (m.name ^ " unit") m.unit_ (Str.matched_group 1 s);
        Alcotest.(check string) (m.name ^ " better")
          (match m.better with Metrics.Lower -> "lower" | Higher -> "higher")
          (Str.matched_group 2 s)
    | exception Not_found -> Alcotest.failf "%s missing from %s" m.name key
  in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (names "workloads");
  List.iter
    (fun (w : Workloads.t) ->
      let entry = Printf.sprintf {|{"name": "%s", "why": "%s"}|} w.name w.why in
      match Str.search_forward (Str.regexp_string entry) text 0 with
      | _ -> ()
      | exception Not_found -> Alcotest.failf "%s: why differs from BENCHMARK.json" w.name)
    Workloads.all;
  let metric_names l = List.map (fun (m : Metrics.metric) -> m.name) l in
  Alcotest.(check (list string)) "end_to_end" (metric_names Metrics.end_to_end)
    (names "end_to_end");
  Alcotest.(check (list string)) "per_layer" (metric_names Metrics.per_layer)
    (names "per_layer");
  List.iter (entry "end_to_end") Metrics.end_to_end;
  List.iter (entry "per_layer") Metrics.per_layer

let smoke (w : Workloads.t) ~trace () =
  let r = Bench.run ~size:Workloads.Smoke ~seconds:0 ~trace ~seed:7 w in
  (* Every correctness gate counts into [failed]. The layer closure is
     not asserted here: a smoke iteration lasts about a millisecond, so
     one GC slice between two calls can exceed a tenth of it. *)
  if r.failed > 0 then Alcotest.failf "%s: %s" w.name (String.concat "; " r.notes);
  Alcotest.(check bool) "verdicts attempted" true (r.attempted >= 1);
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  let line =
    Metrics.json_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
      ~catalogue r.values
  in
  List.iter
    (fun (m : Metrics.metric) ->
      let key = Printf.sprintf {|"%s":{"value":|} m.name in
      if not (Str.string_match (Str.regexp (".*" ^ Str.quote key)) line 0) then
        Alcotest.failf "%s missing from the result line" m.name;
      if (not trace) && List.assoc m.name r.values <= 0. then
        Alcotest.failf "%s is not positive" m.name)
    catalogue

(* Fake workloads: the gates must fail a run whose verdicts fail, whose
   deterministic counts drift, or whose traced composition differs. *)
let spin_ms k =
  let until = Spans.now_ns () + (k * 1_000_000) in
  while Spans.now_ns () < until do () done

let fake ?(fail = false) ?(drift = false) ?(traced_differs = false)
    ?(unattributed = false) () =
  let setup ~seed:_ _ =
    let calls = ref 0 in
    let result ~traced =
      incr calls;
      {
        Workloads.ops = 1;
        failures = (if fail then [ "integrity: broken" ] else []);
        counts =
          {
            delivered = 1;
            states = (if drift then !calls else 1);
            latency = [];
            rounds = 0;
          };
        ident =
          Workloads.Runs
            (if traced && traced_differs then
               [ ([], { Engine.steps = [||]; executed = 1; ticks_used = 0; quiescent = true }) ]
             else []);
      }
    in
    {
      Workloads.jobs = 1;
      inputs = 1;
      iterate = (fun _ -> result ~traced:false);
      traced =
        (fun sp _ ->
          if unattributed then spin_ms 1;
          Spans.with_span sp "fake.layer" (fun () ->
              if not unattributed then spin_ms 1;
              result ~traced:true));
      probe = Workloads.no_probe;
      work = (fun r -> r.counts);
      close = Workloads.nothing;
    }
  in
  { Workloads.name = "fake"; why = "gate test"; setup }

let gate_trips name w ~trace () =
  let r = Bench.run ~size:Workloads.Smoke ~seconds:0 ~trace ~seed:1 w in
  Alcotest.(check bool) (name ^ ": run is not correct") false r.correct;
  Alcotest.(check bool) (name ^ ": failures counted") true (r.failed > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "statistics",
        [
          t "nearest-rank percentile" `Quick percentile;
          t "every ratio carries its base" `Quick ratios_carry_bases;
        ] );
      ("catalogue", [ t "BENCHMARK.json matches the catalogue" `Quick benchmark_json ]);
      ( "smoke",
        List.concat_map
          (fun (w : Workloads.t) ->
            [
              t (w.name ^ " untraced") `Quick (smoke w ~trace:false);
              t (w.name ^ " traced") `Quick (smoke w ~trace:true);
            ])
          Workloads.all );
      ( "gates",
        [
          t "failed verdict" `Quick (gate_trips "fail" (fake ~fail:true ()) ~trace:false);
          t "drifting counts" `Quick (gate_trips "drift" (fake ~drift:true ()) ~trace:false);
          t "traced run differs" `Quick
            (gate_trips "identity" (fake ~traced_differs:true ()) ~trace:true);
          t "unattributed time" `Quick (fun () ->
              let r =
                Bench.run ~size:Workloads.Smoke ~seconds:0 ~trace:true ~seed:1
                  (fake ~unattributed:true ())
              in
              Alcotest.(check bool) "closure fails" false r.closed;
              Alcotest.(check bool) "run is not correct" false r.correct);
          t "clean fake passes" `Quick (fun () ->
              let r = Bench.run ~size:Workloads.Smoke ~seconds:0 ~trace:true ~seed:1 (fake ()) in
              Alcotest.(check bool) "correct" true r.correct);
        ] );
    ]
