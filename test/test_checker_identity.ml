(* The indexed checkers (Properties, Claims) must be verdict-identical
   to the frozen pre-indexing references (Properties_ref, Claims_ref):
   same Ok/Error per check, and byte-identical failure strings — the
   first witness a failure message names is pinned, not just the
   boolean. Checked over every committed corpus scenario and over a
   fresh generated sweep spanning all three protocol variants, both
   sequentially and through the domain pool. *)

let t = Alcotest.test_case

let render verdicts =
  String.concat "; "
    (List.map
       (function
         | name, Ok () -> name ^ "=ok" | name, Error e -> name ^ "=ERR[" ^ e ^ "]")
       verdicts)

(* None = identical; Some msg = the two checkers diverge. *)
let properties_divergence outcome =
  let indexed = render (Properties.all outcome) in
  let reference = render (Properties_ref.all outcome) in
  if indexed = reference then None
  else Some (Printf.sprintf "indexed {%s} vs reference {%s}" indexed reference)

let claims_divergence outcome =
  let indexed = render (Claims.all outcome) in
  let reference = render (Claims_ref.all outcome) in
  if indexed = reference then None
  else Some (Printf.sprintf "indexed {%s} vs reference {%s}" indexed reference)

(* [core] builds its list without group-sequentiality; it must equal
   [all] with that entry filtered out. *)
let core_divergence outcome =
  let core = render (Properties.core outcome) in
  let filtered =
    render
      (List.filter
         (fun (name, _) -> name <> "group-sequential")
         (Properties.all outcome))
  in
  if core = filtered then None
  else Some (Printf.sprintf "core {%s} vs filtered all {%s}" core filtered)

let edges_divergence outcome =
  (* The exported edge lists feed find_cycle and claim 9: order included. *)
  if Properties.delivery_edges outcome = Properties_ref.delivery_edges outcome
  then None
  else Some "delivery_edges differ"

let corpus_identity () =
  let entries = Corpus.load ~dir:"../corpus" in
  if List.length entries < 4 then
    Alcotest.failf "corpus too small (%d scenarios)" (List.length entries);
  List.iter
    (fun (name, decoded) ->
      match decoded with
      | Error e -> Alcotest.failf "%s does not decode: %s" name e
      | Ok s ->
          let outcome = Scenario.run ~record_snapshots:true s in
          (match properties_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: properties: %s" name d);
          (match edges_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s" name d);
          (match core_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s" name d);
          match claims_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: claims: %s" name d)
    entries

(* All three variants so ordering, strict-ordering and pairwise paths
   are all exercised; crashes and starvation windows in the default
   envelope produce genuine Error verdicts whose strings must match. *)
let sweep_cfg =
  {
    Scenario_gen.default with
    Scenario_gen.variants =
      [ Algorithm1.Vanilla; Algorithm1.Strict; Algorithm1.Pairwise ];
  }

let properties_sweep jobs () =
  let trials = 200 in
  let results =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:11 sweep_cfg i in
        let outcome = Scenario.run s in
        match
          ( properties_divergence outcome,
            edges_divergence outcome,
            core_divergence outcome )
        with
        | None, None, None -> None
        | Some d, _, _ | _, Some d, _ | _, _, Some d ->
            Some (Printf.sprintf "trial %d: %s" i d))
  in
  let divergent = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check (list string)) "divergent verdicts" [] divergent

(* Claims need snapshot recording, which multiplies run cost: a smaller
   sweep suffices to cover every claim against its reference. *)
let claims_sweep jobs () =
  let trials = 40 in
  let results =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:13 sweep_cfg i in
        let outcome = Scenario.run ~record_snapshots:true s in
        match claims_divergence outcome with
        | None -> None
        | Some d -> Some (Printf.sprintf "trial %d: %s" i d))
  in
  let divergent = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check (list string)) "divergent claims" [] divergent

let suite =
  [
    t "corpus: indexed verdicts = reference verdicts" `Quick corpus_identity;
    t "properties sweep identical (jobs=1)" `Slow (properties_sweep 1);
    t "properties sweep identical (jobs=4)" `Slow (properties_sweep 4);
    t "claims sweep identical (jobs=1)" `Slow (claims_sweep 1);
    t "claims sweep identical (jobs=4)" `Slow (claims_sweep 4);
  ]
