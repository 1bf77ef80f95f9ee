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

(* ---------------- failure paths of claims 2-8 ---------------- *)

(* The sweeps above only compare clean runs, where every temporal claim
   reads Ok. Here recorded snapshots are mutated so that claims 2-8 fail,
   and each indexed claim must return the reference's Error string. *)

let temporal =
  [
    (2, Claims.claim2, Claims_ref.claim2);
    (3, Claims.claim3, Claims_ref.claim3);
    (4, Claims.claim4, Claims_ref.claim4);
    (5, Claims.claim5, Claims_ref.claim5);
    (6, Claims.claim6, Claims_ref.claim6);
    (7, Claims.claim7, Claims_ref.claim7);
    (8, Claims.claim8, Claims_ref.claim8);
  ]

let verdict = function Ok () -> "ok" | Error e -> "ERR[" ^ e ^ "]"

(* The snapshots of an outcome, final state last, and back. *)
let snaps_of o = List.map snd o.Runner.snapshots @ [ o.Runner.final_logs ]

let with_snaps o snaps =
  let rec split ticks snaps =
    match (ticks, snaps) with
    | t :: ticks, s :: snaps ->
        let recorded, final = split ticks snaps in
        ((t, s) :: recorded, final)
    | [], [ final ] -> ([], final)
    | _ -> invalid_arg "with_snaps"
  in
  let snapshots, final_logs = split (List.map fst o.Runner.snapshots) snaps in
  { o with Runner.snapshots; final_logs }

let at i f snaps = List.mapi (fun j s -> if j = i then f s else s) snaps

let on_key key f snap =
  List.map (fun (k, l) -> if k = key then (k, f l) else (k, l)) snap

let entry snap key d =
  match List.assoc_opt key snap with
  | None -> None
  | Some l -> List.find_opt (fun (d', _, _) -> d' = d) l

(* The latest tick [i] (not the final state) holding, in log [key], a
   datum [d] locked at position [p] with the same entry in ticks i-1,
   i and i+1, and a datum [x] above it at tick [i]. *)
let find_target snaps =
  let arr = Array.of_list snaps in
  let rec search i =
    if i < 1 then None
    else
      let found =
        List.find_map
          (fun (key, l) ->
            List.find_map
              (fun ((d, p, locked) as e) ->
                let above =
                  List.find_opt (fun (x, q, _) -> x <> d && q > p) l
                in
                match above with
                | Some (x, _, _)
                  when locked
                       && entry arr.(i - 1) key d = Some e
                       && entry arr.(i + 1) key d = Some e ->
                    Some (i, key, d, p, x)
                | _ -> None)
              l)
          arr.(i)
      in
      match found with Some _ -> found | None -> search (i - 1)
  in
  search (Array.length arr - 2)

(* A recorded run with at least two logs and a target as above. *)
let recorded_target () =
  let rec go i =
    if i >= 200 then Alcotest.fail "no generated run has a locked target"
    else
      let s = Fuzz_driver.scenario_of_trial ~seed:13 sweep_cfg i in
      let o = Scenario.run ~record_snapshots:true s in
      let snaps = snaps_of o in
      match find_target snaps with
      | Some target when List.length o.Runner.final_logs >= 2 ->
          (o, snaps, target)
      | _ -> go (i + 1)
  in
  go 0

let failure_paths () =
  let o, snaps, (i, key, d, p, x) = recorded_target () in
  let last = List.length snaps - 1 in
  let fresh = Algorithm1.Msg 100_000 in
  let drop = on_key key (List.filter (fun (d', _, _) -> d' <> d)) in
  let set_entry d0 f =
    List.map (fun ((d', _, _) as e) -> if d' = d0 then f e else e)
  in
  let copy =
    List.map (fun (k, l) -> (k, List.map (fun (d, p, l) -> (d, p, l)) l))
  in
  (* [d] listed a second time, at [p + 1], in the last two snapshots
     (physically the same list): the last pair is equal but reads as a
     move of locked [d] to the full walk. *)
  let dup =
    let l = List.assoc key (List.nth snaps (last - 1)) @ [ (d, p + 1, true) ] in
    fun snaps ->
      List.mapi
        (fun j s -> if j >= last - 1 then on_key key (fun _ -> l) s else s)
        snaps
  in
  let mutations =
    [
      ("drop a datum", Some 2, at i drop snaps);
      ("unlock a datum", Some 4,
        at i (on_key key (set_entry d (fun (d, p, _) -> (d, p, false)))) snaps);
      ("move a locked datum", Some 5,
        at i (on_key key (set_entry d (fun (d, p, l) -> (d, p + 1, l)))) snaps);
      ("fresh datum below a locked one", Some 7,
        at i (on_key key (fun l -> (fresh, 0, false) :: l)) snaps);
      ("new predecessor of a locked datum", Some 8,
        at i (on_key key (set_entry x (fun (x, _, l) -> (x, 0, l)))) snaps);
      ("whole log key deleted", Some 2,
        at i (List.filter (fun (k, _) -> k <> key)) snaps);
      ("keys out of order", None, at i List.rev snaps);
      ("keys out of order and a datum dropped", Some 2,
        at i (fun s -> List.rev (drop s)) snaps);
      ("keys out of order in two ticks, each log's lowest datum dropped",
        Some 2,
        at (i - 1) List.rev
          (at i
             (List.rev_map (fun (k, l) ->
                  (k, match l with [] -> [] | _ :: rest -> rest)))
             snaps));
      ("equal but physically distinct lists, a datum dropped", Some 2,
        at i drop (List.map copy snaps));
      ("a datum listed twice in two equal ticks", Some 5, dup snaps);
    ]
  in
  List.iter
    (fun (name, expected, snaps) ->
      let o = with_snaps o snaps in
      List.iter
        (fun (n, indexed, reference) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: claim %d" name n)
            (verdict (reference o)) (verdict (indexed o)))
        temporal;
      match expected with
      | None -> ()
      | Some n ->
          let _, indexed, _ = List.find (fun (n', _, _) -> n' = n) temporal in
          if Result.is_ok (indexed o) then
            Alcotest.failf "%s: claim %d should fail" name n)
    (("unmutated", None, snaps) :: mutations)

(* Recording shares structure: a log whose entries did not change has
   the physically same list in consecutive snapshots, and a tick at
   which no log changed reuses the previous snapshot. *)
let snapshots_shared () =
  let s = Fuzz_driver.scenario_of_trial ~seed:13 sweep_cfg 0 in
  let o = Scenario.run ~record_snapshots:true s in
  let snaps = List.map snd o.Runner.snapshots in
  let reused = ref 0 in
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a == b then incr reused
        else
          List.iter
            (fun (key, lb) ->
              match List.assoc_opt key a with
              | Some la when la = lb && la != lb ->
                  Alcotest.failf "log (%d, %d) copied between ticks" (fst key)
                    (snd key)
              | _ -> ())
            b;
        go rest
    | _ -> ()
  in
  go snaps;
  if !reused = 0 then Alcotest.fail "no snapshot reused across ticks"

let suite =
  [
    t "recorded snapshots share unchanged logs" `Quick snapshots_shared;
    t "claims 2-8 failure paths = reference" `Quick failure_paths;
    t "corpus: indexed verdicts = reference verdicts" `Quick corpus_identity;
    t "properties sweep identical (jobs=1)" `Slow (properties_sweep 1);
    t "properties sweep identical (jobs=4)" `Slow (properties_sweep 4);
    t "claims sweep identical (jobs=1)" `Slow (claims_sweep 1);
    t "claims sweep identical (jobs=4)" `Slow (claims_sweep 4);
  ]
