type verdict = (unit, string) result

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

let rec for_each f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      for_each f rest

let log_assoc snap key = match List.assoc_opt key snap with Some l -> l | None -> []

let entry_of snap key d =
  List.find_opt (fun (d', _, _) -> d' = d) (log_assoc snap key)

let compare_key (g, h) (g', h') =
  let c = Int.compare g g' in
  if c <> 0 then c else Int.compare h h'

let keys_of a b =
  List.sort_uniq compare_key (List.map fst a @ List.map fst b)

let rec keys_ascending = function
  | (k, _) :: ((k', _) :: _ as rest) ->
      compare_key k k' < 0 && keys_ascending rest
  | _ -> true

let distinct_data entries =
  let data = List.map (fun (d, _, _) -> d) entries in
  List.compare_lengths (List.sort_uniq Algorithm1.compare_datum data) data = 0

let same_entry (d, pos, locked) (d', pos', locked') =
  Algorithm1.compare_datum d d' = 0
  && Int.equal pos pos' && Bool.equal locked locked'

(* The keys whose entry lists differ between two snapshots, ascending,
   found in one merge; both key lists must be strictly ascending. A key
   missing on one side reads as the empty list, as in [log_assoc]. *)
let changed_keys a b =
  let nonempty key l acc = match l with [] -> acc | _ :: _ -> key :: acc in
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | (ka, la) :: a', [] -> go (nonempty ka la acc) a' []
    | [], (kb, lb) :: b' -> go (nonempty kb lb acc) [] b'
    | (ka, la) :: a', (kb, lb) :: b' ->
        let c = compare_key ka kb in
        if c < 0 then go (nonempty ka la acc) a' b
        else if c > 0 then go (nonempty kb lb acc) a b'
        else if la == lb || List.equal same_entry la lb then go acc a' b'
        else go (ka :: acc) a' b'
  in
  go [] a b

(* Fold [f] over every pair of consecutive snapshots, final state
   included. *)
let fold_pairs outcome f init =
  let rec go acc a = function
    | (_, b) :: rest -> go (f acc a b) b rest
    | [] -> f acc a outcome.Runner.final_logs
  in
  match outcome.Runner.snapshots with
  | [] -> init
  | (_, s0) :: rest -> go init s0 rest

(* The consecutive snapshot pairs (final state included) with the log
   keys their claims visit, in order. The fast plan keeps only the
   changed keys, and only the pairs that have some: an unchanged log
   passes claims 2-8 as long as no log lists a datum twice (DESIGN.md
   "Claims 2-8 on changed logs only"). It needs every snapshot's keys
   strictly ascending and every list duplicate-free — checked on the
   first snapshot and on each changed list, which covers the rest by
   induction. Otherwise every key of either side is visited. *)
let plan outcome =
  let exception Slow in
  let fast acc a b =
    if not (keys_ascending b) then raise Slow;
    match changed_keys a b with
    | [] -> acc
    | keys ->
        if List.for_all (fun key -> distinct_data (log_assoc b key)) keys
        then (a, b, keys) :: acc
        else raise Slow
  in
  let fast_plan () =
    (match outcome.Runner.snapshots with
    | (_, s0) :: _
      when not
             (keys_ascending s0
             && List.for_all (fun (_, l) -> distinct_data l) s0) ->
        raise Slow
    | _ -> ());
    fold_pairs outcome fast []
  in
  let every_key acc a b = (a, b, keys_of a b) :: acc in
  List.rev (try fast_plan () with Slow -> fold_pairs outcome every_key [])

(* Fold a check over every planned (a, b, key), stopping at the first
   failure. *)
let consecutive outcome f =
  for_each (fun (a, b, keys) -> for_each (f a b) keys) (plan outcome)

let pp_d = Algorithm1.pp_datum

let claim2 outcome =
  consecutive outcome (fun a b key ->
      for_each
        (fun (d, _, _) ->
          if entry_of b key d <> None then Ok ()
          else fail "claim 2: %a vanished from a log" pp_d d)
        (log_assoc a key))

let claim3 outcome =
  consecutive outcome (fun a b key ->
      for_each
        (fun (d, pos, _) ->
          match entry_of b key d with
          | Some (_, pos', _) when pos' >= pos -> Ok ()
          | Some _ -> fail "claim 3: position of %a decreased" pp_d d
          | None -> Ok ())
        (log_assoc a key))

let claim4 outcome =
  consecutive outcome (fun a b key ->
      for_each
        (fun (d, _, locked) ->
          if not locked then Ok ()
          else
            match entry_of b key d with
            | Some (_, _, true) -> Ok ()
            | _ -> fail "claim 4: %a was unlocked" pp_d d)
        (log_assoc a key))

let claim5 outcome =
  consecutive outcome (fun a b key ->
      for_each
        (fun (d, pos, locked) ->
          if not locked then Ok ()
          else
            match entry_of b key d with
            | Some (_, pos', _) when pos' = pos -> Ok ()
            | _ -> fail "claim 5: locked %a moved" pp_d d)
        (log_assoc a key))

(* d <_L d' over snapshot entries: by position, ties by the a-priori
   datum order (the implementation's Algorithm1.compare_datum). *)
let snap_lt (d, pos, _) (d', pos', _) =
  pos < pos' || (pos = pos' && Algorithm1.compare_datum d d' < 0)

let claim6 outcome =
  consecutive outcome (fun a b key ->
      let la = log_assoc a key in
      for_each
        (fun ((d, _, locked) as e) ->
          if not locked then Ok ()
          else
            for_each
              (fun ((d', _, _) as e') ->
                if d = d' || not (snap_lt e e') then Ok ()
                else
                  match (entry_of b key d, entry_of b key d') with
                  | Some eb, Some eb' when snap_lt eb eb' -> Ok ()
                  | Some _, Some _ ->
                      fail "claim 6: order %a < %a flipped" pp_d d pp_d d'
                  | _ -> Ok ())
              la)
        la)

let claim7 outcome =
  consecutive outcome (fun a b key ->
      let la = log_assoc a key in
      (* d fresh in b; every datum locked in a must be below it. *)
      for_each
        (fun ((d, _, _) as eb) ->
          if entry_of a key d <> None then Ok ()
          else
            for_each
              (fun (d', _, locked) ->
                if not locked then Ok ()
                else
                  match entry_of b key d' with
                  | Some eb' when snap_lt eb' eb -> Ok ()
                  | _ ->
                      fail "claim 7: fresh %a below locked %a" pp_d d pp_d d')
              la)
        (log_assoc b key))

let claim8 outcome =
  consecutive outcome (fun a b key ->
      for_each
        (fun ((d, _, locked) as ea) ->
          if not locked then Ok ()
          else
            let preds snap e =
              List.filter_map
                (fun ((d', _, _) as e') ->
                  if d' <> d && snap_lt e' e then Some d' else None)
                (log_assoc snap key)
            in
            match entry_of b key d with
            | None -> Ok ()
            | Some eb ->
                let pa = preds a ea and pb = preds b eb in
                if List.for_all (fun d' -> List.mem d' pa) pb then Ok ()
                else fail "claim 8: locked %a gained a predecessor" pp_d d)
        (log_assoc a key))

let claim9 outcome =
  let cx = Outcome_index.make outcome in
  let tr = outcome.Runner.trace in
  let ids = Outcome_index.ids cx in
  let bd = Outcome_index.bound cx in
  (* The old check recomputed the ↦ edge list inside the pair loop;
     compute it once and flatten it (symmetrically) into a matrix. *)
  let rel = Bytes.make (bd * bd) '\000' in
  List.iter
    (fun (a, b) ->
      Bytes.set rel ((a * bd) + b) '\001';
      Bytes.set rel ((b * bd) + a) '\001')
    (Properties.delivery_edges outcome);
  let related m m' = Bytes.get rel ((m * bd) + m') <> '\000' in
  (* Claim 9 as stated quantifies over del(m) anywhere, but the ↦ edges
     only arise from deliveries inside the common destination members;
     when every member of the intersection crashes before delivering
     either message, the pair is legitimately unrelated. We check the
     claim in the form its uses need: a delivery of either message at a
     common member relates the pair. *)
  let delivered_at_common common m =
    Pset.exists (fun p -> Trace.delivered_at tr ~p ~m) common
  in
  List.fold_left
    (fun acc m ->
      let* () = acc in
      List.fold_left
        (fun acc m' ->
          let* () = acc in
          let common =
            Pset.inter (Outcome_index.dst cx m) (Outcome_index.dst cx m')
          in
          if m >= m' then Ok ()
          else if
            (not (Pset.is_empty common))
            && (delivered_at_common common m || delivered_at_common common m')
            && not (related m m')
          then fail "claim 9: delivered m%d and m%d are not ↦-related" m m'
          else Ok ())
        (Ok ()) ids)
    (Ok ()) ids

let claim10 outcome =
  let cx = Outcome_index.make outcome in
  List.fold_left
    (fun acc ((g, h), entries) ->
      let* () = acc in
      List.fold_left
        (fun acc (d, _, _) ->
          let* () = acc in
          match d with
          | Algorithm1.Msg m ->
              let dm = Outcome_index.gid cx m in
              if dm = g || dm = h then Ok ()
              else fail "claim 10: m%d in LOG_{g%d∩g%d}" m g h
          | Algorithm1.Pend _ | Algorithm1.Stab _ -> Ok ())
        (Ok ()) entries)
    (Ok ()) outcome.Runner.final_logs

let claim11 outcome =
  let cx = Outcome_index.make outcome in
  List.fold_left
    (fun acc ((g, h), entries) ->
      let* () = acc in
      let msgs =
        List.filter_map
          (function Algorithm1.Msg m, _, _ -> Some m | _ -> None)
          entries
      in
      List.fold_left
        (fun acc m ->
          let* () = acc in
          List.fold_left
            (fun acc m' ->
              let* () = acc in
              if m >= m' then Ok ()
              else
                let ok x = x = g || x = h in
                if ok (Outcome_index.gid cx m) && ok (Outcome_index.gid cx m')
                then Ok ()
                else fail "claim 11: m%d, m%d share LOG_{g%d∩g%d}" m m' g h)
            (Ok ()) msgs)
        (Ok ()) msgs)
    (Ok ()) outcome.Runner.final_logs

let claim12 outcome =
  let cx = Outcome_index.make outcome in
  List.fold_left
    (fun acc (p, m, _, _) ->
      let* () = acc in
      if Pset.mem p (Outcome_index.dst cx m) then Ok ()
      else fail "claim 12: p%d delivered m%d outside dst" p m)
    (Ok ())
    (Trace.deliveries outcome.Runner.trace)

let claim13 outcome =
  let cx = Outcome_index.make outcome in
  (* Per destination group, the set of message ids in LOG_g; built on
     first use so each log is scanned once instead of per delivery. *)
  let memo = Hashtbl.create 8 in
  let log_has g m =
    let tbl =
      match Hashtbl.find_opt memo g with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          (match List.assoc_opt (g, g) outcome.Runner.final_logs with
          | Some entries ->
              List.iter
                (fun (d, _, _) ->
                  match d with
                  | Algorithm1.Msg m' -> Hashtbl.replace tbl m' ()
                  | _ -> ())
                entries
          | None -> ());
          Hashtbl.replace memo g tbl;
          tbl
    in
    Hashtbl.mem tbl m
  in
  List.fold_left
    (fun acc (_, m, _, _) ->
      let* () = acc in
      let g = Outcome_index.gid cx m in
      if log_has g m then Ok ()
      else fail "claim 13: delivered m%d missing from LOG_g%d" m g)
    (Ok ())
    (Trace.deliveries outcome.Runner.trace)

let expected_progression =
  [ Trace.Pending; Trace.Commit; Trace.Stable; Trace.Delivered ]

let claim14 outcome =
  let tr = outcome.Runner.trace in
  List.fold_left
    (fun acc (p, m, _, _) ->
      let* () = acc in
      let hist = Trace.phase_history tr ~p ~m in
      if hist = expected_progression then Ok ()
      else fail "claim 14: m%d at p%d skipped a phase" m p)
    (Ok ()) (Trace.deliveries tr)

let claim15 outcome =
  let tr = outcome.Runner.trace in
  let by_pm = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Phase_change { m; p; phase; _ } ->
          Hashtbl.replace by_pm (p, m)
            (phase :: (try Hashtbl.find by_pm (p, m) with Not_found -> []))
      | Trace.Deliver { m; p; _ } ->
          Hashtbl.replace by_pm (p, m)
            (Trace.Delivered :: (try Hashtbl.find by_pm (p, m) with Not_found -> []))
      | _ -> ())
    tr.Trace.events;
  (* Fold in sorted (p, m) order so the first failure reported does
     not depend on Hashtbl iteration order. *)
  Hashtbl.fold (fun k hist acc -> (k, hist) :: acc) by_pm []
  |> List.sort (fun (k, _) (k', _) -> compare_key k k')
  |> List.fold_left
       (fun acc ((p, m), hist) ->
         let* () = acc in
         let hist = List.rev hist in
         let rec monotone last = function
           | [] -> true
           | ph :: rest ->
               Trace.phase_rank ph > last && monotone (Trace.phase_rank ph) rest
         in
         if monotone (-1) hist then Ok ()
         else fail "claim 15: phase of m%d regressed at p%d" m p)
       (Ok ())

let all outcome =
  [
    ("claim 2", claim2 outcome);
    ("claim 3", claim3 outcome);
    ("claim 4", claim4 outcome);
    ("claim 5", claim5 outcome);
    ("claim 6", claim6 outcome);
    ("claim 7", claim7 outcome);
    ("claim 8", claim8 outcome);
    ("claim 9", claim9 outcome);
    ("claim 10", claim10 outcome);
    ("claim 11", claim11 outcome);
    ("claim 12", claim12 outcome);
    ("claim 13", claim13 outcome);
    ("claim 14", claim14 outcome);
    ("claim 15", claim15 outcome);
  ]
