type 'a entry = { datum : 'a; mutable position : int; mutable is_locked : bool }

(* The log keeps, besides the position table, an ascending index:

   - [index.(0 .. len - 1)] holds every entry record in increasing log
     order [<_L]. An [append] pushes at the end in amortized O(1) (the
     fresh datum sits at [max_pos + 1], strictly above everything
     else); a position-raising [bump_and_lock] is the only operation
     that moves a record: it shifts the records it overtakes down by
     one slot (O(distance moved)). Carrying the records in the index
     is what keeps prefix walks allocation- and hash-lookup-free:
     guards compare [position] fields directly instead of re-resolving
     each datum through [table].
   - Positions in the index are non-decreasing, so a walk may start
     from the first entry at or above a given slot (binary search)
     instead of the lowest entry. [fronts] holds those starting slots
     per caller-chosen walk ([first_before_front]), grown on first use.
   - [snap] caches [snapshot]: [None] after any mutation that changes
     what it lists, including a lock that leaves the order untouched.
     Between such mutations every [snapshot] call returns the same
     physical list.

   The index relies on [compare] being the a-priori *total* order of
   the specification: distinct data never compare equal (the tie-break
   of [<_L] must be able to order any two data sharing a slot). *)
type 'a t = {
  compare : 'a -> 'a -> int;
  table : ('a, 'a entry) Hashtbl.t;
  mutable max_pos : int;
  mutable index : 'a entry array;
  mutable len : int;
  mutable snap : ('a * int * bool) list option;
  mutable fronts : int array;
}

let create ~compare:cmp =
  {
    compare = cmp;
    table = Hashtbl.create 16;
    max_pos = 0;
    index = [||];
    len = 0;
    snap = Some [];
    fronts = [||];
  }

(* Fresh entry records (they are mutated in place), a fresh table over
   them, and the index rebuilt in the same order; [snap] is an
   immutable list and is shared, so an unchanged log keeps returning
   the physically same snapshot across the copy. *)
let copy log =
  let table = Hashtbl.create (max 16 (Hashtbl.length log.table)) in
  let index =
    Array.init log.len (fun i ->
        let e = log.index.(i) in
        let e' = { e with position = e.position } in
        Hashtbl.replace table e.datum e';
        e')
  in
  { log with table; index; fronts = Array.copy log.fronts }

let head log = log.max_pos + 1

let mem log d = Hashtbl.mem log.table d

let pos log d =
  match Hashtbl.find_opt log.table d with None -> 0 | Some e -> e.position

let append log d =
  match Hashtbl.find_opt log.table d with
  | Some e -> e.position
  | None ->
      let p = head log in
      let e = { datum = d; position = p; is_locked = false } in
      Hashtbl.replace log.table d e;
      log.max_pos <- p;
      if log.len = Array.length log.index then begin
        let grown = Array.make (max 8 (2 * log.len)) e in
        Array.blit log.index 0 grown 0 log.len;
        log.index <- grown
      end;
      log.index.(log.len) <- e;
      log.len <- log.len + 1;
      log.snap <- None;
      p

let locked log d =
  match Hashtbl.find_opt log.table d with
  | None -> false
  | Some e -> e.is_locked

(* [e' <_L] the slot [(position, datum)]. *)
let below log e' ~position ~datum =
  e'.position < position
  || (e'.position = position && log.compare e'.datum datum < 0)

(* The index of the first entry not below [(position, datum)]. *)
let lower_bound log ~position ~datum =
  let lo = ref 0 and hi = ref log.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if below log log.index.(mid) ~position ~datum then lo := mid + 1
    else hi := mid
  done;
  !lo

(* The index of the first entry at or above slot [position]. *)
let first_at log position =
  let lo = ref 0 and hi = ref log.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if log.index.(mid).position < position then lo := mid + 1 else hi := mid
  done;
  !lo

let bump_and_lock log d k =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg "Log.bump_and_lock: datum not in the log"
  | Some e ->
      if not e.is_locked then begin
        if k > e.position then begin
          (* Raise [e] to slot [k], shifting down every entry it
             overtakes: the only operation that reorders the index. *)
          let i = ref (lower_bound log ~position:e.position ~datum:d) in
          e.position <- k;
          log.max_pos <- max log.max_pos k;
          while
            !i + 1 < log.len
            && below log log.index.(!i + 1) ~position:k ~datum:d
          do
            log.index.(!i) <- log.index.(!i + 1);
            incr i
          done;
          log.index.(!i) <- e
        end;
        e.is_locked <- true;
        log.snap <- None
      end

let lt log d d' =
  let e = Hashtbl.find log.table d and e' = Hashtbl.find log.table d' in
  below log e ~position:e'.position ~datum:d'

let fold_entries log f init =
  let acc = ref init in
  for i = 0 to log.len - 1 do
    acc := f !acc log.index.(i).datum
  done;
  !acc

let entries log = List.rev (fold_entries log (fun acc d -> d :: acc) [])

let snapshot log =
  match log.snap with
  | Some s -> s
  | None ->
      let s = ref [] in
      for i = log.len - 1 downto 0 do
        let e = log.index.(i) in
        s := (e.datum, e.position, e.is_locked) :: !s
      done;
      log.snap <- Some !s;
      !s

let find_exn name log d =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg (name ^ ": datum not in the log")
  | Some e -> e

(* Strict predecessors are a prefix of the ascending index: walk it and
   stop at the first datum not below [d] — O(predecessors), not
   O(|log| log |log|). *)
let fold_before log d f init =
  let e = find_exn "Log.fold_before" log d in
  let acc = ref init and i = ref 0 in
  while !i < log.len && below log log.index.(!i) ~position:e.position ~datum:d do
    acc := f !acc log.index.(!i).datum;
    incr i
  done;
  !acc

let forall_before log d check =
  let e = find_exn "Log.forall_before" log d in
  let rec go i =
    i >= log.len
    || (not (below log log.index.(i) ~position:e.position ~datum:d))
    || (check log.index.(i).datum && go (i + 1))
  in
  go 0

let first_before log d pred =
  let e = find_exn "Log.first_before" log d in
  let rec go i =
    if i >= log.len then None
    else
      let e' = log.index.(i) in
      if not (below log e' ~position:e.position ~datum:d) then None
      else if pred e'.datum then Some e'.datum
      else go (i + 1)
  in
  go 0

let first_before_front log ~slot d pred =
  let e = find_exn "Log.first_before_front" log d in
  if slot >= Array.length log.fronts then begin
    (* Power-of-two sizes: few size classes in the major heap. *)
    let rec size c = if c > slot then c else size (2 * c) in
    let grown = Array.make (size 8) 0 in
    Array.blit log.fronts 0 grown 0 (Array.length log.fronts);
    log.fronts <- grown
  end;
  let from = log.fronts.(slot) in
  let advance p = if p > from then log.fronts.(slot) <- p in
  let rec go i =
    if i >= log.len then (advance e.position; None)
    else
      let e' = log.index.(i) in
      if not (below log e' ~position:e.position ~datum:d) then begin
        advance e.position;
        None
      end
      else if pred e'.datum then begin
        advance e'.position;
        Some e'.datum
      end
      else go (i + 1)
  in
  go (first_at log from)

let before log d = List.rev (fold_before log d (fun acc d' -> d' :: acc) [])

let length log = Hashtbl.length log.table
