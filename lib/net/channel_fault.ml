(* Channel-fault specification: fair-loss drop, duplication and bounded
   delay, plus the stubborn-retransmission switch that restores the
   paper's reliable-link assumption on top of fair-loss.

   Every random decision is drawn from a keyed splitmix stream that is a
   pure function of (fault seed, link key) — never from the engine's
   scheduling RNG — so the fate of a logical transmission is independent
   of the schedule that delivers it. That is what keeps replay,
   shrinking and pinned-schedule exploration deterministic. *)

type spec = {
  drop : int;  (** per-copy loss probability, in [den]-ths (basis points) *)
  dup : int;  (** duplication probability, in [den]-ths *)
  delay : int;  (** max extra delivery delay (ticks); enables reorder *)
  stubborn : bool;  (** retransmit lost copies until one gets through *)
}

let den = 10_000
let retrans_cap = 32
let max_delay = 64
let none = { drop = 0; dup = 0; delay = 0; stubborn = false }
let is_none s = s.drop = 0 && s.dup = 0 && s.delay = 0

let lossy s = s.drop > 0 && not s.stubborn

let equal a b =
  a.drop = b.drop && a.dup = b.dup && a.delay = b.delay
  && Bool.equal a.stubborn b.stubborn

let validate s =
  if s.drop < 0 || s.drop >= den then
    Error
      (Printf.sprintf "fault drop must be in [0, %d) (fair loss), got %d" den
         s.drop)
  else if s.dup < 0 || s.dup > den then
    Error (Printf.sprintf "fault dup must be in [0, %d], got %d" den s.dup)
  else if s.delay < 0 || s.delay > max_delay then
    Error
      (Printf.sprintf "fault delay must be in [0, %d], got %d" max_delay
         s.delay)
  else Ok ()

let latency_bound s =
  if is_none s then 0 else s.delay + (if s.stubborn then retrans_cap + 1 else 1)

(* ---------------- codec -------------------------------------------- *)

let to_string s =
  if equal s none then "none"
  else
    Printf.sprintf "drop %d dup %d delay %d %s" s.drop s.dup s.delay
      (if s.stubborn then "stubborn" else "plain")

let of_string text =
  (* Token grammar shared by the scenario codec and the CLI: tokens
     separated by spaces, commas or '=' signs. Either the single token
     "none", or any subset of [drop N] [dup N] [delay N] and a trailing
     [plain|stubborn] mode, e.g. "drop=3000,delay=2,stubborn". *)
  let tokens =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char ',')
    |> List.concat_map (String.split_on_char '=')
    |> List.filter (fun t -> t <> "")
  in
  let num key v k =
    match int_of_string_opt v with
    | Some i -> k i
    | None -> Error (Printf.sprintf "fault %s: expected an integer, got %S" key v)
  in
  let rec go acc = function
    | [] -> Ok acc
    | "drop" :: v :: rest -> num "drop" v (fun i -> go { acc with drop = i } rest)
    | "dup" :: v :: rest -> num "dup" v (fun i -> go { acc with dup = i } rest)
    | "delay" :: v :: rest ->
        num "delay" v (fun i -> go { acc with delay = i } rest)
    | "plain" :: rest -> go { acc with stubborn = false } rest
    | "stubborn" :: rest -> go { acc with stubborn = true } rest
    | tok :: _ -> Error (Printf.sprintf "fault spec: unknown token %S" tok)
  in
  match tokens with
  | [ "none" ] -> Ok none
  | [] -> Error "fault spec: empty"
  | tokens -> (
      match go none tokens with
      | Error _ as e -> e
      | Ok s -> ( match validate s with Ok () -> Ok s | Error e -> Error e))

(* ---------------- link statistics ---------------------------------- *)

type stats = {
  sent : int;  (** logical transmissions *)
  dropped : int;  (** wire copies lost *)
  duplicated : int;  (** extra copies delivered *)
  retransmissions : int;  (** stubborn resends *)
  lost : int;  (** logical transmissions that never arrived *)
}

let stats_zero =
  { sent = 0; dropped = 0; duplicated = 0; retransmissions = 0; lost = 0 }

(* ---------------- keyed randomness --------------------------------- *)

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let keyed ~seed ks =
  let h =
    List.fold_left
      (fun acc k -> mix64 (Int64.add (Int64.logxor acc (Int64.of_int k)) golden))
      (mix64 (Int64.add (Int64.of_int seed) golden))
      ks
  in
  Rng.make (Int64.to_int h)

(* ---------------- per-transmission fate ---------------------------- *)

type fate = {
  arrivals : int list;  (** extra delay of each delivered copy *)
  retransmissions : int;
  wire_dropped : int;
  wire_duplicated : int;
}

let draw_hit rng p = p > 0 && Rng.int rng den < p
let draw_delay spec rng = if spec.delay = 0 then 0 else Rng.int rng (spec.delay + 1)

let fate spec rng =
  (* Draw order is part of the replay contract: loss draws first (one
     per wire copy), then the surviving copy's delay, then the
     duplication draw and the duplicate's own delay. A stubborn sender
     retransmits once per tick until a copy gets through; after
     [retrans_cap] consecutive losses fair-loss forces the copy through
     (the probability mass beyond the cap is folded into the last
     retry, so stubborn links are reliable by construction). *)
  let rec survive attempt =
    if not (draw_hit rng spec.drop) then Some attempt
    else if not spec.stubborn then None
    else if attempt >= retrans_cap then Some attempt
    else survive (attempt + 1)
  in
  match survive 0 with
  | None ->
      { arrivals = []; retransmissions = 0; wire_dropped = 1; wire_duplicated = 0 }
  | Some r ->
      let d0 = r + draw_delay spec rng in
      let dup = draw_hit rng spec.dup in
      let arrivals =
        if dup then [ d0; r + draw_delay spec rng ] else [ d0 ]
      in
      {
        arrivals;
        retransmissions = r;
        wire_dropped = r;
        wire_duplicated = (if dup then 1 else 0);
      }

let record st f =
  {
    sent = st.sent + 1;
    dropped = st.dropped + f.wire_dropped;
    duplicated = st.duplicated + f.wire_duplicated;
    retransmissions = st.retransmissions + f.retransmissions;
    lost = (st.lost + match f.arrivals with [] -> 1 | _ :: _ -> 0);
  }
