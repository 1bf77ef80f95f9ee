let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  summed_ns : int;
}

(* Span ids come from one atomic counter, so recorders filled on pool
   workers merge into their parent's without renumbering. *)
let next_id = Atomic.make 1
let root = 0

type frame = { fid : int; mutable fsummed : int }

type t = {
  mutable spans : span list;
  mutable stack : frame list;
  base : int;
  sums : (string, int ref * int ref) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
}

let create ?(parent = root) () =
  {
    spans = [];
    stack = [];
    base = parent;
    sums = Hashtbl.create 4;
    counts = Hashtbl.create 16;
  }

let current t = match t.stack with f :: _ -> f.fid | [] -> t.base

let with_span t name f =
  let fr = { fid = Atomic.fetch_and_add next_id 1; fsummed = 0 } in
  let parent = current t in
  t.stack <- fr :: t.stack;
  let start_ns = now_ns () in
  let finish () =
    let stop_ns = now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id = fr.fid; parent; name; start_ns; stop_ns; summed_ns = fr.fsummed }
      :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let cell tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
      let c = mk () in
      Hashtbl.add tbl name c;
      c

(* Time spent in [calls] calls summed by the caller, inside the
   innermost open span: it counts as that span's child, not its self
   time. *)
let add_sum t name ~ns ~calls =
  let total, n = cell t.sums name (fun () -> (ref 0, ref 0)) in
  total := !total + ns;
  n := !n + calls;
  match t.stack with f :: _ -> f.fsummed <- f.fsummed + ns | [] -> ()

let count t name k =
  let c = cell t.counts name (fun () -> ref 0) in
  c := !c + k

let merge ~into t =
  into.spans <- List.rev_append t.spans into.spans;
  Hashtbl.iter
    (fun name (total, calls) ->
      let tot, cl = cell into.sums name (fun () -> (ref 0, ref 0)) in
      tot := !tot + !total;
      cl := !cl + !calls)
    t.sums;
  Hashtbl.iter (fun name c -> count into name !c) t.counts

let spans t =
  List.sort (fun a b -> Int.compare a.start_ns b.start_ns) t.spans

let sum_ns t name =
  match Hashtbl.find_opt t.sums name with Some (tot, _) -> !tot | None -> 0

let get_count t name =
  match Hashtbl.find_opt t.counts name with Some c -> !c | None -> 0

(* Length of the union of [intervals] clipped to [lo, hi): children of a
   pool span run on several domains at once and may overlap. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun (a, b) -> (max a lo, min b hi)) intervals)
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        if b <= a then (total, cur)
        else
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
          | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match cur with Some (a, b) -> total + (b - a) | None -> total

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl s.parent) in
      Hashtbl.replace tbl s.parent (s :: l))
    spans;
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

let duration s = s.stop_ns - s.start_ns

let self_ns ~children s =
  let kids = List.map (fun c -> (c.start_ns, c.stop_ns)) (children s.id) in
  duration s - covered ~lo:s.start_ns ~hi:s.stop_ns kids - s.summed_ns

(* Per span name: (inclusive ns, self ns, number of spans). *)
let by_name spans =
  let children = children_of spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let incl, self, n =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        (incl + duration s, self + self_ns ~children s, n + 1))
    spans;
  tbl

let to_json s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"name":"%s","start_ns":%d,"end_ns":%d,"summed_ns":%d}|}
    s.id s.parent s.name s.start_ns s.stop_ns s.summed_ns
