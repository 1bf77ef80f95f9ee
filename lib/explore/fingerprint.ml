type t = string

let compare = String.compare
let equal = String.equal

let to_hex (d : t) = Digest.to_hex d

(* The rendering is built with plain buffer appends (no format
   interpretation): it runs once per explored node. Non-negative ints —
   every id, position and delay — are written digit by digit, which
   spells them exactly as [string_of_int] without its C call. *)
let rec add_int b i =
  if i < 0 then Buffer.add_string b (string_of_int i)
  else begin
    if i >= 10 then add_int b (i / 10);
    Buffer.add_char b (Char.chr (Char.code '0' + (i mod 10)))
  end

let add_ints b sep l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b sep;
      add_int b x)
    l

let datum_tag b d =
  match d with
  | Algorithm1.Msg m ->
      Buffer.add_char b 'm';
      add_int b m
  | Algorithm1.Pend (m, h, i) ->
      Buffer.add_char b 'p';
      add_ints b '.' [ m; h; i ]
  | Algorithm1.Stab (m, h) ->
      Buffer.add_char b 's';
      add_ints b '.' [ m; h ]

(* Per-process delivery orders (oldest first) in one pass over the
   event list, without building the trace's lookup index. *)
let delivery_orders ~n st =
  let rev = Array.make n [] in
  List.iter
    (function
      | Trace.Deliver { m; p; _ } -> rev.(p) <- m :: rev.(p)
      | Trace.Invoke _ | Trace.Send _ | Trace.Phase_change _ -> ())
    (Algorithm1.trace st).Trace.events;
  Array.map List.rev rev

let render ~time ~topo ~msgs st =
  let b = Buffer.create 512 in
  let chr = Buffer.add_char b in
  (* A field: its tag, then its ints joined by '.'. *)
  let field tag ints =
    Buffer.add_string b tag;
    add_ints b '.' ints
  in
  field "t" [ time ];
  (* Shared logs: (datum, position, locked) in log order. [log_keys]
     returns normalised (g, h) pairs in a fixed order. *)
  List.iter
    (fun ((g, h) as key) ->
      field "|L" [ g; h ];
      chr ':';
      List.iter
        (fun (d, pos, locked) ->
          datum_tag b d;
          chr '@';
          add_int b pos;
          chr (if locked then '!' else '.');
          chr ';')
        (Algorithm1.log_snapshot st key))
    (Algorithm1.log_keys st);
  (* Prop. 1 shared per-group lists and the listed (= invoked) flags. *)
  List.iter
    (fun g ->
      field "|S" [ g ];
      chr ':';
      add_ints b ',' (Algorithm1.list_snapshot st g))
    (Topology.gids topo);
  for m = 0 to msgs - 1 do
    field "|i" [ m ];
    chr (if Algorithm1.listed st ~m then 'y' else 'n')
  done;
  (* Consensus decisions, in the canonical (message, family-key) order. *)
  List.iter
    (fun ((m, fam), v) ->
      field "|C" [ m ];
      chr '.';
      add_ints b '.' fam;
      chr '=';
      add_int b v)
    (Algorithm1.consensus_decisions st);
  (* Pending announcement visibility (only under an active fault spec,
     so fault-free fingerprints are byte-identical to the pre-fault
     ones): for every (process, message) still waiting on its copy,
     the remaining delay relative to [time] — or a lost marker. *)
  let n = Topology.n topo in
  (if not (Channel_fault.is_none (Algorithm1.channel_faults st)) then
     for p = 0 to n - 1 do
       for m = 0 to msgs - 1 do
         match Algorithm1.visibility st ~pid:p ~m ~time with
         | `Visible -> ()
         | `Pending d ->
             field "|v" [ p; m ];
             chr '+';
             add_int b d
         | `Lost ->
             field "|v" [ p; m ];
             Buffer.add_string b " x"
       done
     done);
  (* Per-process protocol phases and delivery orders. *)
  let orders = delivery_orders ~n st in
  for p = 0 to n - 1 do
    field "|f" [ p ];
    chr ':';
    for m = 0 to msgs - 1 do
      add_int b (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
    done;
    field "|D" [ p ];
    chr ':';
    add_ints b ',' orders.(p)
  done;
  Buffer.contents b

let of_state ~time ~topo ~msgs st : t =
  Digest.string (render ~time ~topo ~msgs st)
