(* The run's full report, written under .perfbench/ in the checkout: the
   environment, sample quartiles, every metric (both catalogues, with
   the bases of every ratio) and the spans of the first traced
   iteration. *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let dir = ".perfbench"

let write ~tag (r : Bench.run) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (tag ^ ".json") in
  let obj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) kvs) ^ "}" in
  let arr xs = "[" ^ String.concat "," xs ^ "]" in
  let body =
    obj
      [
        ("correct", string_of_bool r.correct);
        ("attempted", string_of_int r.attempted);
        ("failed", string_of_int r.failed);
        ("notes", arr (List.map str r.notes));
        ("env", obj (List.map (fun (k, v) -> (k, str v)) r.env));
        ( "quartiles",
          obj (List.map (fun (k, q) -> (k, arr (List.map string_of_int q))) r.quartiles) );
        ("metrics", obj (List.map (fun (k, v) -> (k, Metrics.number v)) r.values));
        ("spans", arr (List.map Spans.to_json r.spans));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc body;
      output_char oc '\n');
  path
