(* Shared helpers for the bench executables that merge sections into
   BENCH_pmw.json (load.exe writes "server", chaos.exe writes "chaos").
   Lives in its own module because dune links every non-main module of this
   directory into each executable. *)

module Protocol = Pmw_server.Protocol

(* Pretty printer for the merged document: objects multi-line down to the
   section level, arrays of objects one element per line, leaves compact —
   close enough to bench/main.ml's hand formatting to diff sanely. *)
let rec pretty ~depth buf j =
  let indent n = String.make (2 * n) ' ' in
  let compact j = Buffer.add_string buf (Protocol.json_to_string j) in
  match j with
  | Protocol.Obj fields when depth < 2 && fields <> [] ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (indent (depth + 1));
          Buffer.add_string buf (Protocol.json_to_string (Protocol.Str k));
          Buffer.add_string buf ": ";
          pretty ~depth:(depth + 1) buf v)
        fields;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf "}"
  | Protocol.Arr items
    when items <> [] && List.for_all (function Protocol.Obj _ -> true | _ -> false) items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (indent (depth + 1));
          compact item)
        items;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (indent depth);
      Buffer.add_string buf "]"
  | j -> compact j

(* Document schema. v3 added the per-leg "latency" block to the "server"
   section (p50/p90/p99/max per run leg, not just throughput). *)
let schema = "pmw-kernel-bench/3"

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* Set each top-level field in [updates] of the pmw-kernel-bench document
   at [path] — in place when present, appended otherwise — creating a
   minimal skeleton when the file is absent or unparsable. Every other
   section (the kernel table, "server", "chaos", ...) is preserved
   byte-for-value; the schema tag is upgraded to the current version,
   since the writer emits the current section shapes. *)
let merge_fields ~path ~command updates =
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      match Protocol.json_of_string raw with Ok (Protocol.Obj fields) -> fields | _ -> []
    end
    else []
  in
  let fields =
    if existing = [] then
      [
        ("command", Protocol.Str command);
        ( "meta",
          Protocol.Obj
            [
              ("timestamp", Protocol.Str (iso8601_utc ()));
              ("ocaml", Protocol.Str Sys.ocaml_version);
            ] );
      ]
    else List.remove_assoc "schema" existing
  in
  let replaced =
    List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k updates) ~default:v)) fields
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k fields)) updates in
  let buf = Buffer.create 4096 in
  pretty ~depth:0 buf (Protocol.Obj ((("schema", Protocol.Str schema) :: replaced) @ added));
  Buffer.add_char buf '\n';
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let merge_section ~path ~section ~command json =
  merge_fields ~path ~command [ (section, json) ];
  Printf.printf "wrote %s (%s section)\n%!" path section

(* Query names the stock `pmw_cli serve` regression workload (d=2)
   registers; `serve` prints its registered names at startup. *)
let default_panel =
  [|
    "0.25*squared";
    "huber(0.5)";
    "absolute";
    "quantile(0.25)";
    "quantile(0.75)";
    "0.25*squared|mask=01";
    "0.25*squared|mask=10";
  |]
