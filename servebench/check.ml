(* Checks what the benchmark printed against BENCHMARK.json.

     check.exe BENCHMARK.json trace0 OUT...  every end_to_end metric, with its unit
     check.exe BENCHMARK.json trace1 OUT...  every per_layer metric, with its unit
     check.exe BENCHMARK.json gate OUT...    the correctness gate tripped

   OUT is a file holding the benchmark's standard output; its last line is
   the result object. Exits 1 with a message on the first mismatch. *)

module Protocol = Pmw_server.Protocol

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let json path s =
  match Protocol.json_of_string s with Ok j -> j | Error e -> fail "%s: %s" path e

let member path k = function
  | Protocol.Obj kv -> (
      match List.assoc_opt k kv with Some v -> v | None -> fail "%s: no %S" path k)
  | _ -> fail "%s: %S is not in an object" path k

let str path = function Protocol.Str s -> s | _ -> fail "%s: expected a string" path
let num path = function Protocol.Num f -> f | _ -> fail "%s: expected a number" path

(* [(name, unit)] of one metric list in BENCHMARK.json. *)
let declared bench key =
  match member "BENCHMARK.json" key bench with
  | Protocol.Arr l ->
      List.map
        (fun m -> (str key (member key "name" m), str key (member key "unit" m)))
        l
  | _ -> fail "BENCHMARK.json: %s is not a list" key

let result path =
  let lines = String.split_on_char '\n' (String.trim (read path)) in
  let r = json path (List.nth lines (List.length lines - 1)) in
  (match r with
  | Protocol.Obj kv ->
      let keys = List.sort compare (List.map fst kv) in
      if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
        fail "%s: result keys are %s" path (String.concat "," keys)
  | _ -> fail "%s: the last line is not an object" path);
  r

let check_metrics bench key path =
  let r = result path in
  if member path "correct" r <> Protocol.Bool true then fail "%s: the gate failed" path;
  if num path (member path "attempted" r) < 1. then fail "%s: nothing attempted" path;
  let printed =
    match member path "metrics" r with
    | Protocol.Obj kv -> kv
    | _ -> fail "%s: metrics is not an object" path
  in
  let want = declared bench key in
  if List.length printed <> List.length want then
    fail "%s: %d metrics printed, %d declared under %s" path (List.length printed)
      (List.length want) key;
  List.iter
    (fun (name, unit_) ->
      match List.assoc_opt name printed with
      | None -> fail "%s: metric %s missing" path name
      | Some m ->
          if str name (member name "unit" m) <> unit_ then
            fail "%s: %s has the wrong unit" path name;
          if not (Float.is_finite (num name (member name "value" m))) then
            fail "%s: %s is not a finite number" path name)
    want

let check_gate path =
  let r = result path in
  if member path "correct" r <> Protocol.Bool false then fail "%s: the gate did not trip" path;
  if num path (member path "failed" r) < 1. then fail "%s: no request counted as failed" path

let () =
  match Array.to_list Sys.argv with
  | _ :: bench :: mode :: outs ->
      let bench = json bench (read bench) in
      List.iter
        (fun out ->
          match mode with
          | "trace0" -> check_metrics bench "end_to_end" out
          | "trace1" -> check_metrics bench "per_layer" out
          | "gate" -> check_gate out
          | m -> fail "unknown mode %s" m)
        outs
  | _ -> fail "usage: check.exe BENCHMARK.json trace0|trace1|gate OUT..."
