(* Offline side of the telemetry layer: read a JSONL trace back into events,
   check its structural invariants, and aggregate it into the per-phase
   tables the CLI's [stats] subcommand prints.

   The parser handles exactly the flat-object subset [Telemetry.event_to_json]
   emits: one object per line, string/number/bool/null values, no nesting.
   Keeping it in-tree (~100 lines) is what lets the library stay
   dependency-free. *)

let ( let* ) = Result.bind

(* --- a minimal flat-JSON-object parser --- *)

type scalar = J_int of int | J_float of float | J_bool of bool | J_str of string | J_null

let parse_error line what = Error (Printf.sprintf "line %d: %s" line what)

let parse_object ~line s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then begin
      advance ();
      Ok ()
    end
    else parse_error line (Printf.sprintf "expected %C at byte %d" c !pos)
  in
  let parse_string () =
    let* () = expect '"' in
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error line "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            advance ();
            Ok (Buffer.contents b)
        | '\\' ->
            advance ();
            if !pos >= n then parse_error line "unterminated escape"
            else begin
              let* () =
                match s.[!pos] with
                | 'n' -> Ok (Buffer.add_char b '\n')
                | 'r' -> Ok (Buffer.add_char b '\r')
                | 't' -> Ok (Buffer.add_char b '\t')
                | 'u' ->
                    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
                    if !pos + 4 < n && String.for_all is_hex (String.sub s (!pos + 1) 4) then begin
                      let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
                      if code < 0x80 then Buffer.add_char b (Char.chr code)
                      else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
                      pos := !pos + 4;
                      Ok ()
                    end
                    else parse_error line (Printf.sprintf "bad \\u escape at byte %d" !pos)
                | c -> Ok (Buffer.add_char b c)
              in
              advance ();
              go ()
            end
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ()
  in
  let parse_scalar () =
    skip_ws ();
    match peek () with
    | Some '"' -> Result.map (fun v -> J_str v) (parse_string ())
    | Some 't' when !pos + 4 <= n && String.sub s !pos 4 = "true" ->
        pos := !pos + 4;
        Ok (J_bool true)
    | Some 'f' when !pos + 5 <= n && String.sub s !pos 5 = "false" ->
        pos := !pos + 5;
        Ok (J_bool false)
    | Some 'n' when !pos + 4 <= n && String.sub s !pos 4 = "null" ->
        pos := !pos + 4;
        Ok J_null
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          advance ()
        done;
        let tok = String.sub s start (!pos - start) in
        if tok = "" then parse_error line (Printf.sprintf "bad value at byte %d" start)
        else begin
          match int_of_string_opt tok with
          | Some i -> Ok (J_int i)
          | None -> (
              match float_of_string_opt tok with
              | Some v -> Ok (J_float v)
              | None -> parse_error line (Printf.sprintf "bad number %S" tok))
        end
    | None -> parse_error line "unexpected end of line"
  in
  let* () = expect '{' in
  let rec members acc =
    skip_ws ();
    match peek () with
    | Some '}' ->
        advance ();
        Ok (List.rev acc)
    | _ ->
        let* key = parse_string () in
        let* () = expect ':' in
        let* v = parse_scalar () in
        skip_ws ();
        let acc = (key, v) :: acc in
        if peek () = Some ',' then begin
          advance ();
          members acc
        end
        else
          let* () = expect '}' in
          Ok (List.rev acc)
  in
  let* obj = members [] in
  skip_ws ();
  if !pos <> n then parse_error line "trailing garbage after object" else Ok obj

(* --- object -> event --- *)

let to_value = function
  | J_int i -> Telemetry.Int i
  | J_float v -> Telemetry.Float v
  | J_bool v -> Telemetry.Bool v
  | J_str "nan" -> Telemetry.Float Float.nan
  | J_str "inf" -> Telemetry.Float Float.infinity
  | J_str "-inf" -> Telemetry.Float Float.neg_infinity
  | J_str s -> Telemetry.Str s
  | J_null -> Telemetry.Str "null"

let number what ~line = function
  | J_int i -> Ok (float_of_int i)
  | J_float v -> Ok v
  | _ -> parse_error line (Printf.sprintf "field %S is not a number" what)

let event_of_line ~line s =
  let* obj = parse_object ~line s in
  let field k = List.assoc_opt k obj in
  let* ts =
    match field "ts" with
    | Some v -> number "ts" ~line v
    | None -> parse_error line "missing \"ts\""
  in
  let* round =
    match field "round" with
    | Some (J_int i) -> Ok i
    | Some _ -> parse_error line "\"round\" is not an int"
    | None -> parse_error line "missing \"round\""
  in
  let* kind =
    match field "kind" with
    | Some (J_str k) -> (
        match Telemetry.kind_of_string k with
        | Some kind -> Ok kind
        | None -> parse_error line (Printf.sprintf "unknown kind %S" k))
    | Some _ | None -> parse_error line "missing or malformed \"kind\""
  in
  let* name =
    match field "name" with
    | Some (J_str n) -> Ok n
    | Some _ | None -> parse_error line "missing or malformed \"name\""
  in
  let fields =
    List.filter_map
      (fun (k, v) ->
        match k with
        | "ts" | "round" | "kind" | "name" -> None
        | k -> Some (k, to_value v))
      obj
  in
  Ok { Telemetry.ts; round; kind; name; fields }

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go line acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (line + 1) acc
        | s -> (
            match event_of_line ~line s with
            | Ok e -> go (line + 1) (e :: acc)
            | Error m -> Error m)
      in
      go 1 [])

(* --- structural validation --- *)

let float_field e name =
  match List.assoc_opt name e.Telemetry.fields with
  | Some (Telemetry.Float v) -> Some v
  | Some (Telemetry.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field e name =
  match List.assoc_opt name e.Telemetry.fields with Some (Telemetry.Int i) -> Some i | _ -> None

let str_field e name =
  match List.assoc_opt name e.Telemetry.fields with Some (Telemetry.Str s) -> Some s | _ -> None

(* Ledger sums replayed from the per-event costs; used both by [validate]
   (against the cumulative totals carried in the events) and by callers
   comparing a trace against a live accountant. *)
let ledger_totals events =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun e ->
      if e.Telemetry.kind = Telemetry.Debit then begin
        let eps = Option.value ~default:0. (float_field e "eps") in
        let delta = Option.value ~default:0. (float_field e "delta") in
        let prev =
          Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl e.Telemetry.name)
        in
        Hashtbl.replace tbl e.Telemetry.name (fst prev +. eps, snd prev +. delta)
      end)
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let validate events =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
  (* timestamps and rounds monotone *)
  let _ =
    List.fold_left
      (fun (ts, round, i) e ->
        if e.Telemetry.ts < ts -. 1e-9 then
          fail "event %d: timestamp went backwards (%.9f after %.9f)" i e.Telemetry.ts ts;
        if e.Telemetry.round >= 0 && e.Telemetry.round < round then
          fail "event %d: round id went backwards (%d after %d)" i e.Telemetry.round round;
        (Float.max ts e.Telemetry.ts, Int.max round e.Telemetry.round, i + 1))
      (0., -1, 0) events
  in
  (* span begin/end pairing with non-negative durations *)
  let open_spans = Hashtbl.create 32 in
  List.iteri
    (fun i e ->
      match e.Telemetry.kind with
      | Telemetry.Span_begin -> (
          match int_field e "id" with
          | None -> fail "event %d: span_begin without id" i
          | Some id ->
              if Hashtbl.mem open_spans id then fail "event %d: duplicate span id %d" i id
              else Hashtbl.add open_spans id e.Telemetry.name)
      | Telemetry.Span_end -> (
          match int_field e "id" with
          | None -> fail "event %d: span_end without id" i
          | Some id -> (
              match Hashtbl.find_opt open_spans id with
              | None -> fail "event %d: span_end for unopened id %d" i id
              | Some name ->
                  if name <> e.Telemetry.name then
                    fail "event %d: span id %d closes %S but opened %S" i id e.Telemetry.name name;
                  Hashtbl.remove open_spans id;
                  (match float_field e "dur_s" with
                  | Some d when d < 0. -> fail "event %d: negative span duration" i
                  | Some _ -> ()
                  | None -> fail "event %d: span_end without dur_s" i)))
      | _ -> ())
    events;
  if Hashtbl.length open_spans > 0 then begin
    Hashtbl.iter (fun id name -> fail "span %d (%s) never closed" id name) open_spans
  end;
  (* debit events: the carried cumulative totals must equal the replayed sum *)
  let running = Hashtbl.create 4 in
  List.iteri
    (fun i e ->
      if e.Telemetry.kind = Telemetry.Debit then begin
        let eps = Option.value ~default:0. (float_field e "eps") in
        let delta = Option.value ~default:0. (float_field e "delta") in
        let eps_sum, delta_sum =
          Option.value ~default:(0., 0.) (Hashtbl.find_opt running e.Telemetry.name)
        in
        let eps_sum = eps_sum +. eps and delta_sum = delta_sum +. delta in
        Hashtbl.replace running e.Telemetry.name (eps_sum, delta_sum);
        (match float_field e "eps_total" with
        | Some t when Float.abs (t -. eps_sum) > 1e-9 *. Float.max 1. eps_sum ->
            fail "event %d: ledger %S eps_total %.12g but replayed sum is %.12g" i e.Telemetry.name
              t eps_sum
        | _ -> ());
        match float_field e "delta_total" with
        | Some t when Float.abs (t -. delta_sum) > 1e-9 *. Float.max 1e-12 delta_sum ->
            fail "event %d: ledger %S delta_total %.12g but replayed sum is %.12g" i
              e.Telemetry.name t delta_sum
        | _ -> ()
      end)
    events;
  (* final-ledger marks, when present, must match the replayed sums *)
  let totals = ledger_totals events in
  List.iter
    (fun e ->
      if e.Telemetry.kind = Telemetry.Mark && e.Telemetry.name = "ledger.final" then begin
        match str_field e "ledger" with
        | None -> fail "ledger.final mark without a ledger tag"
        | Some tag -> (
            let eps = Option.value ~default:0. (float_field e "eps") in
            let delta = Option.value ~default:0. (float_field e "delta") in
            match List.assoc_opt tag totals with
            | None ->
                if eps <> 0. || delta <> 0. then
                  fail "ledger.final for %S but the trace has no debits under it" tag
            | Some (eps_sum, delta_sum) ->
                if Float.abs (eps -. eps_sum) > 1e-9 *. Float.max 1. eps_sum then
                  fail "ledger %S: final eps %.12g but trace debits sum to %.12g" tag eps eps_sum;
                if Float.abs (delta -. delta_sum) > 1e-9 *. Float.max 1e-12 delta_sum then
                  fail "ledger %S: final delta %.12g but trace debits sum to %.12g" tag delta
                    delta_sum)
      end)
    events;
  match !problem with None -> Ok () | Some m -> Error m

(* --- fleet stitching (stats --fleet) --- *)

(* One shard-side leg of a routed request: a "server.request" span carrying
   the router's trace id (and the router span id as parent). The begin event
   holds the identifying fields; the end event (joined by span id within the
   same instance's stream) holds duration and outcome. A leg with no end
   event is a span the shard never closed — a crash mid-request. *)
type leg = {
  lg_tag : string;  (* the emitting instance's tag ("shard0"), "?" if untagged *)
  lg_span : int;
  lg_parent_span : int;  (* router span id from req_pspan; -1 if absent *)
  lg_ts : float;
  lg_dur_s : float option;
  lg_ok : bool option;
}

type tree = {
  tr_trace : string;
  tr_root : Telemetry.event option;  (* the router's fleet.request mark *)
  tr_span : int;  (* router span id; -1 when the root is missing *)
  tr_status : string;
  tr_shards : int list;  (* covering ids, from the root *)
  tr_missing : int list;
  tr_coverage : float option;
  tr_spent : (float * float) option;
  tr_legs : leg list;  (* ascending shard-local timestamp *)
  tr_complete : bool;
      (* root present, non-empty contributing set, and every contributing
         shard has a leg *)
}

let parse_id_list s =
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.filter_map int_of_string_opt
    |> List.sort_uniq compare

(* Collect the server.request legs of one instance's event stream, joining
   span begin/end by id. Only spans stamped with a trace id participate —
   un-traced requests (direct broker clients) stay out of the forest. *)
let legs_of_stream events =
  let open_spans = Hashtbl.create 32 in
  let legs = ref [] in
  List.iter
    (fun e ->
      match e.Telemetry.kind with
      | Telemetry.Span_begin when e.Telemetry.name = "server.request" -> (
          match (int_field e "id", str_field e "trace") with
          | Some id, Some trace ->
              let leg =
                {
                  lg_tag = Option.value ~default:"?" (str_field e "tag");
                  lg_span = id;
                  lg_parent_span = Option.value ~default:(-1) (int_field e "parent_span");
                  lg_ts = e.Telemetry.ts;
                  lg_dur_s = None;
                  lg_ok = None;
                }
              in
              Hashtbl.replace open_spans id (trace, leg)
          | _ -> ())
      | Telemetry.Span_end -> (
          match int_field e "id" with
          | Some id -> (
              match Hashtbl.find_opt open_spans id with
              | Some (trace, leg) ->
                  Hashtbl.remove open_spans id;
                  legs :=
                    ( trace,
                      {
                        leg with
                        lg_dur_s = float_field e "dur_s";
                        lg_ok =
                          (match List.assoc_opt "ok" e.Telemetry.fields with
                          | Some (Telemetry.Bool b) -> Some b
                          | _ -> None);
                      } )
                    :: !legs
              | None -> ())
          | None -> ())
      | _ -> ())
    events;
  (* spans left open: the shard died mid-request — keep them, they are the
     interesting legs *)
  Hashtbl.iter (fun _ (trace, leg) -> legs := (trace, leg) :: !legs) open_spans;
  !legs

let stitch ~fleet ~shards =
  let by_trace = Hashtbl.create 64 in
  let order = ref [] in
  let tree_for trace =
    match Hashtbl.find_opt by_trace trace with
    | Some t -> t
    | None ->
        let t =
          ref
            {
              tr_trace = trace;
              tr_root = None;
              tr_span = -1;
              tr_status = "?";
              tr_shards = [];
              tr_missing = [];
              tr_coverage = None;
              tr_spent = None;
              tr_legs = [];
              tr_complete = false;
            }
        in
        Hashtbl.add by_trace trace t;
        order := trace :: !order;
        t
  in
  List.iter
    (fun e ->
      if e.Telemetry.kind = Telemetry.Mark && e.Telemetry.name = "fleet.request" then
        match str_field e "trace" with
        | None -> ()
        | Some trace ->
            let t = tree_for trace in
            let spent =
              match (float_field e "spent_eps", float_field e "spent_delta") with
              | Some eps, Some delta -> Some (eps, delta)
              | _ -> None
            in
            t :=
              {
                !t with
                tr_root = Some e;
                tr_span = Option.value ~default:(-1) (int_field e "span");
                tr_status = Option.value ~default:"?" (str_field e "status");
                tr_shards =
                  Option.value ~default:[] (Option.map parse_id_list (str_field e "shards"));
                tr_missing =
                  Option.value ~default:[]
                    (Option.map parse_id_list (str_field e "missing"));
                tr_coverage = float_field e "coverage";
                tr_spent = spent;
              })
    fleet;
  List.iter
    (fun stream ->
      List.iter
        (fun (trace, leg) ->
          let t = tree_for trace in
          t := { !t with tr_legs = leg :: !t.tr_legs })
        (legs_of_stream stream))
    shards;
  List.rev_map
    (fun trace ->
      let t = !(Hashtbl.find by_trace trace) in
      let legs = List.sort (fun a b -> compare a.lg_ts b.lg_ts) t.tr_legs in
      let contributing =
        List.filter (fun i -> not (List.mem i t.tr_missing)) t.tr_shards
      in
      let complete =
        t.tr_root <> None && contributing <> []
        && List.for_all
             (fun i ->
               List.exists (fun l -> l.lg_tag = Printf.sprintf "shard%d" i) legs)
             contributing
      in
      { t with tr_legs = legs; tr_complete = complete })
    !order

(* --- aggregation (the CLI's stats table) --- *)

type span_row = { sr_name : string; sr_calls : int; sr_total_s : float; sr_max_s : float }

type obs_row = {
  or_name : string;
  or_count : int;
  or_mean : float;
  or_min : float;
  or_max : float;
}

type summary = {
  events : int;
  rounds : int;
  wall_s : float;
  span_rows : span_row list;
  counter_rows : (string * int) list;
  obs_rows : obs_row list;
  ledger_rows : (string * (float * float * int)) list;
  marks : (string * int) list;
}

let summarize events =
  let rounds = List.fold_left (fun acc e -> Int.max acc e.Telemetry.round) 0 events in
  let wall_s =
    match (events, List.rev events) with
    | first :: _, last :: _ -> last.Telemetry.ts -. first.Telemetry.ts
    | _ -> 0.
  in
  let spans = Hashtbl.create 16 in
  let counters = Hashtbl.create 16 in
  let observations = Hashtbl.create 16 in
  let ledger_tbl = Hashtbl.create 4 in
  let marks = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.Telemetry.kind with
      | Telemetry.Span_end ->
          let d = Option.value ~default:0. (float_field e "dur_s") in
          let calls, total, mx =
            Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt spans e.Telemetry.name)
          in
          Hashtbl.replace spans e.Telemetry.name (calls + 1, total +. d, Float.max mx d)
      | Telemetry.Count ->
          (* the last emitted total is the final counter value *)
          Hashtbl.replace counters e.Telemetry.name
            (Option.value ~default:0 (int_field e "total"))
      | Telemetry.Debit ->
          let eps = Option.value ~default:0. (float_field e "eps") in
          let delta = Option.value ~default:0. (float_field e "delta") in
          let e_sum, d_sum, n =
            Option.value ~default:(0., 0., 0) (Hashtbl.find_opt ledger_tbl e.Telemetry.name)
          in
          Hashtbl.replace ledger_tbl e.Telemetry.name (e_sum +. eps, d_sum +. delta, n + 1)
      | Telemetry.Observe ->
          let v = Option.value ~default:0. (float_field e "value") in
          let count, sum, mn, mx =
            Option.value ~default:(0, 0., Float.infinity, Float.neg_infinity)
              (Hashtbl.find_opt observations e.Telemetry.name)
          in
          Hashtbl.replace observations e.Telemetry.name
            (count + 1, sum +. v, Float.min mn v, Float.max mx v)
      | Telemetry.Mark ->
          Hashtbl.replace marks e.Telemetry.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt marks e.Telemetry.name))
      | Telemetry.Span_begin -> ())
    events;
  {
    events = List.length events;
    rounds;
    wall_s;
    span_rows =
      List.sort compare
        (Hashtbl.fold
           (fun name (calls, total, mx) acc ->
             { sr_name = name; sr_calls = calls; sr_total_s = total; sr_max_s = mx } :: acc)
           spans []);
    counter_rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []);
    obs_rows =
      List.sort compare
        (Hashtbl.fold
           (fun name (count, sum, mn, mx) acc ->
             {
               or_name = name;
               or_count = count;
               or_mean = (if count = 0 then 0. else sum /. float_of_int count);
               or_min = mn;
               or_max = mx;
             }
             :: acc)
           observations []);
    ledger_rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ledger_tbl []);
    marks = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) marks []);
  }

(* Every overflow/drop counter, whatever layer coined it, ends in _dropped
   or _drops by convention — one predicate keeps the losses section honest
   as new counters appear. *)
let losses s =
  let ends_with suffix name =
    let ls = String.length suffix and ln = String.length name in
    ln >= ls && String.sub name (ln - ls) ls = suffix
  in
  List.filter
    (fun (name, v) -> v > 0 && (ends_with "_dropped" name || ends_with "_drops" name))
    s.counter_rows

let pp_summary fmt s =
  let open Format in
  fprintf fmt "@[<v>";
  fprintf fmt "%d events over %d rounds, %.3f s wall clock@," s.events s.rounds s.wall_s;
  if s.span_rows <> [] then begin
    fprintf fmt "@,%-28s %8s %12s %12s %12s@," "span" "calls" "total s" "mean ms" "max ms";
    List.iter
      (fun r ->
        fprintf fmt "%-28s %8d %12.4f %12.4f %12.4f@," r.sr_name r.sr_calls r.sr_total_s
          (if r.sr_calls = 0 then 0. else 1e3 *. r.sr_total_s /. float_of_int r.sr_calls)
          (1e3 *. r.sr_max_s))
      s.span_rows
  end;
  if s.counter_rows <> [] then begin
    fprintf fmt "@,%-28s %8s@," "counter" "total";
    List.iter (fun (k, v) -> fprintf fmt "%-28s %8d@," k v) s.counter_rows
  end;
  if s.obs_rows <> [] then begin
    fprintf fmt "@,%-28s %8s %12s %12s %12s@," "observation" "count" "mean" "min" "max";
    List.iter
      (fun r ->
        fprintf fmt "%-28s %8d %12.6g %12.6g %12.6g@," r.or_name r.or_count r.or_mean r.or_min
          r.or_max)
      s.obs_rows
  end;
  if s.ledger_rows <> [] then begin
    fprintf fmt "@,%-28s %8s %14s %14s@," "ledger" "debits" "eps total" "delta total";
    List.iter
      (fun (k, (eps, delta, n)) -> fprintf fmt "%-28s %8d %14.6g %14.3e@," k n eps delta)
      s.ledger_rows
  end;
  if s.marks <> [] then begin
    fprintf fmt "@,%-28s %8s@," "mark" "count";
    List.iter (fun (k, v) -> fprintf fmt "%-28s %8d@," k v) s.marks
  end;
  fprintf fmt "@]"
