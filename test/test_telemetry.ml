(* Tests for the telemetry layer: counter/ledger bookkeeping with and
   without a sink, span pairing and exception safety, the JSONL round-trip
   through the Trace parser, the trace validator's defect detection, and
   the acceptance property — the privacy ledger replayed from a trace alone
   equals the live Accountant/Budget totals to 1e-12. *)

module Telemetry = Pmw_telemetry.Telemetry
module Trace = Pmw_telemetry.Trace
module Params = Pmw_dp.Params
module Universe = Pmw_data.Universe
module Rng = Pmw_rng.Rng

let field e name = List.assoc_opt name e.Telemetry.fields

let float_field e name =
  match field e name with
  | Some (Telemetry.Float f) -> f
  | Some (Telemetry.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event %s: no float field %S" e.Telemetry.name name

let str_field e name =
  match field e name with
  | Some (Telemetry.Str s) -> s
  | _ -> Alcotest.failf "event %s: no string field %S" e.Telemetry.name name

(* A deterministic clock: each read advances by 1 ms. *)
let counter_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 0.001;
    !t

(* --- counters and ledgers are authoritative without a sink --- *)

let test_null_instance_tracks () =
  let t = Telemetry.null () in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Telemetry.incr t "queries";
  Telemetry.incr t "queries";
  Telemetry.incr ~by:3 t "mw_updates";
  Alcotest.(check int) "queries" 2 (Telemetry.counter t "queries");
  Alcotest.(check int) "mw_updates" 3 (Telemetry.counter t "mw_updates");
  Alcotest.(check int) "unknown counter" 0 (Telemetry.counter t "nope");
  Telemetry.set_counter t "queries" 10;
  Alcotest.(check int) "set_counter" 10 (Telemetry.counter t "queries");
  Telemetry.debit t ~ledger:"sv" ~mechanism:"sv-epoch" ~eps:0.25 ~delta:1e-7;
  Telemetry.debit t ~ledger:"sv" ~mechanism:"sv-epoch" ~eps:0.25 ~delta:1e-7;
  let eps, delta = Telemetry.ledger_total t "sv" in
  Alcotest.(check (float 1e-15)) "ledger eps" 0.5 eps;
  Alcotest.(check (float 1e-20)) "ledger delta" 2e-7 delta;
  (* spans are free no-ops when disabled: passthrough, no events *)
  Alcotest.(check int) "span passthrough" 41 (Telemetry.span t "s" (fun () -> 41));
  Alcotest.(check (list pass)) "no events buffered" [] (Telemetry.events t)

let test_independent_instances () =
  let a = Telemetry.null () and b = Telemetry.null () in
  Telemetry.incr a "x";
  Alcotest.(check int) "b unaffected" 0 (Telemetry.counter b "x")

(* --- ring sink events --- *)

let ring_instance () =
  Telemetry.create ~clock:(counter_clock ()) ~sink:(Telemetry.Sink.ring ()) ()

let test_ring_events () =
  let t = ring_instance () in
  Telemetry.mark t "hello" ~fields:[ ("n", Telemetry.Int 1) ];
  Telemetry.incr t "c";
  Telemetry.observe t "v" 2.5;
  let evs = Telemetry.events t in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let kinds = List.map (fun e -> Telemetry.kind_to_string e.Telemetry.kind) evs in
  Alcotest.(check (list string)) "kinds" [ "mark"; "count"; "observe" ] kinds;
  (* timestamps non-decreasing *)
  let ts = List.map (fun e -> e.Telemetry.ts) evs in
  Alcotest.(check bool) "monotone ts" true (List.sort compare ts = ts)

let test_span_nesting_and_exn () =
  let t = ring_instance () in
  let r =
    Telemetry.span t "outer" (fun () ->
        ignore (Telemetry.span t "inner" (fun () -> 1));
        2)
  in
  Alcotest.(check int) "result" 2 r;
  (match Telemetry.span t "boom" (fun () -> failwith "kaput") with
  | exception Failure m -> Alcotest.(check string) "re-raised" "kaput" m
  | _ -> Alcotest.fail "span swallowed the exception");
  let evs = Telemetry.events t in
  (* outer-begin inner-begin inner-end outer-end boom-begin boom-end *)
  let names = List.map (fun e -> e.Telemetry.name) evs in
  Alcotest.(check (list string)) "order"
    [ "outer"; "inner"; "inner"; "outer"; "boom"; "boom" ]
    names;
  let ends =
    List.filter (fun e -> e.Telemetry.kind = Telemetry.Span_end) evs
  in
  let boom = List.nth ends 2 in
  (match field boom "ok" with
  | Some (Telemetry.Bool false) -> ()
  | _ -> Alcotest.fail "failed span must end with ok=false");
  Alcotest.(check bool) "duration recorded" true (float_field boom "dur_s" > 0.);
  (* span aggregation survives in the instance *)
  match Telemetry.span_stats t "outer" with
  | None -> Alcotest.fail "no outer stats"
  | Some s -> Alcotest.(check int) "outer calls" 1 s.Telemetry.span_calls

let test_observations () =
  let t = ring_instance () in
  List.iter (Telemetry.observe t "err") [ 1.; 2.; 3.; 4. ];
  match Telemetry.observation t "err" with
  | None -> Alcotest.fail "no stats"
  | Some o ->
      Alcotest.(check int) "count" 4 o.Telemetry.obs_count;
      Alcotest.(check (float 1e-12)) "mean" 2.5 (o.Telemetry.obs_sum /. 4.);
      Alcotest.(check (float 1e-12)) "max" 4. o.Telemetry.obs_max

(* --- JSONL round-trip through the Trace parser --- *)

let with_temp_trace f =
  let path = Filename.temp_file "pmw_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_jsonl_roundtrip () =
  with_temp_trace (fun path ->
      let t =
        Telemetry.create ~clock:(counter_clock ())
          ~sink:(Telemetry.Sink.jsonl_file path) ()
      in
      Telemetry.set_round t 3;
      Telemetry.mark t "m"
        ~fields:
          [
            ("f", Telemetry.Float 0.1);
            ("i", Telemetry.Int (-7));
            ("s", Telemetry.Str "a \"quoted\"\nline");
            ("b", Telemetry.Bool true);
            ("nan", Telemetry.Float Float.nan);
            ("inf", Telemetry.Float Float.neg_infinity);
          ];
      Telemetry.debit t ~ledger:"l" ~mechanism:"mech" ~eps:(1. /. 3.) ~delta:1e-9;
      Telemetry.close t;
      match Trace.load ~path with
      | Error m -> Alcotest.fail m
      | Ok [ m; d ] ->
          Alcotest.(check int) "round" 3 m.Telemetry.round;
          (* floats round-trip bit-exactly through %.17g *)
          Alcotest.(check bool) "float exact" true (float_field m "f" = 0.1);
          Alcotest.(check bool) "int" true (field m "i" = Some (Telemetry.Int (-7)));
          Alcotest.(check string) "escaped string" "a \"quoted\"\nline" (str_field m "s");
          Alcotest.(check bool) "bool" true (field m "b" = Some (Telemetry.Bool true));
          Alcotest.(check bool) "nan" true (Float.is_nan (float_field m "nan"));
          Alcotest.(check bool) "-inf" true (float_field m "inf" = Float.neg_infinity);
          Alcotest.(check bool) "debit eps exact" true (float_field d "eps" = 1. /. 3.);
          Alcotest.(check string) "mechanism" "mech" (str_field d "mechanism")
      | Ok evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_load_reports_bad_line () =
  with_temp_trace (fun path ->
      let oc = open_out path in
      output_string oc "{\"ts\":0.0,\"round\":-1,\"kind\":\"mark\",\"name\":\"x\"}\nnot json\n";
      close_out oc;
      match Trace.load ~path with
      | Ok _ -> Alcotest.fail "accepted malformed line"
      | Error m ->
          (* the parser reports the offending line number *)
          let has_line2 =
            let rec scan i =
              i + 6 <= String.length m && (String.sub m i 6 = "line 2" || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "line number in error" true has_line2)

(* A malformed [\u] escape is a typed parse error, not an exception. *)
let test_load_rejects_bad_unicode_escape () =
  let mark name = Printf.sprintf {|{"ts":0.0,"round":-1,"kind":"mark","name":"%s"}|} name in
  List.iter
    (fun bad ->
      with_temp_trace (fun path ->
          let oc = open_out path in
          output_string oc (bad ^ "\n");
          close_out oc;
          match Trace.load ~path with
          | Ok _ -> Alcotest.failf "accepted %S" bad
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "%S reported on line 1: %s" bad m)
                true
                (String.length m >= 6 && String.sub m 0 6 = "line 1")))
    [ mark {|x\uZZZZ|}; mark {|x\u12|}; {|{"ts":0.0,"round":-1,"kind":"mark","name":"\u12|} ]

(* --- validator defect detection --- *)

let ev ?(ts = 0.) ?(round = -1) ?(fields = []) kind name =
  { Telemetry.ts; round; kind; name; fields }

let test_validate_catches_defects () =
  let ok_events =
    [
      ev ~ts:0.1 ~round:1 Telemetry.Mark "a";
      ev ~ts:0.2 ~round:2 Telemetry.Mark "b";
    ]
  in
  (match Trace.validate ok_events with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid trace rejected: %s" m);
  (* non-monotone rounds *)
  (match
     Trace.validate
       [ ev ~ts:0.1 ~round:5 Telemetry.Mark "a"; ev ~ts:0.2 ~round:4 Telemetry.Mark "b" ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-monotone rounds accepted");
  (* non-monotone timestamps *)
  (match
     Trace.validate
       [ ev ~ts:1. Telemetry.Mark "a"; ev ~ts:0.5 Telemetry.Mark "b" ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "time travel accepted");
  (* unbalanced span *)
  (match
     Trace.validate
       [ ev ~fields:[ ("id", Telemetry.Int 0) ] Telemetry.Span_begin "s" ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "open span accepted");
  (* debit running total disagrees with replayed sum *)
  (match
     Trace.validate
       [
         ev
           ~fields:
             [
               ("mechanism", Telemetry.Str "m");
               ("eps", Telemetry.Float 0.5);
               ("delta", Telemetry.Float 0.);
               ("eps_total", Telemetry.Float 0.9);
               ("delta_total", Telemetry.Float 0.);
             ]
           Telemetry.Debit "l";
       ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inconsistent ledger total accepted");
  (* ledger.final mark disagrees with the debits *)
  match
    Trace.validate
      [
        ev
          ~fields:
            [
              ("mechanism", Telemetry.Str "m");
              ("eps", Telemetry.Float 0.5);
              ("delta", Telemetry.Float 0.);
              ("eps_total", Telemetry.Float 0.5);
              ("delta_total", Telemetry.Float 0.);
            ]
          Telemetry.Debit "l";
        ev
          ~ts:0.1
          ~fields:
            [
              ("ledger", Telemetry.Str "l");
              ("eps", Telemetry.Float 0.7);
              ("delta", Telemetry.Float 0.);
            ]
          Telemetry.Mark "ledger.final";
      ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad ledger.final accepted"

(* --- acceptance: ledger replay from a trace equals the live accountant --- *)

let test_accountant_trace_equality () =
  with_temp_trace (fun path ->
      let t = Telemetry.create ~sink:(Telemetry.Sink.jsonl_file path) () in
      let acct = Pmw_dp.Accountant.create ~telemetry:t ~label:"oracle" () in
      let rng = Rng.create ~seed:11 () in
      for _ = 1 to 57 do
        (* awkward, non-representable spends *)
        let eps = 0.01 +. (0.3 *. Rng.uniform rng ~lo:0. ~hi:1.) in
        Pmw_dp.Accountant.spend ~mechanism:"oracle-call" acct
          (Params.create ~eps ~delta:(1e-9 *. eps))
      done;
      Telemetry.emit_ledger_finals t;
      Telemetry.close t;
      let events = match Trace.load ~path with Ok e -> e | Error m -> Alcotest.fail m in
      (match Trace.validate events with
      | Ok () -> ()
      | Error m -> Alcotest.failf "trace invalid: %s" m);
      let live = Pmw_dp.Accountant.total_basic acct in
      match List.assoc_opt "oracle" (Trace.ledger_totals events) with
      | None -> Alcotest.fail "no oracle ledger in trace"
      | Some (eps, delta) ->
          Alcotest.(check bool) "eps replay to 1e-12" true
            (Float.abs (eps -. live.Params.eps) <= 1e-12);
          Alcotest.(check bool) "delta replay" true
            (Float.abs (delta -. live.Params.delta) <= 1e-15))

(* A small linear-PMW run traced end to end: the "sv" + "linear" ledgers in
   the trace must replay to the spend the mechanism's own parameters imply,
   and the whole trace must validate. *)
let test_linear_run_trace () =
  with_temp_trace (fun path ->
      let t = Telemetry.create ~sink:(Telemetry.Sink.jsonl_file path) () in
      let universe = Universe.hypercube ~d:6 () in
      let rng = Rng.create ~seed:3 () in
      let hist = Pmw_data.Synth.zipf_histogram ~universe ~s:1.1 rng in
      let dataset = Pmw_data.Dataset.of_histogram ~n:4_000 hist rng in
      let lp =
        Pmw_core.Linear_pmw.create ~telemetry:t ~universe ~dataset
          ~privacy:(Params.create ~eps:1. ~delta:1e-6)
          ~alpha:0.05 ~beta:0.05 ~k:40 ~t_max:12 ~rng ()
      in
      let queries =
        List.init 12 (fun j ->
            Pmw_core.Linear_pmw.counting_query
              ~name:(Printf.sprintf "bit%d" (j mod 6))
              (fun x -> x.Pmw_data.Point.features.(j mod 6) > 0.))
      in
      List.iter (fun q -> ignore (Pmw_core.Linear_pmw.answer lp q)) queries;
      Telemetry.emit_ledger_finals t;
      Telemetry.close t;
      let events = match Trace.load ~path with Ok e -> e | Error m -> Alcotest.fail m in
      (match Trace.validate events with
      | Ok () -> ()
      | Error m -> Alcotest.failf "trace invalid: %s" m);
      let totals = Trace.ledger_totals events in
      let sv_failures = Telemetry.counter t "sv_failures" in
      let updates = Telemetry.counter t "mw_updates" in
      Alcotest.(check int) "every top updated MW" sv_failures updates;
      (* the trace replay must equal the live instance's ledger sums *)
      List.iter
        (fun (name, (live_eps, live_delta, _debits)) ->
          match List.assoc_opt name totals with
          | None -> Alcotest.failf "ledger %S missing from trace" name
          | Some (eps, delta) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s eps replay to 1e-12" name)
                true
                (Float.abs (eps -. live_eps) <= 1e-12);
              Alcotest.(check bool)
                (Printf.sprintf "%s delta replay" name)
                true
                (Float.abs (delta -. live_delta) <= 1e-15))
        (Telemetry.ledgers t);
      (if updates > 0 && not (List.mem_assoc "linear" totals) then
         Alcotest.fail "tops happened but no linear ledger");
      (* rounds advanced once per answered query *)
      let max_round =
        List.fold_left (fun acc e -> Int.max acc e.Telemetry.round) (-1) events
      in
      Alcotest.(check int) "rounds = queries" 12 max_round)

(* --- pool chunk timing is gated on verbosity --- *)

let test_pool_timing_verbosity () =
  let pool = Pmw_parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pmw_parallel.Pool.shutdown pool)
    (fun () ->
      let quiet = Telemetry.create ~sink:(Telemetry.Sink.ring ()) ~verbose:false () in
      Pmw_parallel.Pool.set_telemetry pool (Some quiet);
      let n = (2 * Pmw_parallel.Pool.grain) + 17 in
      let a = Array.make n 1. in
      ignore
        (Pmw_parallel.Pool.parallel_reduce pool ~n ~neutral:0.
           ~chunk:(fun lo hi ->
             let s = ref 0. in
             for i = lo to hi - 1 do
               s := !s +. a.(i)
             done;
             !s)
           ~combine:( +. ));
      Alcotest.(check (list pass)) "quiet pool emits nothing" [] (Telemetry.events quiet);
      let loud = Telemetry.create ~sink:(Telemetry.Sink.ring ()) ~verbose:true () in
      Pmw_parallel.Pool.set_telemetry pool (Some loud);
      Pmw_parallel.Pool.parallel_for pool ~n (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- a.(i) +. 1.
          done);
      let evs = Telemetry.events loud in
      let batches = List.filter (fun e -> e.Telemetry.name = "pool.batch") evs in
      Alcotest.(check int) "one batch mark" 1 (List.length batches);
      let chunks = List.filter (fun e -> e.Telemetry.name = "pool.chunk_s") evs in
      Alcotest.(check int) "one observation per chunk"
        (Pmw_parallel.Pool.num_chunks n)
        (List.length chunks))

let () =
  Alcotest.run "pmw_telemetry"
    [
      ( "instance",
        [
          Alcotest.test_case "null tracks counters+ledgers" `Quick test_null_instance_tracks;
          Alcotest.test_case "instances independent" `Quick test_independent_instances;
          Alcotest.test_case "ring events" `Quick test_ring_events;
          Alcotest.test_case "span nesting + exceptions" `Quick test_span_nesting_and_exn;
          Alcotest.test_case "observations" `Quick test_observations;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "bad line reported" `Quick test_load_reports_bad_line;
          Alcotest.test_case "bad \\u escape reported" `Quick test_load_rejects_bad_unicode_escape;
          Alcotest.test_case "validator catches defects" `Quick test_validate_catches_defects;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "accountant = trace replay (1e-12)" `Quick
            test_accountant_trace_equality;
          Alcotest.test_case "linear run trace validates" `Quick test_linear_run_trace;
          Alcotest.test_case "pool timing verbosity gate" `Quick test_pool_timing_verbosity;
        ] );
    ]
