(* Turns one or two measured phases into the benchmark's metrics, and runs
   the correctness gate over everything the clients got back. *)

module Protocol = Pmw_server.Protocol
module Shard = Pmw_server.Shard
module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics
module Cm_query = Pmw_core.Cm_query

(* What one measured phase leaves behind: the stopped fleet (its probes and
   shard accounts stay readable), the client samples, and what had to be
   read while the fleet was still up. *)
type phase = {
  fleet : Fleet.t;
  load : Load.result;
  pots : (float * float) option array;  (** live per-epoch (eps spent, eps pot) per shard *)
  journal_bytes : int;  (** live journal sizes at the end of the load *)
  restarts : int;
  peak_rss_mb : float;  (** after the load, before the gate's own work *)
  steal_s : float;  (** CPU time the hypervisor took from the machine during the load *)
  minor_words : float;  (** GC deltas over the load *)
  minor_collections : int;
  major_collections : int;
}

(* --- small statistics --- *)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b > 0. then a /. b else 0.
let ms s = 1e3 *. s

(* --- samples --- *)

let measured ph = List.filter (fun s -> not s.Load.s_warmup) ph.load.Load.samples
let ok s = match s.Load.s_result with Ok r -> Load.answered r | Error _ -> false

let latencies ~ingest samples =
  List.filter_map
    (fun s -> if s.Load.s_ingest = ingest then Some (ms (s.Load.s_t1 -. s.Load.s_t0)) else None)
    samples

let answers_per_s ph =
  let answered = List.length (List.filter ok (measured ph)) in
  ratio (float_of_int answered) (ph.load.Load.window_end -. ph.load.Load.window_start)

(* --- correctness gate --- *)

type verdict = {
  attempted : int;
  failed : int;
  problems : string list;  (** why the gate failed, one line each *)
  excess_risks : float list;  (** one per answered query *)
}

(* ℓ(θ; D) − min ℓ(·; D), with D the fleet's data generation the answer
   names (the union of every shard's rows at that epoch) and the minimum
   from the non-private solver at four times the serving iterations. *)
let excess_risk_of ph =
  let fleet = ph.fleet in
  let pool = Pmw_parallel.Pool.create ~domains:1 () in
  let generation = Hashtbl.create 8 in
  let dataset_at epoch =
    match Hashtbl.find_opt generation epoch with
    | Some d -> d
    | None ->
        let parts =
          Array.to_list
            (Array.map (fun p -> Hashtbl.find_opt p.Fleet.datasets epoch) fleet.Fleet.probes)
        in
        let d =
          if List.mem None parts then None
          else
            match List.filter_map Fun.id parts with
            | [] -> None
            | first :: rest -> Some (List.fold_left Pmw_data.Dataset.concat first rest)
        in
        Hashtbl.replace generation epoch d;
        d
  in
  let minima = Hashtbl.create 64 in
  let iters = 4 * fleet.Fleet.wl.Workload.solver_iters in
  let minimum q epoch ds =
    let key = (q.Cm_query.name, epoch) in
    match Hashtbl.find_opt minima key with
    | Some v -> v
    | None ->
        let v = (Cm_query.minimize_on_dataset ~pool ~iters q ds).Pmw_convex.Solve.value in
        Hashtbl.replace minima key v;
        v
  in
  let losses = Hashtbl.create 256 in
  fun name epoch theta ->
    let query = List.find_opt (fun q -> q.Cm_query.name = name) fleet.Fleet.queries in
    match (query, dataset_at epoch) with
    | None, _ -> Error ("unknown query " ^ name)
    | _, None -> Error (Printf.sprintf "no dataset generation %d on every shard" epoch)
    | Some q, Some ds ->
        let key = (name, epoch, theta) in
        let loss =
          match Hashtbl.find_opt losses key with
          | Some l -> l
          | None ->
              let l = Cm_query.loss_on_dataset ~pool q ds theta in
              Hashtbl.replace losses key l;
              l
        in
        Ok (loss -. minimum q epoch ds)

let gate phases =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let attempted = ref 0 and failed = ref 0 and risks = ref [] in
  List.iter
    (fun ph ->
      let fleet = ph.fleet in
      let wl = fleet.Fleet.wl in
      let risk = excess_risk_of ph in
      let over_alpha = ref 0 in
      List.iter
        (fun s ->
          incr attempted;
          match s.Load.s_result with
          | Error e ->
              incr failed;
              problem "%s: transport error: %s" s.Load.s_trace
                (Pmw_server.Net.Client.error_to_string e)
          | Ok r -> (
              match r.Protocol.rsp_status with
              | Protocol.Answered when s.Load.s_ingest -> (
                  match r.Protocol.rsp_theta with
                  | Some [| accepted; _ |] when accepted = float_of_int wl.Workload.ingest_rows
                    ->
                      ()
                  | _ ->
                      incr failed;
                      problem "%s: ingest reply does not account for every row" s.Load.s_trace)
              | Protocol.Answered -> (
                  match r.Protocol.rsp_theta with
                  | None ->
                      incr failed;
                      problem "%s: answer without theta" s.Load.s_trace
                  | Some theta -> (
                      let epoch = Option.value r.Protocol.rsp_epoch ~default:0 in
                      match risk s.Load.s_query epoch theta with
                      | Error why -> problem "%s: %s" s.Load.s_trace why
                      | Ok v ->
                          risks := v :: !risks;
                          if v > Workload.alpha then incr over_alpha))
              | st ->
                  incr failed;
                  problem "%s: %s (%s)" s.Load.s_trace (Protocol.status_tag st)
                    (match st with
                    | Protocol.Degraded why | Protocol.Refused why | Protocol.Failed why -> why
                    | Protocol.Rejected { reason; _ } | Protocol.Partial { reason; _ } -> reason
                    | Protocol.Answered -> "")))
        ph.load.Load.samples;
      if !over_alpha > 0 then
        problem "%d answers exceed the configured alpha %g in excess risk" !over_alpha
          Workload.alpha;
      if ph.restarts > 0 then problem "%d shard restarts" ph.restarts;
      Array.iteri
        (fun i pot ->
          match pot with
          | None -> problem "shard %d was down at the end of the load" i
          | Some (spent, total) ->
              if spent > total *. (1. +. 1e-9) then
                problem "shard %d spent eps %g of a %g pot" i spent total)
        ph.pots;
      Array.iteri
        (fun i s ->
          let lifetime = (Shard.spent s).Pmw_dp.Params.eps in
          let sessions = fleet.Fleet.probes.(i).Fleet.builds in
          if lifetime > float_of_int sessions *. Workload.eps *. (1. +. 1e-9) then
            problem "shard %d spent eps %g over %d per-epoch pots of %g" i lifetime sessions
              Workload.eps)
        fleet.Fleet.shards)
    phases;
  {
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    excess_risks = !risks;
  }

let merge verdicts =
  {
    attempted = List.fold_left (fun a v -> a + v.attempted) 0 verdicts;
    failed = List.fold_left (fun a v -> a + v.failed) 0 verdicts;
    problems = List.concat_map (fun v -> v.problems) verdicts;
    excess_risks = List.concat_map (fun v -> v.excess_risks) verdicts;
  }

(* The fleet's lifetime eps (coordinate-wise max over shards, the
   parallel-composition account) over the queries it answered. *)
let eps_per_answer ph =
  let max_eps a s = Float.max a (Shard.spent s).Pmw_dp.Params.eps in
  let spent = Array.fold_left max_eps 0. ph.fleet.Fleet.shards in
  let answered = List.filter (fun s -> ok s && not s.Load.s_ingest) ph.load.Load.samples in
  ratio spent (float_of_int (List.length answered))

(* --- the metrics --- *)

type metric = { name : string; unit_ : string; value : float; source : string }

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> Scanf.sscanf v " %f kB" (fun kb -> kb /. 1024.)
          | _ -> find ()
        in
        find ())
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ -> 0.

(* Machine-wide steal time in seconds (USER_HZ = 100), 0 where unreadable. *)
let steal_s () =
  try
    let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line in
    match List.filter (( <> ) "") (String.split_on_char ' ' (Option.value line ~default:"")) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal /. 100.
    | _ -> 0.
  with Sys_error _ | Failure _ -> 0.

let end_to_end ph ~setup_s =
  let queries = latencies ~ingest:false (measured ph) in
  [
    { name = "answers_per_s"; unit_ = "1/s"; value = answers_per_s ph; source = "client" };
    { name = "latency_p50_ms"; unit_ = "ms"; value = median queries; source = "client" };
    { name = "latency_p95_ms"; unit_ = "ms"; value = percentile 0.95 queries; source = "client" };
    { name = "setup_s"; unit_ = "s"; value = setup_s; source = "client" };
    { name = "peak_rss_mb"; unit_ = "MB"; value = ph.peak_rss_mb; source = "VmHWM" };
    { name = "eps_per_answer"; unit_ = "eps"; value = eps_per_answer ph; source = "Shard.spent" };
  ]

let span_total tels name =
  List.fold_left
    (fun (calls, total) tel ->
      match Telemetry.span_stats tel name with
      | Some s -> (calls + s.Telemetry.span_calls, total +. s.Telemetry.span_total_s)
      | None -> (calls, total))
    (0, 0.) tels

let counter tels name = List.fold_left (fun acc tel -> acc + Telemetry.counter tel name) 0 tels

let hist_mean metrics name =
  let h = Metrics.hist_snapshot (Metrics.histogram metrics name) in
  ratio h.Metrics.hs_sum (float_of_int h.Metrics.hs_count)

(* Per-request layer split of a traced query, on its slowest shard leg (the
   one whose span ended last):
     client = net.self + handler
     handler = router.self + queue wait + query + broker.self
   router.self runs from the handler's start to that leg's enqueue;
   broker.self is the rest of the leg: batch-mates, the request span outside
   the mechanism, the journal append and fsync, and the reply wake-up. *)
let layers ph =
  let fleet = ph.fleet in
  let legs = Hashtbl.create 4096 in
  Array.iter
    (fun p -> List.iter (fun l -> Hashtbl.add legs l.Fleet.l_trace l) p.Fleet.legs)
    fleet.Fleet.probes;
  let rows =
    List.filter_map
      (fun s ->
        let handler = Hashtbl.find_opt fleet.Fleet.handler_spans s.Load.s_trace in
        match (handler, Hashtbl.find_all legs s.Load.s_trace) with
        | Some (h0, h1), (_ :: _ as ls) when not s.Load.s_ingest ->
            let later a l = if l.Fleet.l_end > a.Fleet.l_end then l else a in
            let slow = List.fold_left later (List.hd ls) ls in
            let client = s.Load.s_t1 -. s.Load.s_t0 and handler = h1 -. h0 in
            let router = slow.Fleet.l_enqueued -. h0 in
            Some
              ( client -. handler,
                router,
                handler -. router -. slow.Fleet.l_wait -. slow.Fleet.l_query,
                float_of_int (List.length ls) )
        | _ -> None)
      (measured ph)
  in
  let col f = mean (List.map f rows) in
  ( col (fun (n, _, _, _) -> ms n),
    col (fun (_, r, _, _) -> ms r),
    col (fun (_, _, b, _) -> ms b),
    col (fun (_, _, _, l) -> l) )

let per_layer ~untraced ~traced (v : verdict) =
  let fleet = traced.fleet in
  let tels = Array.fold_left (fun acc p -> p.Fleet.tels @ acc) [] fleet.Fleet.probes in
  let probes = Array.to_list fleet.Fleet.probes in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. probes in
  let net, router, broker, legs = layers traced in
  let mean_span name =
    let calls, total = span_total tels name in
    ms (ratio total (float_of_int calls))
  in
  let calls name = float_of_int (fst (span_total tels name)) in
  let answered = float_of_int (List.length (List.filter ok traced.load.Load.samples)) in
  let memo_hits = float_of_int (counter tels "solve_memo_hits") in
  let solves = calls "solve.hypothesis" +. calls "solve.reference" in
  let queries = float_of_int (counter tels "queries") in
  let oracle_calls = sum (fun p -> float_of_int p.Fleet.oracle_calls) in
  let builds = sum (fun p -> float_of_int p.Fleet.builds) in
  let u_requests = float_of_int (List.length untraced.load.Load.samples) in
  let aps_u = answers_per_s untraced and aps_t = answers_per_s traced in
  let ingest = latencies ~ingest:true (measured untraced) in
  let m name unit_ value source = { name; unit_; value; source } in
  [
    m "net.self_ms" "ms" net "bench spans: Net.Client.call minus handler around Router.submit";
    m "router.self_ms" "ms" router "handler start to the slowest leg's enqueue";
    m "router.legs_per_req" "count" legs "server.request spans per traced request";
    m "broker.queue_wait_ms" "ms" (ms (hist_mean fleet.Fleet.metrics "server.queue_wait_s"))
      "Metrics histogram server.queue_wait_s";
    m "broker.batch_size_mean" "count" (hist_mean fleet.Fleet.metrics "server.batch_size")
      "Metrics histogram server.batch_size";
    m "broker.self_ms" "ms" broker "slowest leg: handler end - enqueue - queue wait - query";
    m "broker.memo_hit_ratio" "ratio" (ratio memo_hits (memo_hits +. solves))
      "Telemetry counter solve_memo_hits over it plus solve.* spans";
    m "journal.bytes_per_answer" "bytes"
      (ratio
         (float_of_int traced.journal_bytes +. sum (fun p -> float_of_int p.Fleet.reclaimed))
         answered)
      "Shard.journal_size plus epoch.transition reclaimed_bytes marks";
    m "epoch.transitions" "count" (calls "server.epoch.transition")
      "Telemetry span server.epoch.transition";
    m "epoch.transition_ms" "ms" (mean_span "server.epoch.transition")
      "Telemetry span server.epoch.transition";
    m "epoch.session_build_ms" "ms" (ms (ratio (sum (fun p -> p.Fleet.build_s)) builds))
      "bench span around make_session / se_make / se_resume";
    m "pmw.query_ms" "ms" (mean_span "query") "Telemetry span query";
    m "pmw.hard_round_share" "ratio"
      (ratio (float_of_int (counter tels "answered_from_oracle")) queries)
      "Telemetry counters answered_from_oracle / queries";
    m "convex.hypothesis_solve_ms" "ms" (mean_span "solve.hypothesis")
      "Telemetry span solve.hypothesis";
    m "convex.hypothesis_solve_calls" "1/query" (ratio (calls "solve.hypothesis") queries)
      "Telemetry span solve.hypothesis per counter queries";
    m "convex.reference_solve_ms" "ms" (mean_span "solve.reference")
      "Telemetry span solve.reference";
    m "convex.reference_solve_calls" "1/query" (ratio (calls "solve.reference") queries)
      "Telemetry span solve.reference per counter queries";
    m "erm.oracle_ms" "ms" (ms (ratio (sum (fun p -> p.Fleet.oracle_s)) oracle_calls))
      "bench span around each Oracle.run of the chain";
    m "erm.oracle_calls" "count" oracle_calls "bench span around each Oracle.run of the chain";
    m "mw.update_ms" "ms" (mean_span "mw.update") "Telemetry span mw.update";
    m "mw.updates" "count" (float_of_int (counter tels "mw_updates"))
      "Telemetry counter mw_updates";
    m "gc.minor_words_per_req" "words" (ratio untraced.minor_words u_requests)
      "Gc.quick_stat over the untraced phase";
    m "gc.minor_collections_per_req" "count"
      (ratio (float_of_int untraced.minor_collections) u_requests)
      "Gc.quick_stat over the untraced phase";
    m "gc.major_collections" "count" (float_of_int untraced.major_collections)
      "Gc.quick_stat over the untraced phase";
    m "shard.restarts" "count"
      (float_of_int (untraced.restarts + traced.restarts))
      "Supervisor.restarts";
    m "trace.overhead_pct" "%" (100. *. ratio (aps_u -. aps_t) aps_u)
      "answers_per_s untraced phase vs traced phase";
    m "ingest_p50_ms" "ms" (median ingest) "client, untraced phase";
    m "ingest_p95_ms" "ms" (percentile 0.95 ingest) "client, untraced phase";
    m "excess_risk_mean" "loss" (mean v.excess_risks)
      "loss on the answer's data generation minus the non-private minimum, both phases";
  ]

(* --- output --- *)

let print_table ~title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-30s %14.4f %-6s  %s\n" x.name x.value x.unit_ x.source)
    metrics

let result_line (v : verdict) metrics =
  let num f = Protocol.Num (if Float.is_finite f then f else 0.) in
  let metric x =
    (x.name, Protocol.Obj [ ("value", num x.value); ("unit", Protocol.Str x.unit_) ])
  in
  Protocol.json_to_string
    (Protocol.Obj
       [
         ("correct", Protocol.Bool (v.problems = []));
         ("attempted", num (float_of_int v.attempted));
         ("failed", num (float_of_int v.failed));
         ("metrics", Protocol.Obj (List.map metric metrics));
       ])
