(* Hosts the serving stack in-process, wired the way [pmw_cli serve] wires
   its fleet mode, through public constructors only: Shard.create (same
   oracle chain, inline pool, seed derivation), Router.create,
   Supervisor.start and Net.listen.

   With [traced], every shard incarnation gets a telemetry instance whose
   sink streams events into a per-shard [probe] on the shard's own domain,
   and the fleet gets an enabled metrics registry. The probe also holds the
   benchmark's own timings of the callbacks it hands to the program: the
   session constructors and every oracle in the chain. Untraced, telemetry
   is the null instance and metrics are disabled, as in [serve]. *)

module Shard = Pmw_server.Shard
module Router = Pmw_server.Router
module Supervisor = Pmw_server.Supervisor
module Net = Pmw_server.Net
module Broker = Pmw_server.Broker
module Session = Pmw_session.Session
module Checkpoint = Pmw_session.Checkpoint
module Telemetry = Pmw_telemetry.Telemetry
module Metrics = Pmw_telemetry.Metrics
module Dataset = Pmw_data.Dataset
module Common = Pmw_experiments.Common
module Rng = Pmw_rng.Rng

(* One shard leg of a request, as the shard's spans saw it (wall clock). *)
type leg = {
  l_trace : string;
  l_enqueued : float;  (** batch start minus this request's queue wait *)
  l_wait : float;
  mutable l_end : float;  (** server.request span end *)
  mutable l_query : float;  (** the mechanism's "query" span, 0 for ingest *)
}

(* Per-shard state, written only from that shard's domain (telemetry sink,
   oracle chain, session constructors) and read after the shard stopped. *)
type probe = {
  mutable tels : Telemetry.t list;  (** one per incarnation *)
  mutable legs : leg list;
  mutable batch_at : float;
  mutable cur : (int * leg) option;  (** open server.request span id *)
  mutable reclaimed : int;  (** journal bytes dropped by epoch compactions *)
  mutable oracle_calls : int;
  mutable oracle_s : float;
  mutable builds : int;
  mutable build_s : float;
  datasets : (int, Dataset.t) Hashtbl.t;  (** generation -> this shard's rows *)
}

let new_probe () =
  {
    tels = [];
    legs = [];
    batch_at = 0.;
    cur = None;
    reclaimed = 0;
    oracle_calls = 0;
    oracle_s = 0.;
    builds = 0;
    build_s = 0.;
    datasets = Hashtbl.create 8;
  }

let field name (e : Telemetry.event) = List.assoc_opt name e.Telemetry.fields

let float_field name e =
  match field name e with
  | Some (Telemetry.Float f) -> f
  | Some (Telemetry.Int i) -> float_of_int i
  | _ -> 0.

let on_event p ~origin (e : Telemetry.event) =
  let at = !origin +. e.Telemetry.ts in
  match (e.Telemetry.kind, e.Telemetry.name) with
  | Telemetry.Observe, "server.batch_size" -> p.batch_at <- at
  | Telemetry.Observe, "server.queue_wait_s" ->
      (* emitted just before the request's span opens *)
      let wait = float_field "value" e in
      p.cur <-
        Some
          ( -1,
            {
              l_trace = "";
              l_enqueued = p.batch_at -. wait;
              l_wait = wait;
              l_end = at;
              l_query = 0.;
            } )
  | Telemetry.Span_begin, "server.request" -> (
      match (p.cur, field "id" e, field "trace" e) with
      | Some (_, leg), Some (Telemetry.Int id), Some (Telemetry.Str trace) ->
          p.cur <- Some (id, { leg with l_trace = trace })
      | _ -> p.cur <- None)
  | Telemetry.Span_end, "query" -> (
      match p.cur with
      | Some (_, leg) -> leg.l_query <- leg.l_query +. float_field "dur_s" e
      | None -> ())
  | Telemetry.Span_end, "server.request" -> (
      match (p.cur, field "id" e) with
      | Some (id, leg), Some (Telemetry.Int id') when id = id' ->
          leg.l_end <- at;
          p.legs <- leg :: p.legs;
          p.cur <- None
      | _ -> ())
  | Telemetry.Mark, "epoch.transition" ->
      p.reclaimed <- p.reclaimed + int_of_float (float_field "reclaimed_bytes" e)
  | _ -> ()

let telemetry_for p ~traced ~shard ~incarnation:_ =
  let tel =
    if not traced then Telemetry.null ()
    else begin
      (* The instance stamps events relative to its first clock read; keep
         that origin so spans line up with the benchmark's own wall-clock
         timings. *)
      let origin = ref Float.nan in
      let clock () =
        let now = Unix.gettimeofday () in
        if Float.is_nan !origin then origin := now;
        now
      in
      Telemetry.create ~clock ~sink:(Telemetry.Sink.fn (on_event p ~origin))
        ~tag:(Printf.sprintf "shard%d" shard) ()
    end
  in
  p.tels <- tel :: p.tels;
  tel

let timed_oracle p (o : Pmw_erm.Oracle.t) =
  {
    o with
    Pmw_erm.Oracle.run =
      (fun req ->
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            p.oracle_calls <- p.oracle_calls + 1;
            p.oracle_s <- p.oracle_s +. (Unix.gettimeofday () -. t0))
          (fun () -> o.Pmw_erm.Oracle.run req));
  }

let timed_build p ~epoch ~dataset build =
  let t0 = Unix.gettimeofday () in
  let s = build () in
  p.builds <- p.builds + 1;
  p.build_s <- p.build_s +. (Unix.gettimeofday () -. t0);
  Hashtbl.replace p.datasets epoch dataset;
  s

type t = {
  wl : Workload.t;
  dir : string;
  socket : string;
  queries : Pmw_core.Cm_query.t list;
  shards : Shard.t array;
  probes : probe array;
  supervisor : Supervisor.t;
  listener : Net.listener;
  metrics : Metrics.t;
  handler_spans : (string, float * float) Hashtbl.t;  (** trace -> router handler span *)
}

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Boot a fresh stack in a fresh directory [dir] (relative to the working
   directory, which keeps the socket path short). Returns once the socket
   accepts. *)
let setup (w : Workload.t) ~seed ~traced ~dir =
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let rw = Common.Workload.regression ~d:2 ~levels:w.Workload.levels () in
  let universe = rw.Common.Workload.universe in
  let dataset = rw.Common.Workload.sample ~n:Workload.n (Rng.create ~seed ()) in
  let config =
    Pmw_core.Config.practical ~universe
      ~privacy:(Pmw_dp.Params.create ~eps:Workload.eps ~delta:Workload.delta)
      ~alpha:Workload.alpha ~beta:0.05 ~scale:rw.Common.Workload.scale ~k:Workload.k
      ~t_max:w.Workload.t_max ~solver_iters:w.Workload.solver_iters ()
  in
  let registry = Hashtbl.create 16 in
  List.iter
    (fun q -> Hashtbl.replace registry q.Pmw_core.Cm_query.name q)
    rw.Common.Workload.queries;
  let metrics = if traced then Metrics.create () else Metrics.disabled () in
  let blocks = Shard.partition dataset ~by:w.Workload.by ~shards:w.Workload.shards in
  let n_total = float_of_int (Dataset.size dataset) in
  let probes = Array.init w.Workload.shards (fun _ -> new_probe ()) in
  let journal i = Filename.concat dir (Printf.sprintf "journal.shard%d" i) in
  let mk_shard i block =
    let p = probes.(i) in
    let label = Printf.sprintf "shard%d" i in
    let base_rows = Dataset.rows block in
    let dataset_at ~epoch ~absorbed =
      Dataset.create ~epoch universe (Array.append base_rows absorbed)
    in
    let oracles pool =
      List.map (timed_oracle p)
        [ Pmw_erm.Oracles.noisy_gd ~pool (); Pmw_erm.Oracles.output_perturbation ]
    in
    let rng_at epoch = Rng.create ~seed:(seed + 7919 + (1000 * (i + 1)) + (104729 * epoch)) () in
    let epoch =
      if w.Workload.epoch_answers = 0 then None
      else
        Some
          {
            Shard.se_snapshot = journal i ^ ".epoch";
            se_every = 0;
            se_row_bound = Pmw_data.Universe.size universe;
            se_make =
              (fun ~epoch ~absorbed ~prior tel ->
                let dataset = dataset_at ~epoch ~absorbed in
                timed_build p ~epoch ~dataset (fun () ->
                    let pool = Pmw_parallel.Pool.create ~domains:1 () in
                    Session.create ~pool ~telemetry:tel ~label ~config ~dataset
                      ~oracles:(oracles pool)
                      ?prior:(Option.map (Pmw_data.Histogram.of_weights universe) prior)
                      ~rng:(rng_at epoch) ()));
            se_resume =
              (fun ~absorbed ckpt tel ->
                let epoch = ckpt.Checkpoint.epoch in
                let dataset = dataset_at ~epoch ~absorbed in
                timed_build p ~epoch ~dataset (fun () ->
                    let pool = Pmw_parallel.Pool.create ~domains:1 () in
                    Session.resume ~pool ~telemetry:tel ~label ~config ~dataset
                      ~oracles:(oracles pool) ~rng:(rng_at epoch) ckpt));
          }
    in
    Shard.create ~id:i
      ~weight:(float_of_int (Dataset.size block) /. n_total)
      ~journal_path:(journal i) ?epoch
      ~config:
        {
          Broker.max_batch = Workload.max_batch;
          quota = 0;
          retry_after_s = 1.0;
          dedup_cap = 4096;
          checkpoint_every = 0;
        }
      ~telemetry:(telemetry_for p ~traced ~shard:i)
      ~make_session:(fun tel ->
        timed_build p ~epoch:0 ~dataset:block (fun () ->
            let pool = Pmw_parallel.Pool.create ~domains:1 () in
            Session.create ~pool ~telemetry:tel ~label ~config ~dataset:block
              ~oracles:(oracles pool) ~rng:(rng_at 0) ()))
      ~resolve:(Hashtbl.find_opt registry) ~metrics ()
  in
  let shards = Array.of_list (List.mapi mk_shard blocks) in
  Array.iter
    (fun s ->
      match Shard.start s with
      | Ok () -> ()
      | Error m -> failwith (Printf.sprintf "shard %d: %s" (Shard.id s) m))
    shards;
  let router =
    Router.create
      ~config:
        {
          Router.default_config with
          rt_retry_after_s = 1.0;
          rt_ingest_route =
            (if w.Workload.epoch_answers > 0 then
               Some (Shard.route ~by:w.Workload.by ~shards:w.Workload.shards)
             else None);
        }
      ~metrics ~shards ()
  in
  Metrics.set_ledger_budget (Metrics.ledger metrics "fleet") ~eps:Workload.eps
    ~delta:Workload.delta;
  let supervisor =
    Supervisor.start ~telemetry:(Telemetry.null ())
      ~extra_counters:(fun () -> Router.counters router)
      ~extra_marks:(fun () -> Router.trace_marks router)
      ~metrics ~shards ()
  in
  let handler_lock = Mutex.create () in
  let handler_spans = Hashtbl.create 4096 in
  let handler =
    if not traced then Router.submit router
    else fun req ->
      let t0 = Unix.gettimeofday () in
      let rsp = Router.submit router req in
      let t1 = Unix.gettimeofday () in
      Option.iter
        (fun trace ->
          Mutex.lock handler_lock;
          Hashtbl.replace handler_spans trace (t0, t1);
          Mutex.unlock handler_lock)
        req.Pmw_server.Protocol.req_trace;
      rsp
  in
  let socket = Filename.concat dir "s.sock" in
  let listener = Net.listen ~metrics ~handler ~path:socket () in
  {
    wl = w;
    dir;
    socket;
    queries = rw.Common.Workload.queries;
    shards;
    probes;
    supervisor;
    listener;
    metrics;
    handler_spans;
  }

(* The fleet's live pots, read while the shards still run: per-epoch
   (eps spent, eps total) for each shard. *)
let pots t =
  Array.map
    (fun s ->
      match Shard.budget s with
      | Some b ->
          let spent = Pmw_core.Budget.spent b and total = Pmw_core.Budget.total b in
          Some (spent.Pmw_dp.Params.eps, total.Pmw_dp.Params.eps)
      | None -> None)
    t.shards

let journal_bytes t =
  Array.fold_left
    (fun acc s -> match Shard.journal_size s with Some (b, _) -> acc + b | None -> acc)
    0 t.shards

let stop t =
  Net.stop t.listener;
  Supervisor.stop t.supervisor;
  Array.iter Shard.stop t.shards

let teardown t =
  stop t;
  remove_tree t.dir
