(* The closed-loop clients: one thread per connection, each sending its next
   request only when the previous one came back. Every request is timed
   around [Net.Client.call] (the benchmark's client span) and stamped with a
   rid and a trace id, so one request's spans share an id across the
   client, the router handler and every shard leg. *)

module Net = Pmw_server.Net
module Protocol = Pmw_server.Protocol

type sample = {
  s_client : int;
  s_trace : string;
  s_ingest : bool;
  s_query : string;
  s_warmup : bool;
  s_t0 : float;
  s_t1 : float;
  s_result : (Protocol.response, Net.Client.error) result;
}

type result = {
  samples : sample list;
  window_start : float;
  window_end : float;  (** last completion of a measured request *)
}

let request ~client ~seq ~trace ~analyst = function
  | `Query name ->
      {
        Protocol.req_id = seq;
        req_analyst = analyst;
        req_query = name;
        req_rid = Some (Printf.sprintf "c%d-%d" client seq);
        req_shards = None;
        req_trace = Some trace;
        req_pspan = None;
        req_rows = None;
      }
  | `Ingest rows ->
      {
        Protocol.req_id = seq;
        req_analyst = analyst;
        req_query = "ingest";
        req_rid = Some (Printf.sprintf "c%d-%d" client seq);
        req_shards = None;
        req_trace = Some trace;
        req_pspan = None;
        req_rows = Some rows;
      }

let answered (r : Protocol.response) = r.Protocol.rsp_status = Protocol.Answered

(* Run both clients: a warm-up pass over each client's plan, a barrier,
   then [seconds] of measured closed-loop traffic. [after_answer] runs on
   the query client after every answered query (the epoch roll hook). *)
let run ~(fleet : Fleet.t) ~plans ~seconds ~tag ~after_answer =
  let n = Array.length plans in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let warmed = ref 0 in
  let window = ref None in
  let outs = Array.make n [] in
  let conns = Array.init n (fun _ -> Net.Client.connect ~deadline_s:60. fleet.Fleet.socket) in
  let body c =
    let client = conns.(c) in
    let analyst = Printf.sprintf "an%d" c in
    let plan = plans.(c) in
    (* one warm-up pass over a query plan, two ingests *)
    let len, warmup =
      match plan with
      | Workload.Queries a -> (Array.length a, Array.length a)
      | Workload.Ingest a -> (Array.length a, 2)
    in
    let out = ref [] in
    let send seq ~warm =
      let trace = Printf.sprintf "%s-c%d-%d" tag c seq in
      let what, ingest, qname =
        match plan with
        | Workload.Queries a ->
            let q = a.(seq mod len) in
            (`Query q, false, q)
        | Workload.Ingest a -> (`Ingest a.(seq mod len), true, "ingest")
      in
      let req = request ~client:c ~seq ~trace ~analyst what in
      let t0 = Unix.gettimeofday () in
      let r = Net.Client.call client req in
      let t1 = Unix.gettimeofday () in
      out :=
        { s_client = c; s_trace = trace; s_ingest = ingest; s_query = qname; s_warmup = warm;
          s_t0 = t0; s_t1 = t1; s_result = r }
        :: !out;
      match r with Ok rsp when answered rsp && not ingest -> after_answer () | _ -> ()
    in
    for seq = 0 to warmup - 1 do
      send seq ~warm:true
    done;
    let deadline =
      Mutex.lock lock;
      incr warmed;
      if !warmed = n then begin
        window := Some (Unix.gettimeofday ());
        Condition.broadcast cond
      end;
      while !window = None do
        Condition.wait cond lock
      done;
      let start = Option.get !window in
      Mutex.unlock lock;
      start +. seconds
    in
    let seq = ref warmup in
    while Unix.gettimeofday () < deadline do
      send !seq ~warm:false;
      incr seq
    done;
    Net.Client.close client;
    outs.(c) <- !out
  in
  let threads = List.init n (fun c -> Thread.create body c) in
  List.iter Thread.join threads;
  let samples = List.concat (Array.to_list outs) in
  let window_start = Option.get !window in
  let last acc s = if s.s_warmup then acc else Float.max acc s.s_t1 in
  let window_end = List.fold_left last window_start samples in
  { samples; window_start; window_end }
