(* The closed-loop serving workloads and the inputs each one sends.

   Every workload serves the d=2 regression grid of
   [Common.Workload.regression] behind the fleet that [pmw_cli serve] builds,
   with the write-ahead journal on and two client connections. They differ
   in what dominates a request:

   - fanout-tiny: two shards, |X| = 45, solver_iters 100, unscoped queries
     from both clients over the whole panel. The mechanism costs a few ms
     per shard leg, so the router fan-out, the broker queue, the journal
     and the socket are about half of the client latency.
   - ingest-epoch: two hash-partitioned shards with epochs, |X| = 980,
     solver_iters 150. Client 0 queries, client 1 streams 8-row ingest
     requests into the same serializer FIFO, and every 40 answered queries
     the fleet rolls to a new dataset generation (seal, snapshot, journal
     compaction, session rebuild from the re-anchored prior). Convex solves
     are most of a query, and each generation's fresh sparse vector brings
     oracle calls and MW updates back.

   A one-shard workload at |X| = 3920 (all solver work, no fan-out) was
   left out: each run follows a single hypothesis trajectory, and its
   throughput spread across seeds on a two-core VM came within a few
   percent of the largest regression bound the benchmark may set.

   The epoch roll is requested by the query client on every shard before
   its next query, not counted by each shard: per-shard counters drift
   apart under concurrent ingest (the two serializers see the ingest and
   query interleaved differently), and a query that meets shards on two
   generations comes back degraded for epoch skew. *)

module Shard = Pmw_server.Shard
module Rng = Pmw_rng.Rng

type t = {
  name : string;
  shards : int;
  by : Shard.by;
  levels : int;  (** grid levels per feature: |X| = levels^2 * 5 *)
  solver_iters : int;
  t_max : int;
  epoch_answers : int;  (** roll the fleet every this many answered queries; 0 = never *)
  ingest_rows : int;  (** rows per ingest request from client 1; 0 = both clients query *)
}

let n = 50_000

(* At eps = 1 the sparse vector's noise is as large as alpha: most rounds
   come out hard, the update budget T runs out within seconds and later
   answers degrade. At eps = 20 it sits well below alpha, but each DP-ERM
   oracle call then gets eps0 = 0.14 (T = 40), and noisy GD on a 25k-row
   shard at that budget returned excess risks up to 0.05 on the quantile
   and squared losses. The worst fleet answer of a 30 s ingest-epoch run
   reached 0.052, and one run in about fifty went over alpha. At eps = 40
   (eps0 = 0.29) the worst of 40 calls per query was 0.024. *)
let eps = 40.

let delta = 1e-6
let alpha = 0.06
let clients = 2
let max_batch = 16

(* The sparse vector's stream capacity: a bound on queries per session,
   never reached in a run (it only enters the theory bounds). *)
let k = 1_000_000

let all =
  [
    {
      name = "fanout-tiny";
      shards = 2;
      by = Shard.Block;
      levels = 3;
      solver_iters = 100;
      t_max = 20;
      epoch_answers = 0;
      ingest_rows = 0;
    };
    {
      name = "ingest-epoch";
      shards = 2;
      by = Shard.Hash;
      levels = 14;
      solver_iters = 150;
      t_max = 40;
      epoch_answers = 40;
      ingest_rows = 8;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The same workload at a size that runs in about a second: the smoke
   tests exercise every code path without the production sizes. *)
let tiny w =
  { w with levels = min w.levels 7; epoch_answers = (if w.epoch_answers > 0 then 6 else 0) }

let universe_size w = w.levels * w.levels * 5

(* --- inputs, all derived from the workload seed --- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* What one client sends: query names to cycle, or ingest batches. *)
type plan = Queries of string array | Ingest of int list array

let plans w ~seed ~panel ~sample =
  let rng = Rng.create ~seed:(seed + 31337) () in
  let order = shuffle rng panel in
  Array.init clients (fun c ->
      if w.ingest_rows > 0 && c = 1 then begin
        (* Rows drawn from the workload's own generator, so absorbed
           generations keep the data distribution. *)
        let batches = 4096 in
        let rows = Pmw_data.Dataset.rows (sample ~n:(batches * w.ingest_rows) rng) in
        Ingest
          (Array.init batches (fun b ->
               Array.to_list (Array.sub rows (b * w.ingest_rows) w.ingest_rows)))
      end
      else Queries (shuffle rng order))
