(* The benchmark harness.

   Two layers:
   1. The experiment harness (lib/experiments) — regenerates every table and
      figure of the paper's evaluation (Table 1 rows 1-4 and the F1-F5 prose
      claims). Run all of them (default) or one by id.
   2. Bechamel micro-benchmarks of the mechanism's inner operations (one per
      reproduced table/figure, timing the kernel that experiment stresses).

   Two layers plus a kernel regression harness: the before/after kernel
   suite times the pooled O(|X|) kernels against the pre-pool (seed)
   algorithms, replicated verbatim below, at |X| = 2^10 / 2^14 / 2^18
   (plus the nearest-point index on a 2^16 regression grid).

   Usage:
     dune exec bench/main.exe                       # micro + kernels + experiments
     dune exec bench/main.exe -- list               # list experiment ids
     dune exec bench/main.exe -- t1-uglm            # one experiment
     dune exec bench/main.exe -- micro              # micro + kernel benchmarks only
     dune exec bench/main.exe -- micro --json       # also write BENCH_pmw.json
     dune exec bench/main.exe -- micro --json --quick  # |X| = 2^10, plus the 2^16 nearest row (CI smoke) *)

open Bechamel
open Toolkit
module Common = Pmw_experiments.Common
module Registry = Pmw_experiments.Registry
module Universe = Pmw_data.Universe
module Histogram = Pmw_data.Histogram
module Rng = Pmw_rng.Rng

(* --- bechamel micro-benchmarks: the kernels behind each experiment --- *)

let micro_tests () =
  let rng = Rng.create ~seed:1 () in
  let universe = Universe.hypercube ~d:10 () in
  let hist = Pmw_data.Synth.zipf_histogram ~universe ~s:1. rng in
  let mw = Pmw_mw.Mw.create ~universe ~eta:0.3 () in
  let sv =
    Pmw_dp.Sparse_vector.create ~t_max:1_000_000 ~k:max_int ~threshold:1.
      ~privacy:(Pmw_dp.Params.create ~eps:1. ~delta:1e-6)
      ~sensitivity:0.001 ~rng ()
  in
  let scores = Array.init 1024 (fun i -> float_of_int (i mod 17)) in
  let workload = Common.Workload.regression ~d:2 ~levels:5 () in
  let dataset = workload.Common.Workload.sample ~n:10_000 (Rng.create ~seed:2 ()) in
  let query = List.hd workload.Common.Workload.queries in
  let dhat = Histogram.uniform workload.Common.Workload.universe in
  [
    (* T1.linear: the linear-PMW kernel = one histogram inner product, via
       the production path (memoized per-query value table + chunked dot) *)
    Test.make ~name:"t1-linear/query-eval"
      (Staged.stage
         (let lq =
            Pmw_core.Linear_pmw.counting_query ~name:"first-feature" (fun x ->
                x.Pmw_data.Point.features.(0) > 0.)
          in
          fun () -> Pmw_core.Linear_pmw.evaluate lq hist));
    (* T1.lipschitz & friends: one public argmin over the hypothesis *)
    Test.make ~name:"t1-lipschitz/public-argmin"
      (Staged.stage (fun () -> Pmw_core.Cm_query.minimize_on_histogram ~iters:50 query dhat));
    (* T1.uglm: one noisy-GD oracle call *)
    Test.make ~name:"t1-uglm/oracle-call"
      (Staged.stage
         (let oracle = Pmw_erm.Oracles.noisy_gd ~max_steps:50 () in
          let req =
            {
              Pmw_erm.Oracle.dataset;
              loss = query.Pmw_core.Cm_query.loss;
              domain = query.Pmw_core.Cm_query.domain;
              privacy = Pmw_dp.Params.create ~eps:0.1 ~delta:1e-7;
              rng;
              solver_iters = 50;
            }
          in
          fun () -> oracle.Pmw_erm.Oracle.run req));
    (* T1.strong: the exponential mechanism selection used offline *)
    Test.make ~name:"t1-strong/exp-mechanism"
      (Staged.stage (fun () ->
           Pmw_dp.Mechanisms.exponential ~eps:1. ~sensitivity:0.01 ~scores rng));
    (* F2/F5: one MW update over |X| = 1024 *)
    Test.make ~name:"f2-f5/mw-update"
      (Staged.stage (fun () -> Pmw_mw.Mw.update mw ~loss:(fun i -> float_of_int (i land 7))));
    (* F1/F4: one sparse-vector query *)
    Test.make ~name:"f1-f4/sv-query" (Staged.stage (fun () -> Pmw_dp.Sparse_vector.query sv 0.2));
    (* F3: one histogram normalization (softmax over |X|) *)
    Test.make ~name:"f3/distribution" (Staged.stage (fun () -> Pmw_mw.Mw.distribution mw));
    (* A3: one analytic Gaussian calibration (bisection) *)
    Test.make ~name:"a3/analytic-sigma"
      (Staged.stage (fun () ->
           Pmw_dp.Analytic_gaussian.sigma ~eps:0.7 ~delta:1e-6 ~sensitivity:1.));
    (* A6: one MWEM round (measurement + update) over |X| = 1024 *)
    Test.make ~name:"a6/mwem-round"
      (Staged.stage
         (let ds = Pmw_data.Dataset.of_histogram ~n:5_000 hist (Rng.create ~seed:3 ()) in
          let queries =
            Array.of_list (Pmw_core.Workloads.positive_marginals ~dim:10 ~order:1)
          in
          fun () ->
            Pmw_core.Mwem.run ~dataset:ds ~queries ~eps:1. ~rounds:1 ~replays:1
              ~rng:(Rng.create ~seed:4 ())
              ()));
    (* F7: one least-squares reconstruction decode (n = 64, k = 128) *)
    Test.make ~name:"f7/reconstruction-decode"
      (Staged.stage
         (let rng7 = Rng.create ~seed:5 () in
          let secret = Array.init 64 (fun i -> i mod 3 = 0) in
          let qs =
            Pmw_attacks.Reconstruction.random_subset_queries ~n:64 ~k:128 ~secret
              ~noise:(fun _ -> 0.)
              rng7
          in
          fun () -> Pmw_attacks.Reconstruction.reconstruct qs));
    (* A2 flavor: permute-and-flip selection over 1024 candidates *)
    Test.make ~name:"a2/permute-and-flip"
      (Staged.stage (fun () ->
           Pmw_dp.Mechanisms.permute_and_flip ~eps:1. ~sensitivity:0.01 ~scores rng));
  ]

let run_micro () =
  let tests = Test.make_grouped ~name:"pmw" ~fmt:"%s/%s" (micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ t ] -> rows := (name, t) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  Printf.printf "\n== micro-benchmarks (ns per call, OLS on monotonic clock) ==\n";
  List.iter (fun (name, t) -> Printf.printf "%-32s %12.0f ns\n" name t) rows;
  Printf.printf "%!"

(* --- kernel regression bench: the pooled kernels against the pre-pool
   (seed) algorithms, replicated verbatim from the original Mw/Special/
   Histogram implementations so "baseline" means the actual before-code. --- *)

module Pool = Pmw_parallel.Pool

let seed_log_sum_exp a =
  let n = Array.length a in
  if n = 0 then neg_infinity
  else begin
    let m = Array.fold_left Float.max neg_infinity a in
    if m = neg_infinity then neg_infinity
    else begin
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. exp (a.(i) -. m)
      done;
      m +. log !acc
    end
  end

let seed_softmax a =
  let lse = seed_log_sum_exp a in
  Array.map (fun x -> exp (x -. lse)) a

let seed_mw_update log_w ~eta ~loss =
  for i = 0 to Array.length log_w - 1 do
    log_w.(i) <- log_w.(i) -. (eta *. loss i)
  done;
  let lse = seed_log_sum_exp log_w in
  if Float.abs lse > 500. then
    for i = 0 to Array.length log_w - 1 do
      log_w.(i) <- log_w.(i) -. lse
    done

let seed_distribution universe log_w = Histogram.of_weights universe (seed_softmax log_w)

let seed_expect universe w f =
  let values = Array.mapi (fun i wi -> wi *. f i (Universe.get universe i)) w in
  Pmw_linalg.Vec.kahan_sum values

let seed_nearest t p =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i q ->
      let d = Pmw_data.Point.dist p q in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    (Universe.points t);
  !best

(* Median of three timed batches, each batch running for ~0.15 s wall clock;
   returns ns per call. *)
let time_ns f =
  f ();
  f ();
  let batch () =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < 0.15 do
      f ();
      incr iters;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed *. 1e9 /. float_of_int !iters
  in
  match List.sort compare [ batch (); batch (); batch () ] with
  | [ _; median; _ ] -> median
  | _ -> assert false

type kernel_row = {
  kr_name : string;
  kr_bits : int;
  kr_baseline : float;  (** seed algorithm, ns/call *)
  kr_seq : float;  (** pooled kernel, 1 domain, ns/call *)
  kr_par : float;  (** pooled kernel, [par_domains] domains, ns/call *)
  mutable kr_wall_s : float;  (** wall clock spent measuring this row *)
}

(* Stamp the row with how long its three measurements took end to end —
   a trajectory signal (is the bench itself slowing down?) that the ns/call
   estimates deliberately exclude. *)
let walled make =
  let t0 = Unix.gettimeofday () in
  let row = make () in
  row.kr_wall_s <- Unix.gettimeofday () -. t0;
  row

let par_domains = 4

(* nearest: snapping records onto the universe (Synth, Continuous.ingest).
   Each call snaps the next of 256 universe points jittered by up to 0.05
   per coordinate and label. The index is not pooled, so its one timing
   fills both the pool-1 and pool-4 columns; it is built on the first
   (warm-up) call, which the row's wall clock includes. *)
let nearest_row universe bits =
  let rng = Rng.create ~seed:6 () in
  let jitter x = x +. Rng.uniform rng ~lo:(-0.05) ~hi:0.05 in
  let queries =
    Array.init 256 (fun _ ->
        let p = Universe.get universe (Rng.int rng (Universe.size universe)) in
        Pmw_data.Point.make ~label:(jitter p.Pmw_data.Point.label)
          (Array.map jitter p.Pmw_data.Point.features))
  in
  let next = ref 0 in
  let query () =
    next := (!next + 1) land 255;
    queries.(!next)
  in
  walled (fun () ->
      let indexed = time_ns (fun () -> ignore (Universe.nearest universe (query ()))) in
      {
        kr_name = "data/nearest";
        kr_bits = bits;
        kr_baseline = time_ns (fun () -> ignore (seed_nearest universe (query ())));
        kr_seq = indexed;
        kr_par = indexed;
        kr_wall_s = 0.;
      })

let bench_kernels_at ~pool1 ~pool4 bits =
  let universe = Universe.hypercube ~d:bits () in
  let n = Universe.size universe in
  let eta = 0.3 in
  let loss i = float_of_int (i land 7) in
  (* mw-update: the F2/F5 hot loop. The element with loss 0 pins the max at
     0, so neither variant recenters — each call is the steady-state cost. *)
  let mw_update =
    let log_w = Array.make n 0. in
    let mw1 = Pmw_mw.Mw.create ~pool:pool1 ~universe ~eta () in
    let mw4 = Pmw_mw.Mw.create ~pool:pool4 ~universe ~eta () in
    walled (fun () ->
        {
          kr_name = "f2-f5/mw-update";
          kr_bits = bits;
          kr_baseline = time_ns (fun () -> seed_mw_update log_w ~eta ~loss);
          kr_seq = time_ns (fun () -> Pmw_mw.Mw.update mw1 ~loss);
          kr_par = time_ns (fun () -> Pmw_mw.Mw.update mw4 ~loss);
          kr_wall_s = 0.;
        })
  in
  (* distribution: softmax over |X| + histogram construction (F3). The MW
     state is warmed with a few updates so the weights are non-uniform. *)
  let distribution =
    let mw1 = Pmw_mw.Mw.create ~pool:pool1 ~universe ~eta () in
    let mw4 = Pmw_mw.Mw.create ~pool:pool4 ~universe ~eta () in
    for _ = 1 to 3 do
      Pmw_mw.Mw.update mw1 ~loss;
      Pmw_mw.Mw.update mw4 ~loss
    done;
    let log_w = Pmw_mw.Mw.log_weights mw1 in
    walled (fun () ->
        {
          kr_name = "f3/distribution";
          kr_bits = bits;
          kr_baseline = time_ns (fun () -> ignore (seed_distribution universe log_w));
          kr_seq = time_ns (fun () -> ignore (Pmw_mw.Mw.distribution mw1));
          kr_par = time_ns (fun () -> ignore (Pmw_mw.Mw.distribution mw4));
          kr_wall_s = 0.;
        })
  in
  (* log-sum-exp: the shared normalization primitive. *)
  let lse =
    let a = Array.init n (fun i -> -.(eta *. loss i)) in
    walled (fun () ->
        {
          kr_name = "linalg/log-sum-exp";
          kr_bits = bits;
          kr_baseline = time_ns (fun () -> ignore (seed_log_sum_exp a));
          kr_seq = time_ns (fun () -> ignore (Pmw_linalg.Special.log_sum_exp ~pool:pool1 a));
          kr_par = time_ns (fun () -> ignore (Pmw_linalg.Special.log_sum_exp ~pool:pool4 a));
          kr_wall_s = 0.;
        })
  in
  (* expect: the linear-query evaluation sweep. *)
  let expect =
    let hist = Histogram.uniform universe in
    let w = Histogram.weights hist in
    let f _ (x : Pmw_data.Point.t) = if x.Pmw_data.Point.features.(0) > 0. then 1. else 0. in
    walled (fun () ->
        {
          kr_name = "hist/expect";
          kr_bits = bits;
          kr_baseline = time_ns (fun () -> ignore (seed_expect universe w f));
          kr_seq = time_ns (fun () -> ignore (Histogram.expect ~pool:pool1 hist f));
          kr_par = time_ns (fun () -> ignore (Histogram.expect ~pool:pool4 hist f));
          kr_wall_s = 0.;
        })
  in
  [ mw_update; distribution; lse; expect; nearest_row universe bits ]

let speedup r = r.kr_baseline /. r.kr_par

let print_kernel_rows rows =
  Printf.printf
    "\n== kernel regression bench (ns per call; baseline = seed algorithm, par = %d domains) ==\n"
    par_domains;
  Printf.printf "%-22s %6s %14s %14s %14s %9s\n" "kernel" "|X|" "baseline" "pool-1" "pool-4"
    "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-22s %6s %14.0f %14.0f %14.0f %8.2fx\n" r.kr_name
        (Printf.sprintf "2^%d" r.kr_bits)
        r.kr_baseline r.kr_seq r.kr_par (speedup r))
    rows;
  Printf.printf "%!"

(* First line of a subprocess, or None on any failure — used for the
   best-effort git revision stamp (benches also run from tarballs). *)
let read_first_line cmd =
  match Unix.open_process_in cmd with
  | exception _ -> None
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> (match line with Some "" | None -> None | s -> s)
      | _ | (exception _) -> None)

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let write_json ~path ~quick rows =
  let oc = open_out path in
  let git =
    match read_first_line "git describe --always --dirty 2>/dev/null" with
    | Some rev -> rev
    | None -> "unknown"
  in
  let pmw_domains = try Sys.getenv "PMW_DOMAINS" with Not_found -> "" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"%s\",\n" Bench_json.schema;
  Printf.fprintf oc "  \"command\": \"bench/main.exe -- micro --json%s\",\n"
    (if quick then " --quick" else "");
  (* Trajectory metadata: enough to line up two BENCH_pmw.json files from
     different commits/machines before comparing their numbers. *)
  Printf.fprintf oc "  \"meta\": {\n";
  Printf.fprintf oc "    \"git\": \"%s\",\n" (String.escaped git);
  Printf.fprintf oc "    \"timestamp\": \"%s\",\n" (iso8601_utc ());
  Printf.fprintf oc "    \"ocaml\": \"%s\",\n" Sys.ocaml_version;
  Printf.fprintf oc "    \"pmw_domains_env\": \"%s\",\n" (String.escaped pmw_domains);
  Printf.fprintf oc "    \"quick\": %b\n" quick;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"domains\": %d,\n" par_domains;
  Printf.fprintf oc "  \"grain\": %d,\n" Pool.grain;
  Printf.fprintf oc "  \"kernels\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"universe_bits\": %d, \"baseline_ns\": %.1f, \"seq_ns\": %.1f, \
         \"par_ns\": %.1f, \"speedup\": %.3f, \"wall_s\": %.3f }%s\n"
        r.kr_name r.kr_bits r.kr_baseline r.kr_seq r.kr_par (speedup r) r.kr_wall_s
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let run_kernels ~json ~quick () =
  let sizes = if quick then [ 10 ] else [ 10; 14; 18 ] in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:par_domains () in
  let rows = List.concat_map (bench_kernels_at ~pool1 ~pool4) sizes in
  (* the regression grid the linear-regression workload snaps onto, at
     |X| = 114^2 * 5 ~ 2^16 *)
  let grid = Universe.regression_grid ~d:2 ~levels:114 ~label_levels:5 () in
  let rows = rows @ [ nearest_row grid 16 ] in
  print_kernel_rows rows;
  if json then write_json ~path:"BENCH_pmw.json" ~quick rows;
  Pool.shutdown pool4;
  Pool.shutdown pool1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_flag a = String.length a >= 2 && String.sub a 0 2 = "--" in
  let flags, positional = List.partition is_flag args in
  let json = List.mem "--json" flags in
  let quick = List.mem "--quick" flags in
  match positional with
  | "list" :: _ ->
      List.iter
        (fun e ->
          Printf.printf "%-14s %s\n" e.Registry.name e.Registry.description)
        Registry.all
  | "micro" :: _ ->
      run_micro ();
      run_kernels ~json ~quick ()
  | name :: _ -> (
      match Registry.find name with
      | Some e -> e.Registry.run ()
      | None ->
          Printf.eprintf "unknown experiment %S; try 'list'\n" name;
          exit 1)
  | [] ->
      run_micro ();
      run_kernels ~json ~quick ();
      Registry.run_all ()
