(* Tests for Pmw_data: universes, histograms (Section 2.1 invariants),
   datasets & adjacency, discretization, and the synthetic generators. *)

module Vec = Pmw_linalg.Vec
module Point = Pmw_data.Point
module Universe = Pmw_data.Universe
module Histogram = Pmw_data.Histogram
module Dataset = Pmw_data.Dataset
module Synth = Pmw_data.Synth
module Rng = Pmw_rng.Rng
module Dist = Pmw_rng.Dist

let checkf tol = Alcotest.(check (float tol))

(* --- Point --- *)

let test_point_dist () =
  let a = Point.make ~label:1. [| 0.; 0. |] in
  let b = Point.make ~label:1. [| 3.; 4. |] in
  checkf 1e-12 "feature distance" 5. (Point.dist a b);
  let c = Point.make ~label:2. [| 0.; 0. |] in
  checkf 1e-12 "label distance" 1. (Point.dist a c)

(* --- Universe --- *)

let test_hypercube () =
  let u = Universe.hypercube ~d:4 () in
  Alcotest.(check int) "size 2^d" 16 (Universe.size u);
  Alcotest.(check int) "dim" 4 (Universe.dim u);
  Universe.iter u ~f:(fun _ p ->
      checkf 1e-9 "every point has unit norm" 1. (Point.norm p);
      checkf 1e-12 "unlabeled" 0. p.Point.label);
  checkf 1e-12 "log size" (log 16.) (Universe.log_size u)

let test_hypercube_distinct_points () =
  let u = Universe.hypercube ~d:3 () in
  for i = 0 to Universe.size u - 1 do
    for j = i + 1 to Universe.size u - 1 do
      Alcotest.(check bool) "distinct" false (Point.equal (Universe.get u i) (Universe.get u j))
    done
  done

let test_labeled_hypercube () =
  let u = Universe.labeled_hypercube ~d:3 ~labels:[| -1.; 1. |] () in
  Alcotest.(check int) "size 2^d * labels" 16 (Universe.size u);
  let labels = Hashtbl.create 2 in
  Universe.iter u ~f:(fun _ p -> Hashtbl.replace labels p.Point.label ());
  Alcotest.(check int) "both labels present" 2 (Hashtbl.length labels)

let test_grid_ball () =
  let u = Universe.grid_ball ~d:2 ~levels:5 () in
  Alcotest.(check int) "levels^d" 25 (Universe.size u);
  Universe.iter u ~f:(fun _ p ->
      Alcotest.(check bool) "inside unit ball" true (Point.norm p <= 1. +. 1e-9))

let test_ball_cover () =
  let u = Universe.ball_cover ~d:2 ~levels:9 () in
  (* all points inside the ball, and strictly more coverage than the
     inscribed-cube grid of equal spacing *)
  Universe.iter u ~f:(fun _ p ->
      Alcotest.(check bool) "inside ball" true (Point.norm p <= 1. +. 1e-9));
  Alcotest.(check bool) "covers beyond the inscribed cube" true
    (Universe.fold u ~init:false ~f:(fun acc _ p ->
         acc || Pmw_linalg.Vec.norm_inf p.Point.features > 1. /. sqrt 2. +. 1e-9));
  (* coverage: random ball points snap within one cell diagonal *)
  let rng = Rng.create ~seed:30 () in
  let diag = 2. *. sqrt 2. /. 8. in
  for _ = 1 to 100 do
    let p = Point.make (Synth.random_unit_vector ~dim:2 rng) in
    let i = Universe.nearest u p in
    Alcotest.(check bool) "sphere point covered" true
      (Point.dist p (Universe.get u i) <= diag +. 1e-9)
  done;
  let lab = Universe.ball_cover_labeled ~d:2 ~levels:5 ~label_levels:3 () in
  Alcotest.(check int) "labeled size = cover x labels" (3 * Universe.size (Universe.ball_cover ~d:2 ~levels:5 ()))
    (Universe.size lab)

let test_regression_grid () =
  let u = Universe.regression_grid ~d:2 ~levels:3 ~label_levels:4 () in
  Alcotest.(check int) "size" 36 (Universe.size u);
  Universe.iter u ~f:(fun _ p ->
      Alcotest.(check bool) "label bounded" true (Float.abs p.Point.label <= 1. +. 1e-9))

let test_universe_validation () =
  Alcotest.check_raises "d too large"
    (Invalid_argument "Universe: hypercube dimension too large (universe would not fit in memory)")
    (fun () -> ignore (Universe.hypercube ~d:25 ()));
  Alcotest.check_raises "empty" (Invalid_argument "Universe.of_points: empty universe") (fun () ->
      ignore (Universe.of_points ~name:"x" [||]))

let test_nearest () =
  let u = Universe.grid_ball ~d:1 ~levels:3 () in
  (* axis: -1, 0, 1 *)
  let idx = Universe.nearest u (Point.make [| 0.9 |]) in
  checkf 1e-12 "snaps to 1" 1. (Universe.get u idx).Point.features.(0);
  let idx0 = Universe.nearest u (Point.make [| 0.1 |]) in
  checkf 1e-12 "snaps to 0" 0. (Universe.get u idx0).Point.features.(0)

let test_max_feature_norm () =
  let u = Universe.hypercube ~d:5 ~scale:2. () in
  checkf 1e-9 "scaled norm" 2. (Universe.max_feature_norm u)

(* --- Histogram --- *)

let u8 = Universe.hypercube ~d:3 ()

let test_histogram_uniform () =
  let h = Histogram.uniform u8 in
  checkf 1e-12 "mass each" 0.125 (Histogram.get h 0);
  checkf 1e-9 "entropy is log|X|" (log 8.) (Histogram.entropy h)

let test_histogram_of_weights_normalizes () =
  let h = Histogram.of_weights u8 [| 2.; 0.; 0.; 0.; 0.; 0.; 0.; 6. |] in
  checkf 1e-12 "normalized" 0.25 (Histogram.get h 0);
  checkf 1e-12 "normalized" 0.75 (Histogram.get h 7);
  Alcotest.(check int) "support" 2 (Histogram.support_size h)

let test_histogram_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.of_weights: negative weight")
    (fun () -> ignore (Histogram.of_weights u8 (Array.make 8 (-1.))));
  Alcotest.check_raises "zero mass" (Invalid_argument "Histogram.of_weights: non-positive total mass")
    (fun () -> ignore (Histogram.of_weights u8 (Array.make 8 0.)));
  Alcotest.check_raises "length" (Invalid_argument "Histogram.of_weights: length mismatch")
    (fun () -> ignore (Histogram.of_weights u8 [| 1. |]))

let test_histogram_expect () =
  let h = Histogram.point_mass u8 3 in
  let p3 = Universe.get u8 3 in
  checkf 1e-12 "expectation under point mass" p3.Point.features.(0)
    (Histogram.expect h (fun _ x -> x.Point.features.(0)));
  let g = Histogram.expect_vec h ~dim:3 (fun _ x -> x.Point.features) in
  Alcotest.(check (array (float 1e-12))) "vector expectation" p3.Point.features g

let test_histogram_distances () =
  let a = Histogram.point_mass u8 0 and b = Histogram.point_mass u8 1 in
  checkf 1e-12 "l1 distance of disjoint points" 2. (Histogram.l1_dist a b);
  checkf 1e-12 "linf" 1. (Histogram.linf_dist a b);
  Alcotest.(check (float 0.)) "kl infinite off support" infinity (Histogram.kl_div a b);
  checkf 1e-12 "kl self" 0. (Histogram.kl_div a a)

let test_histogram_mix () =
  let a = Histogram.point_mass u8 0 and b = Histogram.point_mass u8 1 in
  let m = Histogram.mix a b 0.25 in
  checkf 1e-12 "mix mass" 0.75 (Histogram.get m 0);
  checkf 1e-12 "mix mass" 0.25 (Histogram.get m 1)

let test_histogram_sampling () =
  let rng = Rng.create ~seed:31 () in
  let h = Histogram.of_weights u8 [| 1.; 0.; 0.; 0.; 0.; 0.; 0.; 3. |] in
  let draw = Histogram.sampler h in
  let count7 = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = draw rng in
    Alcotest.(check bool) "support only" true (i = 0 || i = 7);
    if i = 7 then incr count7
  done;
  Alcotest.(check bool) "frequency 3/4" true
    (Float.abs ((float_of_int !count7 /. float_of_int n) -. 0.75) < 0.01)

(* --- Dataset --- *)

let test_dataset_histogram () =
  let ds = Dataset.create u8 [| 0; 0; 7; 7; 7; 7 |] in
  let h = Dataset.histogram ds in
  checkf 1e-12 "counts" (1. /. 3.) (Histogram.get h 0);
  checkf 1e-12 "counts" (2. /. 3.) (Histogram.get h 7)

let test_dataset_adjacency_l1 () =
  (* Section 2.1: adjacent datasets have histograms within 2/n in L1. *)
  let rng = Rng.create ~seed:32 () in
  let ds = Dataset.of_histogram ~n:50 (Histogram.uniform u8) rng in
  for _ = 1 to 20 do
    let neighbor = Dataset.random_neighbor ds rng in
    let d = Histogram.l1_dist (Dataset.histogram ds) (Dataset.histogram neighbor) in
    Alcotest.(check bool) "||D - D'||_1 <= 2/n" true (d <= (2. /. 50.) +. 1e-12)
  done

let test_dataset_replace_row () =
  let ds = Dataset.create u8 [| 1; 2; 3 |] in
  let ds' = Dataset.replace_row ds ~index:1 ~value:5 in
  Alcotest.(check int) "replaced" 5 (Dataset.row ds' 1);
  Alcotest.(check int) "original intact" 2 (Dataset.row ds 1);
  Alcotest.(check int) "others kept" 3 (Dataset.row ds' 2)

let test_dataset_mean_loss_matches_histogram () =
  let ds = Dataset.create u8 [| 0; 7; 7; 0 |] in
  let f (x : Point.t) = x.Point.features.(1) +. 2. in
  let direct = Dataset.mean_loss ds f in
  let via_hist = Histogram.expect (Dataset.histogram ds) (fun _ x -> f x) in
  checkf 1e-12 "consistent" via_hist direct

let test_dataset_subsample_concat () =
  let rng = Rng.create ~seed:33 () in
  let ds = Dataset.create u8 (Array.init 20 (fun i -> i mod 8)) in
  let sub = Dataset.subsample ds ~m:5 rng in
  Alcotest.(check int) "subsample size" 5 (Dataset.size sub);
  let cat = Dataset.concat ds sub in
  Alcotest.(check int) "concat size" 25 (Dataset.size cat)

let test_dataset_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Dataset.create: empty dataset") (fun () ->
      ignore (Dataset.create u8 [||]));
  Alcotest.check_raises "range" (Invalid_argument "Dataset.create: row index out of range")
    (fun () -> ignore (Dataset.create u8 [| 99 |]))

(* --- Synth --- *)

let test_random_unit_vector () =
  let rng = Rng.create ~seed:34 () in
  for _ = 1 to 50 do
    let v = Synth.random_unit_vector ~dim:6 rng in
    checkf 1e-9 "unit" 1. (Vec.norm2 v)
  done

let test_linear_regression_signal () =
  (* The planted signal must survive discretization: the snapped labels should
     correlate with <theta*, x>. *)
  let rng = Rng.create ~seed:35 () in
  let universe = Universe.regression_grid ~d:2 ~levels:7 ~label_levels:9 () in
  let theta_star = [| 0.7; 0. |] in
  let ds = Synth.linear_regression ~universe ~theta_star ~noise:0.05 ~n:4000 rng in
  let cov =
    Dataset.mean_loss ds (fun x -> x.Point.label *. Vec.dot theta_star x.Point.features)
  in
  Alcotest.(check bool) "label correlates with planted signal" true (cov > 0.02)

let test_logistic_labels () =
  let rng = Rng.create ~seed:36 () in
  let universe = Universe.labeled_hypercube ~d:4 ~labels:[| -1.; 1. |] () in
  let theta_star = Synth.random_unit_vector ~dim:4 rng in
  let ds = Synth.logistic_classification ~universe ~theta_star ~margin:6. ~n:3000 rng in
  (* labels in {-1, +1} and correlated with the margin *)
  let agreement =
    Dataset.mean_loss ds (fun x ->
        if x.Point.label *. Vec.dot theta_star x.Point.features > 0. then 1. else 0.)
  in
  Alcotest.(check bool) "labels mostly agree with planted direction" true (agreement > 0.7)

let test_zipf_histogram () =
  let rng = Rng.create ~seed:37 () in
  let h = Synth.zipf_histogram ~universe:u8 ~s:2. rng in
  (* Heavily skewed: top element should dominate. *)
  let w = Histogram.weights h in
  Array.sort (fun a b -> compare b a) w;
  Alcotest.(check bool) "skewed" true (w.(0) > 0.5);
  let h0 = Synth.zipf_histogram ~universe:u8 ~s:0. rng in
  checkf 1e-9 "s=0 uniform" (log 8.) (Histogram.entropy h0)

let test_cluster_histogram () =
  let rng = Rng.create ~seed:38 () in
  let h = Synth.cluster_histogram ~universe:u8 ~centers:2 ~spread:0.3 rng in
  (* valid distribution with less than maximal entropy *)
  Alcotest.(check bool) "concentrated" true (Histogram.entropy h < log 8.)

(* --- Continuous ingestion --- *)

module Continuous = Pmw_data.Continuous

let test_plan_resolution () =
  List.iter
    (fun alpha ->
      let spec = Continuous.plan ~alpha ~dim:2 ~labeled:true () in
      Alcotest.(check bool)
        (Printf.sprintf "rounding error within alpha=%g" alpha)
        true
        (Continuous.rounding_error spec <= alpha +. 1e-9);
      (* finer alpha, finer grid *)
      let coarser = Continuous.plan ~alpha:(2. *. alpha) ~dim:2 ~labeled:true () in
      Alcotest.(check bool) "monotone resolution" true
        (coarser.Continuous.levels <= spec.Continuous.levels))
    [ 0.4; 0.25; 0.1 ]

let test_plan_caps_universe () =
  let spec = Continuous.plan ~alpha:0.01 ~dim:4 ~labeled:false ~max_universe:10_000 () in
  let u = Continuous.universe_of_spec spec in
  Alcotest.(check bool) "capped" true (Universe.size u <= 10_000);
  (* the coarser grid's rounding error honestly exceeds alpha *)
  Alcotest.(check bool) "reported error honest" true (Continuous.rounding_error spec > 0.01)

let test_ingest_roundtrip_accuracy () =
  let rng = Rng.create ~seed:39 () in
  let features = Array.init 200 (fun _ -> Synth.random_unit_vector ~dim:2 rng) in
  let labels = Array.init 200 (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.) in
  let universe, ds = Continuous.ingest ~alpha:0.1 ~features ~labels () in
  Alcotest.(check int) "all records kept" 200 (Dataset.size ds);
  let spec = Continuous.plan ~alpha:0.1 ~dim:2 ~labeled:true () in
  let bound = Continuous.rounding_error spec in
  for i = 0 to 199 do
    let original = Point.make ~label:labels.(i) features.(i) in
    let snapped = Dataset.row_point ds i in
    Alcotest.(check bool)
      (Printf.sprintf "record %d within rounding bound" i)
      true
      (Point.dist original snapped <= bound +. 1e-9)
  done;
  Alcotest.(check bool) "universe is labeled grid" true (Universe.dim universe = 2)

let test_ingest_clips_outliers () =
  let universe, ds =
    Continuous.ingest ~alpha:0.2 ~features:[| [| 5.; 0. |] |] ~labels:[| 7. |] ()
  in
  ignore universe;
  let p = Dataset.row_point ds 0 in
  Alcotest.(check bool) "feature clipped into ball" true (Point.norm p <= 1. +. 1e-9);
  Alcotest.(check bool) "label clipped" true (Float.abs p.Point.label <= 1. +. 1e-9)

(* --- Io --- *)

module Io = Pmw_data.Io

let temp_file () = Filename.temp_file "pmw_test" ".csv"

let test_io_dataset_roundtrip () =
  let rng = Rng.create ~seed:40 () in
  let universe = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:5 () in
  let ds = Dataset.of_histogram ~n:300 (Histogram.uniform universe) rng in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_dataset ~path ds;
      let _, loaded = Io.load_dataset ~path ~alpha:0.05 () in
      Alcotest.(check int) "row count preserved" 300 (Dataset.size loaded);
      (* records already lie on a grid, so re-ingestion at fine alpha must
         keep them within the rounding bound of the new grid *)
      for i = 0 to 9 do
        let a = Dataset.row_point ds i and b = Dataset.row_point loaded i in
        Alcotest.(check bool) "row close after roundtrip" true (Point.dist a b < 0.1)
      done)

let test_io_histogram_save () =
  let universe = Universe.hypercube ~d:3 () in
  let h = Histogram.of_weights universe (Array.init 8 (fun i -> float_of_int (i + 1))) in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_histogram ~path h;
      let raw = Io.load_raw_csv ~path in
      Alcotest.(check int) "one row per element" 8 (Array.length raw);
      (* last column is the mass; must sum to 1 *)
      let mass = Array.fold_left (fun acc r -> acc +. r.(Array.length r - 1)) 0. raw in
      checkf 1e-9 "masses sum to 1" 1. mass)

let test_io_histogram_roundtrip () =
  let universe = Universe.regression_grid ~d:2 ~levels:3 ~label_levels:3 () in
  let h =
    Histogram.of_weights universe (Array.init (Universe.size universe) (fun i -> float_of_int (i + 1)))
  in
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_histogram ~path h;
      let loaded = Io.load_histogram ~path in
      Alcotest.(check int) "same size" (Histogram.size h) (Histogram.size loaded);
      for i = 0 to Histogram.size h - 1 do
        checkf 1e-12 "mass preserved" (Histogram.get h i) (Histogram.get loaded i);
        Alcotest.(check bool) "point preserved" true
          (Point.equal
             (Universe.get universe i)
             (Universe.get (Histogram.universe loaded) i))
      done)

let test_io_rejects_malformed () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1.0,2.0\n1.0,abc\n";
      close_out oc;
      Alcotest.(check bool) "bad field rejected" true
        (try
           ignore (Io.load_raw_csv ~path);
           false
         with Failure _ -> true));
  let path2 = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path2)
    (fun () ->
      let oc = open_out path2 in
      output_string oc "1.0,2.0\n1.0\n";
      close_out oc;
      Alcotest.(check bool) "ragged row rejected" true
        (try
           ignore (Io.load_raw_csv ~path:path2);
           false
         with Failure _ -> true))

(* --- qcheck --- *)

let qcheck_of_weights_sums_to_one =
  QCheck.Test.make ~name:"of_weights always sums to 1" ~count:300
    QCheck.(array_of_size (QCheck.Gen.return 8) (float_bound_inclusive 10.))
    (fun w ->
      QCheck.assume (Array.exists (fun x -> x > 0.) w);
      let h = Histogram.of_weights u8 w in
      Float.abs (Vec.kahan_sum (Histogram.weights h) -. 1.) < 1e-9)

let qcheck_kl_nonneg =
  QCheck.Test.make ~name:"KL divergence non-negative" ~count:200
    QCheck.(
      pair
        (array_of_size (Gen.return 8) (float_range 0.01 10.))
        (array_of_size (Gen.return 8) (float_range 0.01 10.)))
    (fun (wp, wq) ->
      let p = Histogram.of_weights u8 wp and q = Histogram.of_weights u8 wq in
      Histogram.kl_div p q >= 0.)

let qcheck_nearest_is_argmin =
  QCheck.Test.make ~name:"nearest returns the closest element" ~count:200
    QCheck.(pair (float_range (-1.5) 1.5) (float_range (-1.5) 1.5))
    (fun (a, b) ->
      let u = Universe.grid_ball ~d:2 ~levels:4 () in
      let p = Point.make [| a; b |] in
      let i = Universe.nearest u p in
      let di = Point.dist p (Universe.get u i) in
      Universe.fold u ~init:true ~f:(fun acc _ q -> acc && di <= Point.dist p q +. 1e-12))

(* --- nearest-point index against the linear scan --- *)

(* The seed's [Universe.nearest], kept verbatim as the oracle. *)
let scan_nearest u p =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i q ->
      let d = Point.dist p q in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    (Universe.points u);
  !best

type universe_spec =
  | Hypercube of int * float
  | Labeled_hypercube of int * float array
  | Grid_ball of int * int * float
  | Ball_cover of int * int
  | Ball_cover_labeled of int * int * int
  | Regression_grid of int * int * int
  | Points_with_duplicates of int * int * int  (* dim, distinct points, seed *)

let universe_of_spec = function
  | Hypercube (d, scale) -> Universe.hypercube ~d ~scale ()
  | Labeled_hypercube (d, labels) -> Universe.labeled_hypercube ~d ~labels ()
  | Grid_ball (d, levels, radius) -> Universe.grid_ball ~d ~levels ~radius ()
  | Ball_cover (d, levels) -> Universe.ball_cover ~d ~levels ()
  | Ball_cover_labeled (d, levels, label_levels) ->
      Universe.ball_cover_labeled ~d ~levels ~label_levels ()
  | Regression_grid (d, levels, label_levels) -> Universe.regression_grid ~d ~levels ~label_levels ()
  | Points_with_duplicates (d, m, seed) ->
      (* coordinates on a coarse lattice so distances tie often; every point
         appears twice, and one in eight carries a non-finite coordinate *)
      let rng = Rng.create ~seed () in
      let lattice () = float_of_int (Rng.int rng 5 - 2) /. 2. in
      let distinct =
        Array.init m (fun _ ->
            let x = Array.init d (fun _ -> lattice ()) in
            (match Rng.int rng 16 with
            | 0 -> x.(Rng.int rng d) <- Float.nan
            | 1 -> x.(Rng.int rng d) <- Float.infinity
            | _ -> ());
            Point.make ~label:(lattice ()) x)
      in
      let pts = Array.append distinct distinct in
      Dist.shuffle pts rng;
      Universe.of_points ~name:"duplicates" pts

let spec_to_string = function
  | Hypercube (d, s) -> Printf.sprintf "hypercube d=%d scale=%g" d s
  | Labeled_hypercube (d, l) -> Printf.sprintf "labeled_hypercube d=%d labels=%d" d (Array.length l)
  | Grid_ball (d, l, r) -> Printf.sprintf "grid_ball d=%d levels=%d r=%g" d l r
  | Ball_cover (d, l) -> Printf.sprintf "ball_cover d=%d levels=%d" d l
  | Ball_cover_labeled (d, l, ll) -> Printf.sprintf "ball_cover_labeled d=%d levels=%d labels=%d" d l ll
  | Regression_grid (d, l, ll) -> Printf.sprintf "regression_grid d=%d levels=%d labels=%d" d l ll
  | Points_with_duplicates (d, m, seed) -> Printf.sprintf "of_points d=%d m=%d seed=%d" d m seed

let gen_spec =
  QCheck.Gen.(
    oneof
      [
        map2 (fun d s -> Hypercube (d, s)) (int_range 1 7) (float_range 0.1 3.);
        map2
          (fun d l -> Labeled_hypercube (d, Array.of_list l))
          (int_range 1 5)
          (list_size (int_range 1 4) (float_range (-2.) 2.));
        map3 (fun d l r -> Grid_ball (d, l, r)) (int_range 1 3) (int_range 2 9) (float_range 0.5 2.);
        map2 (fun d l -> Ball_cover (d, l)) (int_range 1 3) (int_range 2 9);
        map3 (fun d l ll -> Ball_cover_labeled (d, l, ll)) (int_range 1 2) (int_range 2 7) (int_range 2 5);
        map3 (fun d l ll -> Regression_grid (d, l, ll)) (int_range 1 3) (int_range 2 7) (int_range 2 5);
        map3 (fun d m seed -> Points_with_duplicates (d, m, seed)) (int_range 1 4) (int_range 1 60) nat;
      ])

(* Queries of every kind the index must answer like the scan: universe
   points, exact midpoints of neighbouring elements (ties), random points
   around the universe, points far outside it, and NaN / ±inf coordinates. *)
let queries u rng =
  let m = Universe.size u and d = Universe.dim u in
  let pick () = Universe.get u (Rng.int rng m) in
  let perturb s (p : Point.t) =
    Point.make
      ~label:(p.Point.label +. Rng.uniform rng ~lo:(-.s) ~hi:s)
      (Array.map (fun x -> x +. Rng.uniform rng ~lo:(-.s) ~hi:s) p.Point.features)
  in
  let midpoint (a : Point.t) (b : Point.t) =
    Point.make ~label:((a.Point.label +. b.Point.label) /. 2.)
      (Array.map2 (fun x y -> (x +. y) /. 2.) a.Point.features b.Point.features)
  in
  let special () =
    let p = perturb 0.5 (pick ()) in
    let v = [| Float.nan; Float.infinity; Float.neg_infinity |].(Rng.int rng 3) in
    if Rng.int rng (d + 1) = d then Point.make ~label:v p.Point.features
    else begin
      p.Point.features.(Rng.int rng d) <- v;
      p
    end
  in
  List.concat
    [
      List.init 6 (fun _ -> pick ());
      List.init 8 (fun _ ->
          let i = Rng.int rng m in
          let j = Int.min (m - 1) (i + 1 + Rng.int rng 3) in
          midpoint (Universe.get u i) (Universe.get u j));
      List.init 8 (fun _ -> perturb 0.3 (pick ()));
      List.init 4 (fun _ ->
          let p = pick () in
          let s = 10. ** float_of_int (1 + Rng.int rng 200) in
          Point.make ~label:(p.Point.label *. s) (Array.map (fun x -> (x +. 0.1) *. s) p.Point.features));
      List.init 4 (fun _ -> special ());
    ]

let qcheck_nearest_matches_scan =
  QCheck.Test.make ~name:"nearest index = linear scan" ~count:300
    (QCheck.make
       ~print:(fun (spec, seed) -> Printf.sprintf "%s, query seed %d" (spec_to_string spec) seed)
       QCheck.Gen.(pair gen_spec nat))
    (fun (spec, seed) ->
      let u = universe_of_spec spec in
      List.for_all
        (fun q ->
          let got = Universe.nearest u q and want = scan_nearest u q in
          got = want || QCheck.Test.fail_reportf "query %s: index %d, scan %d"
                          (Format.asprintf "%a" Point.pp q) got want)
        (queries u (Rng.create ~seed ())))

let test_nearest_non_finite () =
  let u = Universe.regression_grid ~d:2 ~levels:5 ~label_levels:3 () in
  List.iter
    (fun (what, q) -> Alcotest.(check int) what (scan_nearest u q) (Universe.nearest u q))
    [
      ("NaN feature", Point.make [| Float.nan; 0. |]);
      ("NaN label", Point.make ~label:Float.nan [| 0.; 0. |]);
      ("+inf feature", Point.make [| Float.infinity; 0. |]);
      ("-inf label", Point.make ~label:Float.neg_infinity [| 0.; 0. |]);
      ("overflowing distance", Point.make [| 1e300; 0. |]);
    ];
  Alcotest.(check int) "NaN snaps to index 0" 0 (Universe.nearest u (Point.make [| Float.nan; 0. |]))

(* Two domains make the first call on a fresh universe at once; both must
   agree with the scan. *)
let test_nearest_concurrent_first_call () =
  let rng = Rng.create ~seed:44 () in
  for _ = 1 to 4 do
    let u = Universe.regression_grid ~d:2 ~levels:40 ~label_levels:5 () in
    let qs = Array.of_list (List.concat (List.init 20 (fun _ -> queries u rng))) in
    let want = Array.map (scan_nearest u) qs in
    let go () = Array.map (Universe.nearest u) qs in
    let a = Domain.spawn go and b = Domain.spawn go in
    let ra = Domain.join a and rb = Domain.join b in
    Alcotest.(check (array int)) "first domain = scan" want ra;
    Alcotest.(check (array int)) "second domain = scan" want rb
  done

(* Datasets built through the index are byte-identical to those the linear
   scan built: digests of the row indices, recorded from the scan. *)
let rows_digest ds =
  Dataset.rows ds |> Array.to_list |> List.map string_of_int |> String.concat ","
  |> Digest.string |> Digest.to_hex

let test_regression_sample_golden () =
  List.iter
    (fun (levels, digest) ->
      let w = Pmw_experiments.Common.Workload.regression ~levels () in
      let ds = w.Pmw_experiments.Common.Workload.sample ~n:50_000 (Rng.create ~seed:1407 ()) in
      Alcotest.(check string) (Printf.sprintf "levels %d" levels) digest (rows_digest ds))
    [
      (3, "7cfc58c506eb5c79da7bb8e249a1d055");
      (7, "d009fc940482aef014a824ad35abad9b");
      (14, "f9ae66f721f2b927dc20d2e86071a956");
    ]

let test_ingest_golden () =
  let rng = Rng.create ~seed:1571 () in
  let features = Array.init 5_000 (fun _ -> Dist.gaussian_vector ~dim:3 ~sigma:0.6 rng) in
  let labels = Array.init 5_000 (fun _ -> Rng.uniform rng ~lo:(-1.2) ~hi:1.2) in
  let u, ds = Continuous.ingest ~alpha:0.1 ~features ~labels () in
  Alcotest.(check int) "universe size" 114448 (Universe.size u);
  Alcotest.(check string) "rows" "d50cd809fd185e08c8561e2b0a6b335f" (rows_digest ds)

let () =
  Alcotest.run "pmw_data"
    [
      ("point", [ Alcotest.test_case "dist" `Quick test_point_dist ]);
      ( "universe",
        [
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "hypercube distinct" `Quick test_hypercube_distinct_points;
          Alcotest.test_case "labeled hypercube" `Quick test_labeled_hypercube;
          Alcotest.test_case "grid ball" `Quick test_grid_ball;
          Alcotest.test_case "ball cover" `Quick test_ball_cover;
          Alcotest.test_case "regression grid" `Quick test_regression_grid;
          Alcotest.test_case "validation" `Quick test_universe_validation;
          Alcotest.test_case "nearest" `Quick test_nearest;
          Alcotest.test_case "nearest non-finite queries" `Quick test_nearest_non_finite;
          Alcotest.test_case "nearest concurrent first call" `Quick test_nearest_concurrent_first_call;
          Alcotest.test_case "regression sample golden" `Quick test_regression_sample_golden;
          Alcotest.test_case "ingest golden" `Quick test_ingest_golden;
          Alcotest.test_case "max feature norm" `Quick test_max_feature_norm;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "uniform" `Quick test_histogram_uniform;
          Alcotest.test_case "of_weights" `Quick test_histogram_of_weights_normalizes;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
          Alcotest.test_case "expect" `Quick test_histogram_expect;
          Alcotest.test_case "distances" `Quick test_histogram_distances;
          Alcotest.test_case "mix" `Quick test_histogram_mix;
          Alcotest.test_case "sampling" `Quick test_histogram_sampling;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "histogram" `Quick test_dataset_histogram;
          Alcotest.test_case "adjacency L1" `Quick test_dataset_adjacency_l1;
          Alcotest.test_case "replace row" `Quick test_dataset_replace_row;
          Alcotest.test_case "mean loss consistency" `Quick test_dataset_mean_loss_matches_histogram;
          Alcotest.test_case "subsample/concat" `Quick test_dataset_subsample_concat;
          Alcotest.test_case "validation" `Quick test_dataset_validation;
        ] );
      ( "synth",
        [
          Alcotest.test_case "unit vector" `Quick test_random_unit_vector;
          Alcotest.test_case "regression signal" `Quick test_linear_regression_signal;
          Alcotest.test_case "logistic labels" `Quick test_logistic_labels;
          Alcotest.test_case "zipf" `Quick test_zipf_histogram;
          Alcotest.test_case "clusters" `Quick test_cluster_histogram;
        ] );
      ( "continuous",
        [
          Alcotest.test_case "plan resolution" `Quick test_plan_resolution;
          Alcotest.test_case "universe cap" `Quick test_plan_caps_universe;
          Alcotest.test_case "ingest rounding bound" `Quick test_ingest_roundtrip_accuracy;
          Alcotest.test_case "outlier clipping" `Quick test_ingest_clips_outliers;
        ] );
      ( "io",
        [
          Alcotest.test_case "dataset roundtrip" `Quick test_io_dataset_roundtrip;
          Alcotest.test_case "histogram save" `Quick test_io_histogram_save;
          Alcotest.test_case "histogram roundtrip" `Quick test_io_histogram_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_io_rejects_malformed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_of_weights_sums_to_one;
            qcheck_kl_nonneg;
            qcheck_nearest_is_argmin;
            qcheck_nearest_matches_scan;
          ] );
    ]
