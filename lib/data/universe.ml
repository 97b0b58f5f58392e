(* --- exact nearest-point index ---

   A k-d tree over the [dim + 1] coordinates (features, then label) of the
   universe's points, with a bounding box on every node. A query keeps the
   scan's answer exactly: leaves compare the same [Point.dist] values, ties
   go to the lowest index, and a box is skipped only when its lower bound
   exceeds the best distance found so far.

   [bound] repeats [Point.dist]'s float operations in the same order, on
   per-coordinate gaps no larger in magnitude than those of any point in
   the box. Every one of those operations is monotone under rounding, so
   the bound never exceeds the computed distance of a point inside the box;
   [slack] keeps that true even if the two were ever evaluated with
   different rounding. Points with a non-finite coordinate are left out of
   the tree: their distance is NaN or infinite, which the scan never
   selects. *)

type node =
  | Leaf of { lo : float array; hi : float array; ids : int array }
  | Split of { lo : float array; hi : float array; left : node; right : node }

let leaf_size = 8
let slack = 1. +. 1e-9
let coord (p : Point.t) dim c = if c < dim then p.features.(c) else p.label

(* Hoare's FIND: reorder ids.(a .. b-1) so that ids.(m) has rank m - a
   by [key], with keys no larger before it and no smaller after it. *)
let select key ids a b m =
  let l = ref a and r = ref (b - 1) in
  while !l < !r do
    let pivot = key ids.(m) in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while key ids.(!i) < pivot do incr i done;
      while key ids.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let x = ids.(!i) in
        ids.(!i) <- ids.(!j);
        ids.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if !j < m then l := !i;
    if m < !i then r := !j
  done

let build dim points =
  let k = dim + 1 in
  let finite (p : Point.t) = Float.is_finite p.label && Array.for_all Float.is_finite p.features in
  let ids =
    Array.of_seq
      (Seq.filter (fun i -> finite points.(i)) (Seq.init (Array.length points) Fun.id))
  in
  let rec go a b =
    let lo = Array.make k infinity and hi = Array.make k neg_infinity in
    for i = a to b - 1 do
      let p = points.(ids.(i)) in
      for c = 0 to k - 1 do
        let x = coord p dim c in
        if x < lo.(c) then lo.(c) <- x;
        if x > hi.(c) then hi.(c) <- x
      done
    done;
    let axis = ref 0 in
    for c = 1 to k - 1 do
      if hi.(c) -. lo.(c) > hi.(!axis) -. lo.(!axis) then axis := c
    done;
    (* all points equal (duplicates) or few enough: one leaf *)
    if b - a <= leaf_size || not (hi.(!axis) -. lo.(!axis) > 0.) then
      Leaf { lo; hi; ids = Array.sub ids a (b - a) }
    else begin
      let m = (a + b) / 2 in
      select (fun i -> coord points.(i) dim !axis) ids a b m;
      Split { lo; hi; left = go a m; right = go m b }
    end
  in
  go 0 (Array.length ids)

(* The gap from [x] to [[lo, hi]] is [0. *. x] inside the interval: 0 for a
   finite coordinate, NaN for a NaN one, so a NaN query prunes every box
   (all of its distances are NaN). An empty box (a tree with no finite
   point) has an infinite bound. *)
let bound (p : Point.t) dim node =
  let lo, hi = match node with Leaf { lo; hi; _ } | Split { lo; hi; _ } -> (lo, hi) in
  let gap x c = if x < lo.(c) then x -. lo.(c) else if x > hi.(c) then x -. hi.(c) else 0. *. x in
  let acc = ref 0. in
  for c = 0 to dim - 1 do
    let g = gap p.features.(c) c in
    acc := !acc +. (g *. g)
  done;
  let d = sqrt !acc and gl = gap p.label dim in
  sqrt ((d *. d) +. (gl *. gl))

type t = { name : string; dim : int; points : Point.t array; index : node option Atomic.t }

let of_points ~name points =
  if Array.length points = 0 then invalid_arg "Universe.of_points: empty universe";
  let dim = Point.dim points.(0) in
  Array.iter
    (fun p -> if Point.dim p <> dim then invalid_arg "Universe.of_points: mixed dimensions")
    points;
  { name; dim; points; index = Atomic.make None }

let name t = t.name
let size t = Array.length t.points
let dim t = t.dim

let get t i =
  if i < 0 || i >= size t then invalid_arg "Universe.get: index out of range";
  t.points.(i)

let log_size t = log (float_of_int (size t))
let points t = t.points

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i p -> acc := f !acc i p) t.points;
  !acc

let iter t ~f = Array.iteri f t.points

(* Built on first use. Domains racing on a fresh universe may each build a
   tree; the first to publish wins and the others adopt it, so every
   caller searches the same one. *)
let index t =
  match Atomic.get t.index with
  | Some root -> root
  | None ->
      ignore (Atomic.compare_and_set t.index None (Some (build t.dim t.points)));
      Option.get (Atomic.get t.index)

let nearest t p =
  if Point.dim p <> t.dim then invalid_arg "Universe.nearest: dimension mismatch";
  let root = index t in
  (* Starting from (0, infinity) as the scan does: a point at infinite or
     NaN distance is never taken, and index 0 is returned when no point is
     at a finite distance. *)
  let best = ref 0 and best_d = ref infinity in
  let open_ b = b < infinity && b <= !best_d *. slack in
  let rec search = function
    | Leaf { ids; _ } ->
        Array.iter
          (fun i ->
            let d = Point.dist p t.points.(i) in
            if d < !best_d || (d = !best_d && i < !best) then begin
              best := i;
              best_d := d
            end)
          ids
    | Split { left; right; _ } ->
        let bl = bound p t.dim left and br = bound p t.dim right in
        let near, bn, far, bf = if bl <= br then (left, bl, right, br) else (right, br, left, bl) in
        if open_ bn then search near;
        if open_ bf then search far
  in
  if open_ (bound p t.dim root) then search root;
  !best

let max_feature_norm t = Array.fold_left (fun acc p -> Float.max acc (Point.norm p)) 0. t.points

let check_d d =
  if d <= 0 then invalid_arg "Universe: dimension must be positive";
  if d > 20 then invalid_arg "Universe: hypercube dimension too large (universe would not fit in memory)"

let hypercube_features d scale =
  let coord = scale /. sqrt (float_of_int d) in
  Array.init (1 lsl d) (fun code ->
      Array.init d (fun j -> if (code lsr j) land 1 = 1 then coord else -.coord))

let hypercube ~d ?(scale = 1.) () =
  check_d d;
  let features = hypercube_features d scale in
  of_points
    ~name:(Printf.sprintf "hypercube(d=%d,scale=%g)" d scale)
    (Array.map Point.make features)

let labeled_hypercube ~d ?(scale = 1.) ~labels () =
  check_d d;
  if Array.length labels = 0 then invalid_arg "Universe.labeled_hypercube: no labels";
  let features = hypercube_features d scale in
  let pts =
    Array.concat
      (Array.to_list
         (Array.map (fun label -> Array.map (fun x -> Point.make ~label x) features) labels))
  in
  of_points ~name:(Printf.sprintf "labeled_hypercube(d=%d,labels=%d)" d (Array.length labels)) pts

let axis_grid levels lo hi =
  if levels < 2 then invalid_arg "Universe: grid needs at least 2 levels";
  Array.init levels (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (levels - 1)))

let grid_features d levels radius =
  let coord_bound = radius /. sqrt (float_of_int d) in
  let axis = axis_grid levels (-.coord_bound) coord_bound in
  let total = int_of_float (float_of_int levels ** float_of_int d) in
  if total > 1 lsl 22 then invalid_arg "Universe: grid universe too large";
  Array.init total (fun code ->
      let rest = ref code in
      Array.init d (fun _ ->
          let v = axis.(!rest mod levels) in
          rest := !rest / levels;
          v))

let grid_ball ~d ~levels ?(radius = 1.) () =
  check_d d;
  let features = grid_features d levels radius in
  of_points
    ~name:(Printf.sprintf "grid_ball(d=%d,levels=%d,r=%g)" d levels radius)
    (Array.map Point.make features)

let cover_features d levels radius =
  let axis = axis_grid levels (-.radius) radius in
  let total = int_of_float (float_of_int levels ** float_of_int d) in
  if total > 1 lsl 22 then invalid_arg "Universe: grid universe too large";
  let kept = ref [] in
  for code = total - 1 downto 0 do
    let rest = ref code in
    let p =
      Array.init d (fun _ ->
          let v = axis.(!rest mod levels) in
          rest := !rest / levels;
          v)
    in
    (* tolerance keeps boundary points that land on the sphere numerically *)
    if Pmw_linalg.Vec.norm2 p <= radius +. 1e-12 then kept := p :: !kept
  done;
  if !kept = [] then [| Array.make d 0. |] else Array.of_list !kept

let ball_cover ~d ~levels ?(radius = 1.) () =
  check_d d;
  let features = cover_features d levels radius in
  of_points
    ~name:(Printf.sprintf "ball_cover(d=%d,levels=%d,r=%g)" d levels radius)
    (Array.map Point.make features)

let ball_cover_labeled ~d ~levels ~label_levels ?(radius = 1.) ?(label_bound = 1.) () =
  check_d d;
  if label_levels < 2 then invalid_arg "Universe.ball_cover_labeled: label_levels < 2";
  let features = cover_features d levels radius in
  let labels = axis_grid label_levels (-.label_bound) label_bound in
  let pts =
    Array.concat
      (Array.to_list
         (Array.map (fun label -> Array.map (fun x -> Point.make ~label x) features) labels))
  in
  of_points
    ~name:
      (Printf.sprintf "ball_cover_labeled(d=%d,levels=%d,labels=%d)" d levels label_levels)
    pts

let regression_grid ~d ~levels ~label_levels ?(radius = 1.) ?(label_bound = 1.) () =
  check_d d;
  if label_levels < 2 then invalid_arg "Universe.regression_grid: label_levels < 2";
  let features = grid_features d levels radius in
  let labels = axis_grid label_levels (-.label_bound) label_bound in
  let pts =
    Array.concat
      (Array.to_list
         (Array.map (fun label -> Array.map (fun x -> Point.make ~label x) features) labels))
  in
  of_points
    ~name:(Printf.sprintf "regression_grid(d=%d,levels=%d,labels=%d)" d levels label_levels)
    pts
