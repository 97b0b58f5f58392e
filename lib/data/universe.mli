(** Finite data universes.

    The paper's algorithms maintain a histogram over a finite universe [X]
    and run in time polynomial in [|X|] (Section 4.3), so a universe here is
    a concrete, fully materialized array of points. Constructors provide the
    universes used in the experiments: the boolean hypercube (the paper's
    running example [X = {±1/√d}ᵈ]), grid discretizations of the unit ball
    (the Section 1.1 rounding remark), and labeled variants for regression
    and classification losses. *)

type t

val of_points : name:string -> Point.t array -> t
(** @raise Invalid_argument on an empty array or mixed dimensions. *)

val name : t -> string

val size : t -> int
(** [|X|]. *)

val dim : t -> int
(** Feature dimension of every point. *)

val get : t -> int -> Point.t
(** [get u i] is the [i]-th element; elements are indexed [0 .. size-1].
    @raise Invalid_argument when out of range. *)

val log_size : t -> float
(** [log |X|] — the quantity every bound in the paper depends on. *)

val points : t -> Point.t array
(** The underlying array (not a copy — do not mutate). *)

val fold : t -> init:'a -> f:('a -> int -> Point.t -> 'a) -> 'a
val iter : t -> f:(int -> Point.t -> unit) -> unit

val nearest : t -> Point.t -> int
(** Index of the universe element closest (in {!Point.dist}) to the given
    point; ties go to the lowest index. Returns [0] when no element is at a
    finite distance (a NaN or infinite coordinate in the query, or a
    distance that overflows).

    Answered from an exact k-d tree over features and label, built on the
    first call in [O(|X| log |X|)] and kept with the universe (safe when
    several domains make the first call at once). The result is exactly
    that of a linear scan comparing the same {!Point.dist} values, but a
    query only measures the elements whose tree box could hold one at
    least as close as the best found so far. Elements of {!points} must not
    be mutated after the first call.
    @raise Invalid_argument when the point's dimension differs from
    {!dim}. *)

val max_feature_norm : t -> float
(** [max_x ||x||₂] over the universe — used to bound Lipschitz constants. *)

(** {1 Constructors used by the experiments} *)

val hypercube : d:int -> ?scale:float -> unit -> t
(** [2ᵈ] unlabeled points with coordinates [±scale/√d] (so every point has
    norm exactly [scale]; default [scale = 1.]). This is the paper's
    [X = {±1/√d}ᵈ]. @raise Invalid_argument if [d <= 0] or [d > 20]. *)

val labeled_hypercube : d:int -> ?scale:float -> labels:float array -> unit -> t
(** Hypercube features crossed with the given label set:
    [2ᵈ * Array.length labels] points. *)

val grid_ball : d:int -> levels:int -> ?radius:float -> unit -> t
(** [levelsᵈ] unlabeled points on the uniform grid over
    [\[-radius/√d, radius/√d\]ᵈ]; every point lies inside the radius-[radius]
    Euclidean ball. This is the [(d/α)^{O(d)}] discretization of Section 1.1.
    Note it covers only the cube {e inscribed} in the ball — points of the
    ball outside that cube snap with error up to [radius·(1 − 1/√d)]; use
    {!ball_cover} when arbitrary ball points must round accurately.
    @raise Invalid_argument if [levels < 2]. *)

val ball_cover : d:int -> levels:int -> ?radius:float -> unit -> t
(** The grid over the full cube [\[-radius, radius\]ᵈ] restricted to the
    points inside the radius-[radius] ball (at most [levelsᵈ] points, never
    empty — the origin region survives). Every point of the ball is within
    one cell diagonal ([2·radius·√d/(levels−1)]) of some element, so this is
    the right universe for ingesting arbitrary continuous data
    ({!Continuous}). *)

val ball_cover_labeled :
  d:int -> levels:int -> label_levels:int -> ?radius:float -> ?label_bound:float -> unit -> t
(** {!ball_cover} crossed with a uniform label grid over
    [\[-label_bound, label_bound\]]. *)

val regression_grid : d:int -> levels:int -> label_levels:int -> ?radius:float -> ?label_bound:float -> unit -> t
(** Grid-ball features crossed with [label_levels] labels uniform in
    [\[-label_bound, label_bound\]] (default 1): the universe for the linear /
    ridge-regression experiments. *)
