(** Parametric index ranges and multi-dimensional subsets.

    Memlets annotate each data-movement edge with the exact subset of the data
    container being accessed (Sec. 2.3). Ranges use DaCe's inclusive
    [lo : hi : step] convention. *)

(** One dimension of a subset. [hi] is inclusive. A negative [step] iterates
    downwards (used by the negative-step loop-unrolling case of Sec. 6.4). *)
type range = { lo : Expr.t; hi : Expr.t; step : Expr.t }

(** A multi-dimensional subset: one range per dimension. The empty list denotes
    the subset of a scalar container. *)
type t = range list

(** A fully concretized range. *)
type crange = { clo : int; chi : int; cstep : int }

val dim : ?step:Expr.t -> Expr.t -> Expr.t -> range
(** [dim lo hi] is the inclusive range [lo : hi] with step 1 by default. *)

val index : Expr.t -> range
(** [index i] is the single-element range [i : i]. *)

val full : Expr.t list -> t
(** [full shape] covers an entire container of the given shape: one
    [0 : d-1] range per dimension. *)

val scalar : t
(** The subset of a scalar container (no dimensions). *)

val num_dims : t -> int

(** Number of elements along one concretized range; 0 if empty. *)
val crange_count : crange -> int

val concretize_range : int Expr.Env.t -> range -> crange
val concretize : int Expr.Env.t -> t -> crange list

(** Symbolic number of elements covered ([1] for scalars). *)
val volume : t -> Expr.t

(** Concrete number of elements covered under an environment. *)
val volume_eval : int Expr.Env.t -> t -> int

(** Elements of a concretized range, in iteration order. *)
val crange_elements : crange -> int list

(** Conservative overlap test of two concrete subsets: bounding boxes must
    intersect in every dimension. May report overlap for stride-disjoint
    subsets — safe (over-approximate) for side-effect analysis. *)
val overlaps : crange list -> crange list -> bool

(** [covers a b] holds when the bounding box of [a] contains that of [b] in
    every dimension and [a] is stride-1. *)
val covers : crange list -> crange list -> bool

val free_syms : t -> string list
val subst : Expr.t Expr.Env.t -> t -> t
val rename_sym : from:string -> into:string -> t -> t

(** Simultaneous renaming: [rename_syms [(a, a'); (b, b')] s] renames [a] to
    [a'] and [b] to [b'] in one pass (used to prime map parameters for the
    static race analysis without capture). *)
val rename_syms : (string * string) list -> t -> t

(** Symbolic disjointness proof: [true] when some dimension of [a] provably
    ends before [b] starts (or vice versa) — the difference of the symbolic
    bounds simplifies to a negative constant. A [false] answer proves
    nothing (the subsets may still be disjoint). *)
val definitely_disjoint : t -> t -> bool

(** {1 Subset algebra for translation validation} *)

(** Canonical form under symbol bounds: every component expression is
    {!Expr.simplify_under}-reduced, single-point ranges get step 1, and fully
    constant decreasing ranges are mirrored to their increasing equivalent
    (iteration order is not part of a subset's meaning). *)
val normalize : ?bounds:(string -> int option * int option) -> t -> t

(** Symbolic subset equality after normalization: same dimensionality and
    per-dimension {!Expr.equal_under} bounds and step. A [false] answer
    proves nothing. *)
val equal : ?bounds:(string -> int option * int option) -> t -> t -> bool

(** Per-dimension bounding-box union. Exact when one side covers the other;
    otherwise conservative (mismatched strides collapse to 1). The empty
    (scalar) subset is the unit.
    @raise Invalid_argument on a dimensionality mismatch. *)
val union : ?bounds:(string -> int option * int option) -> t -> t -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Parse subsets like ["0:N-1, i, 2:M-1:2"]; a lone expression is an index.
    @raise Expr.Parse_error on malformed input. *)
val of_string : string -> t
