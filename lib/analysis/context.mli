(** Symbol assumptions shared by all static passes.

    The passes reason about concretized subsets, so they need values for the
    program's size symbols (the caller's assumptions, typically the same
    concretization the fuzzer uses), symbolic ranges for recognized for-loop
    variables, and candidate values for symbols assigned on interstate edges
    (alias chains). Anything left unresolved makes the affected memlet be
    skipped — the passes stay conservative rather than guess. *)

open Sdfg

type t = {
  env : int Symbolic.Expr.Env.t;  (** caller-provided symbol assumptions *)
  loops : (string * Symbolic.Subset.range) list;
      (** recognized loop variables with the symbolic range they span *)
  candidates : (string * int list) list;
      (** evaluable values of interstate-assigned symbols (capped) *)
  bounds : (string * (int option * int option)) list;
      (** the interval facts as passed in — the exact dependence tier uses
          them as constraints on symbols the environment leaves free *)
}

(** Bounds lookup for the exact dependence tier: the fact interval of a
    symbol, or [(None, None)] when nothing is known. *)
val bounds_fn : t -> string -> int option * int option

(** A canonical print of every field: environment bindings, loops,
    candidates and interval bounds, in order. Equal prints give the
    per-state passes the same assumptions. *)
val to_string : t -> string

(** [facts] are concrete interval bounds inferred by the {!Intervals}
    fixpoint; each bounded symbol's endpoints join its candidate values for
    the sampling-based checks. *)
val make :
  ?symbols:(string * int) list ->
  ?facts:(string * (int option * int option)) list ->
  Graph.t ->
  t

(** [env] extended with every loop variable bound to its range start and
    every assigned symbol bound to its first candidate — a representative
    valuation for sampling-based checks. *)
val sample_env : t -> int Symbolic.Expr.Env.t

(** Widen [subset] over all loop variables occurring free in it (fixpoint,
    bounded); loop variables whose range could not be derived stay free. *)
val widen_loops : t -> Symbolic.Subset.t -> Symbolic.Subset.t
