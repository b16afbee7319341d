(** Input-configuration sampling for differential fuzzing.

    Uses a self-contained splitmix-style PRNG so trials are reproducible from
    a seed alone — a failing test case is fully described by (cutout, seed,
    trial number). *)

type rng

val create : int -> rng
val split : rng -> rng
(** An independent stream (for per-trial derivation). *)

val int_in : rng -> int -> int -> int
(** Uniform in [lo, hi]; [hi < lo] is treated as the singleton [lo]. *)

val float_in : rng -> float -> float -> float
val bool : rng -> bool

(** Sample concrete symbol values respecting constraint order: sizes first,
    then bounds evaluated under them. Unevaluable bounds fall back to
    [0, 8]. *)
val sample_symbols : rng -> Constraints.t -> (string * int) list

(** Sample the input configuration of a cutout: one array per input
    container, with values in the constraint range cast to the container
    dtype. *)
val sample_inputs :
  rng -> Constraints.t -> Cutout.t -> symbols:(string * int) list -> (string * float array) list

(** [trial rng c cut] draws the next trial of a run seeded by [rng]: it
    splits off the trial's own stream, then samples the symbols and the
    inputs under them. Trial [k] of a seed is therefore the [k]-th call. *)
val trial :
  rng -> Constraints.t -> Cutout.t -> (string * int) list * (string * float array) list

(** Mutate a sampled configuration in place-like fashion (returns copies):
    small symbol steps and sparse array perturbations — the mutation stage of
    coverage-guided fuzzing. *)
val mutate :
  rng ->
  Constraints.t ->
  Cutout.t ->
  (string * int) list * (string * float array) list ->
  (string * int) list * (string * float array) list
