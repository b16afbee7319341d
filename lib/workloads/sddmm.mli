(** Sampled Dense-Dense Matrix Multiplication from Vanilla Attention
    (Sec. 6.2, Fig. 6).

    The per-rank program computes, for a local row block,
    values\[i,j\] += mask\[i,j\] · Σ_k H1\[i,k\]·H2\[j,k\], where H2 arrives
    via broadcast and the result is summed with an allreduce. (The paper's
    CSR indices become a dense mask here — an equivalent dataflow with only
    affine accesses, see DESIGN.md.)

    The cutout of the SDDMM kernel excludes both collectives, so a
    transformation on it is tested on a single simulated rank. *)

(** The per-rank program. Symbols: LROWS (local rows), NCOLS, K. Containers:
    H1 \[LROWS,K\], H2 \[NCOLS,K\], mask \[LROWS,NCOLS\],
    values \[LROWS,NCOLS\]. Also returns the state id and kernel map entry
    (the transformation site). *)
val rank_program : unit -> Sdfg.Graph.t * int * int

(** Small values for the per-rank program's symbols: LROWS, NCOLS, K. *)
val default_symbols : (string * int) list

(** [distributed ~ranks ~rows ~cols ~k ~h1 ~h2 ~mask] runs the full simulated
    multi-node pipeline: scatter H1 row blocks, broadcast H2, run each rank's
    program through the interpreter, allreduce the (zero-padded global)
    results. Returns the global values matrix.
    @raise Invalid_argument when [rows] is not divisible by [ranks]. *)
val distributed :
  ranks:int ->
  rows:int ->
  cols:int ->
  k:int ->
  h1:float array ->
  h2:float array ->
  mask:float array ->
  float array

(** Single-process reference implementation for checking the simulation. *)
val reference :
  rows:int -> cols:int -> k:int -> h1:float array -> h2:float array -> mask:float array ->
  float array
