(* Exact hang proofs for the compiled tiers: a static precondition per
   compiled program and one snapshot compare per state entry. The argument
   that a proved hang reports the full run's step count is in
   hang_proof.mli. *)

open Sdfg

let interstate_oblivious g =
  let names_container s = Graph.container_opt g s <> None in
  List.for_all
    (fun (e : Graph.istate_edge) ->
      (not (List.exists names_container (Symbolic.Cond.free_syms e.cond)))
      && List.for_all
           (fun (_, rhs) -> not (List.exists names_container (Symbolic.Expr.free_syms rhs)))
           e.assigns)
    (Graph.istate_edges g)

type t = {
  limit : int;
  dvals : int array;  (* the run's dynamic symbol registers *)
  dset : bool array;
  mutable live : bool;  (* still checking: no repeat seen yet *)
  mutable pos : int;  (* the snapshot: state position (-1 before the first) ... *)
  mutable steps : int;  (* ... steps at that entry ... *)
  snap_dvals : int array;  (* ... and copies of the registers *)
  snap_dset : bool array;
  mutable since : int;  (* state entries compared against the snapshot *)
  mutable span : int;  (* re-take the snapshot after this many: 1, 2, 4, ... *)
}

let create ~provable (config : Defs.config) ~dvals ~dset =
  let live = provable && config.inject = None in
  {
    limit = config.step_limit;
    dvals;
    dset;
    live;
    pos = -1;
    steps = 0;
    snap_dvals = (if live then Array.copy dvals else [||]);
    snap_dset = (if live then Array.copy dset else [||]);
    since = 1;
    span = 1;
  }

let rec same_ints (a : int array) b i = i < 0 || (a.(i) = b.(i) && same_ints a b (i - 1))
let rec same_bools (a : bool array) b i = i < 0 || (a.(i) = b.(i) && same_bools a b (i - 1))

let enter t ~pos ~steps =
  if not t.live then steps
  else if
    pos = t.pos
    && same_ints t.dvals t.snap_dvals (Array.length t.dvals - 1)
    && same_bools t.dset t.snap_dset (Array.length t.dset - 1)
  then begin
    (* every state entry ticks, so the period is at least one step *)
    t.live <- false;
    let p = steps - t.steps in
    steps + ((t.limit - steps) / p * p)
  end
  else begin
    if t.since = t.span then begin
      t.pos <- pos;
      t.steps <- steps;
      Array.blit t.dvals 0 t.snap_dvals 0 (Array.length t.dvals);
      Array.blit t.dset 0 t.snap_dset 0 (Array.length t.dset);
      t.since <- 0;
      t.span <- 2 * t.span
    end;
    t.since <- t.since + 1;
    steps
  end
