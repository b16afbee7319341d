(* Lowering memlet subsets to integer linear systems and deciding dependence
   queries with the Fourier-Motzkin core (Symbolic.Linsys). See deps.mli for
   the soundness contract. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
module L = Symbolic.Linsys

type verdict = Disjoint | Overlap of (string * int) list | Unknown

(* Disjunctive case budgets: memlet subsets are small (<= 4 dims, strides 1-4),
   so these caps are generous; blowing one yields Unknown, never a wrong
   answer. *)
let max_systems = 512
let max_stride = 16

let ( let* ) = Option.bind

(* Substitute the pinned environment, simplify, lower to guarded linear
   alternatives. *)
let lower ~fresh env e =
  let m = Expr.Env.map (fun v -> Expr.Int v) env in
  L.of_expr ~fresh (Expr.simplify (Expr.subst m e))

(* Alternatives (as constraint lists) for [e ∈ r]. The step must lower to a
   constant in each alternative; strided ranges introduce a fresh multiplier
   variable k >= 0 with e = lo + step*k. *)
let member ~fresh ~env e (r : Subset.range) =
  let* los = lower ~fresh env r.lo in
  let* his = lower ~fresh env r.hi in
  let* steps = lower ~fresh env r.step in
  let acc = ref [] in
  let ok = ref true in
  List.iter
    (fun (sa : L.alt) ->
      if sa.term.L.coeffs <> [] then ok := false
      else
        let s = sa.term.L.const in
        List.iter
          (fun (la : L.alt) ->
            List.iter
              (fun (ha : L.alt) ->
                let guards = sa.guards @ la.guards @ ha.guards in
                let lo = la.term and hi = ha.term in
                let body =
                  if s = 1 then Some [ L.ge e lo; L.le e hi ]
                  else if s = -1 then Some [ L.le e lo; L.ge e hi ]
                  else if s = 0 then None
                  else
                    let k = L.var (fresh ()) in
                    if s > 1 then
                      Some [ L.eq e (L.add lo (L.scale s k)); L.ge k (L.const 0); L.le e hi ]
                    else Some [ L.eq e (L.add lo (L.scale s k)); L.ge k (L.const 0); L.ge e hi ]
                in
                match body with None -> ok := false | Some b -> acc := (guards @ b) :: !acc)
              his)
          los)
    steps;
  if !ok && List.length !acc <= max_systems then Some (List.rev !acc) else None

(* Alternatives covering the complement [e ∉ r]: below the start, past the
   end, or (strided ranges) inside the span but off the stride residue. *)
let not_member ~fresh ~env e (r : Subset.range) =
  let* los = lower ~fresh env r.lo in
  let* his = lower ~fresh env r.hi in
  let* steps = lower ~fresh env r.step in
  let one = L.const 1 in
  let acc = ref [] in
  let ok = ref true in
  List.iter
    (fun (sa : L.alt) ->
      if sa.term.L.coeffs <> [] then ok := false
      else
        let s = sa.term.L.const in
        List.iter
          (fun (la : L.alt) ->
            List.iter
              (fun (ha : L.alt) ->
                let guards = sa.guards @ la.guards @ ha.guards in
                let lo = la.term and hi = ha.term in
                let cases =
                  if s = 1 then Some [ [ L.le e (L.sub lo one) ]; [ L.ge e (L.add hi one) ] ]
                  else if s = -1 then
                    Some [ [ L.ge e (L.add lo one) ]; [ L.le e (L.sub hi one) ] ]
                  else if s > 1 && s <= max_stride then
                    Some
                      ([ L.le e (L.sub lo one) ] :: [ L.ge e (L.add hi one) ]
                      :: List.map
                           (fun rsd ->
                             let k = L.var (fresh ()) in
                             [ L.ge e lo; L.le e hi;
                               L.eq e (L.add lo (L.add (L.scale s k) (L.const rsd)));
                               L.ge k (L.const 0) ])
                           (List.init (s - 1) (fun i -> i + 1)))
                  else if s < -1 && -s <= max_stride then
                    Some
                      ([ L.ge e (L.add lo one) ] :: [ L.le e (L.sub hi one) ]
                      :: List.map
                           (fun rsd ->
                             let k = L.var (fresh ()) in
                             [ L.le e lo; L.ge e hi;
                               L.eq e (L.sub (L.add lo (L.scale s k)) (L.const rsd));
                               L.ge k (L.const 0) ])
                           (List.init (-s - 1) (fun i -> i + 1)))
                  else None
                in
                match cases with
                | None -> ok := false
                | Some cs -> List.iter (fun c -> acc := (guards @ c) :: !acc) cs)
              his)
          los)
    steps;
  if !ok && List.length !acc <= max_systems then Some (List.rev !acc) else None

(* Cartesian conjunction of per-dimension alternative lists. *)
let cross_systems xss =
  let r =
    List.fold_left
      (fun acc alts ->
        if List.length acc * List.length alts > max_systems then raise Exit
        else List.concat_map (fun sys -> List.map (fun a -> sys @ a) alts) acc)
      [ [] ] xss
  in
  r

let evar d = Printf.sprintf "$e%d" d

(* Systems whose conjunction with each alternative asserts that the point
   ($e0, ..) lies in [subset]. *)
let in_subset ~fresh ~env subset =
  let rec per_dim d = function
    | [] -> Some []
    | r :: rest ->
        let* a = member ~fresh ~env (L.var (evar d)) r in
        let* more = per_dim (d + 1) rest in
        Some (a :: more)
  in
  let* dims = per_dim 0 subset in
  match cross_systems dims with systems -> Some systems | exception Exit -> None

let vars_of_sys sys =
  List.concat_map (fun c -> List.map fst (match c with L.Ge0 l | L.Eq0 l -> l.L.coeffs)) sys
  |> List.sort_uniq compare

(* Interval-fact constraints for every system variable not in [known] and not
   auxiliary; returns them together with the list of such ambient symbols. *)
let ambient_constraints ~bounds ~known sys =
  let ambient =
    List.filter (fun v -> (not (L.is_aux v)) && not (List.mem v known)) (vars_of_sys sys)
  in
  let cs =
    List.concat_map
      (fun v ->
        let lo, hi = bounds v in
        (match lo with Some l -> [ L.ge (L.var v) (L.const l) ] | None -> [])
        @ match hi with Some h -> [ L.le (L.var v) (L.const h) ] | None -> [])
      ambient
  in
  (cs, ambient)

(* Concrete iteration-domain constraints for one parameter name. *)
let domain_constraints ~fresh name (c : Subset.crange) =
  let p = L.var name in
  if c.cstep = 1 then [ L.ge p (L.const c.clo); L.le p (L.const c.chi) ]
  else if c.cstep = -1 then [ L.le p (L.const c.clo); L.ge p (L.const c.chi) ]
  else
    let k = L.var (fresh ()) in
    let stride = [ L.eq p (L.add (L.const c.clo) (L.scale c.cstep k)); L.ge k (L.const 0) ] in
    if c.cstep > 1 then L.le p (L.const c.chi) :: stride else L.ge p (L.const c.chi) :: stride

let decide_overlap ~env ~bounds ~params ~primed ~write ~access =
  if List.length write <> List.length access then Unknown
  else if List.exists (fun (_, c) -> Subset.crange_count c = 0) params then
    (* empty iteration domain: no two distinct iterations exist *)
    Disjoint
  else
    let fresh = L.gensym () in
    match (in_subset ~fresh ~env write, in_subset ~fresh ~env access) with
    | Some wsys, Some asys -> (
        let dom =
          List.concat_map
            (fun (p, c) ->
              domain_constraints ~fresh p c
              @ domain_constraints ~fresh (List.assoc p primed) c)
            params
        in
        let distinct =
          List.concat_map
            (fun (p, p') ->
              [ [ L.le (L.var p) (L.sub (L.var p') (L.const 1)) ];
                [ L.ge (L.var p) (L.add (L.var p') (L.const 1)) ] ])
            primed
        in
        match cross_systems [ wsys; asys; distinct ] with
        | exception Exit -> Unknown
        | merged ->
            let known = List.concat_map (fun (p, p') -> [ p; p' ]) primed in
            let systems = List.map (fun sys -> dom @ sys) merged in
            let ambient = ref [] in
            let systems =
              List.map
                (fun sys ->
                  let cs, amb = ambient_constraints ~bounds ~known sys in
                  ambient := List.sort_uniq compare (amb @ !ambient);
                  cs @ sys)
                systems
            in
            let rec scan unknown = function
              | [] -> if unknown then Unknown else Disjoint
              | sys :: rest -> (
                  match L.solve sys with
                  | L.Unsat -> scan unknown rest
                  | L.Sat model when !ambient = [] ->
                      Overlap (List.filter (fun (v, _) -> List.mem v known) model)
                  | L.Sat _ | L.Unknown -> scan true rest)
            in
            scan false systems)
    | _ -> Unknown

(* Systems asserting ∃e: e ∈ a ∧ e ∉ b (complement split per dimension),
   with interval-fact constraints on every free program symbol. *)
let difference_systems ~bounds a b =
  if List.length a <> List.length b then None
  else
    let fresh = L.gensym () in
    let env = Expr.Env.empty in
    let* in_a = in_subset ~fresh ~env a in
    let* per_dim =
      List.fold_left
        (fun acc (d, r) ->
          let* acc = acc in
          let* alts = not_member ~fresh ~env (L.var (evar d)) r in
          Some ((d, alts) :: acc))
        (Some [])
        (List.mapi (fun d r -> (d, r)) b)
    in
    let systems =
      List.concat_map
        (fun (_, alts) ->
          match cross_systems [ in_a; alts ] with s -> s | exception Exit -> raise Exit)
        (List.rev per_dim)
    in
    if List.length systems > max_systems then None
    else
      Some
        (List.map
           (fun sys ->
             let cs, _ = ambient_constraints ~bounds ~known:[] sys in
             cs @ sys)
           systems)

let difference_systems ~bounds a b =
  match difference_systems ~bounds a b with v -> v | exception Exit -> None

let decide_equal_sets ~bounds a b =
  match (difference_systems ~bounds a b, difference_systems ~bounds b a) with
  | Some sab, Some sba -> List.for_all (fun sys -> L.solve sys = L.Unsat) (sab @ sba)
  | _ -> false

(* Witness searches pin every declared symbol that occurs free in either set
   to its reference value: a difference visible only at degenerate sizes
   (where min/max-enclosed propagation over empty map ranges turns into
   garbage) must not masquerade as a refutation of the healthy program. The
   resulting valuation therefore always replays at the caller's
   concretization. *)
let pin_constraints ~symbols a b =
  let free = Subset.free_syms a @ Subset.free_syms b in
  List.filter_map
    (fun (s, v) -> if List.mem s free then Some (L.eq (L.var s) (L.const v)) else None)
    symbols

let extract_witness ~symbols dims model =
  let valuation =
    List.map
      (fun (s, d) -> (s, Option.value ~default:d (List.assoc_opt s model)))
      symbols
  in
  let element =
    List.init dims (fun d -> Option.value ~default:0 (List.assoc_opt (evar d) model))
  in
  (valuation, element)

let scan_for_witness ~symbols dims pins systems =
  List.find_map
    (fun sys ->
      match L.solve (pins @ sys) with
      | L.Sat m -> Some (extract_witness ~symbols dims m)
      | _ -> None)
    systems

let find_difference_witness ~bounds ~symbols a b =
  let dims = List.length a in
  let pins = pin_constraints ~symbols a b in
  let scan = scan_for_witness ~symbols dims pins in
  match (difference_systems ~bounds a b, difference_systems ~bounds b a) with
  | Some sab, Some sba -> ( match scan sab with Some w -> Some w | None -> scan sba)
  | Some sab, None -> scan sab
  | None, Some sba -> scan sba
  | None, None -> None

let find_uncovered ~bounds ~symbols a b =
  let pins = pin_constraints ~symbols a b in
  match difference_systems ~bounds a b with
  | Some sab -> scan_for_witness ~symbols (List.length a) pins sab
  | None -> None

let decide_disjoint_under ~bounds a b =
  if List.length a <> List.length b then false
  else
    let fresh = L.gensym () in
    let env = Expr.Env.empty in
    match (in_subset ~fresh ~env a, in_subset ~fresh ~env b) with
    | Some sa, Some sb -> (
        match cross_systems [ sa; sb ] with
        | exception Exit -> false
        | merged ->
            List.for_all
              (fun sys ->
                let cs, _ = ambient_constraints ~bounds ~known:[] sys in
                L.solve (cs @ sys) = L.Unsat)
              merged)
    | _ -> false

(* ---- the query table ---------------------------------------------------- *)

(* What one free symbol of the subsets contributes to an answer: the value
   the query pins it to, or the interval bounds the solver constrains it
   by. *)
type fact = Pinned of int | Bounded of (int option * int option)

type query = Q_overlap | Q_equal_sets | Q_disjoint_under | Q_uncovered | Q_difference_witness

(* Everything an answer depends on. [params] and [primed] are [overlap]'s
   alone; [valuation] is the witness searches' whole pinned valuation,
   which their witnesses echo. *)
type key = {
  query : query;
  a : Subset.t;
  b : Subset.t;
  params : (string * Subset.crange) list;
  primed : (string * string) list;
  valuation : (string * int) list;
  facts : (string * fact) list;
}

type witness = (string * int) list * int list

(* one table per answer type; the key's [query] tells apart the queries
   that share one *)
type 'v table = (int * key, 'v) Sdfg.Memo.t

type memo = { verdicts : verdict table; holds : bool table; witnesses : witness option table }

(* a CLOUDSC campaign asks a few dozen distinct queries *)
let create_memo () =
  {
    verdicts = Sdfg.Memo.create ~capacity:4096 ();
    holds = Sdfg.Memo.create ~capacity:4096 ();
    witnesses = Sdfg.Memo.create ~capacity:4096 ();
  }

let memo_stats m =
  let (h1, n1), (h2, n2), (h3, n3) =
    (Sdfg.Memo.stats m.verdicts, Sdfg.Memo.stats m.holds, Sdfg.Memo.stats m.witnesses)
  in
  (h1 + h2 + h3, n1 + n2 + n3)

(* A pin wins over bounds: [overlap] substitutes its pins before lowering,
   so a pinned symbol's bounds never reach the solver. The witness
   searches pass no [pinned]: they add their pins to the bounds as
   constraints, so the bounds stay in their key and the pinned values are
   in its [valuation]. *)
let facts ?(pinned = fun _ -> None) ~bounds a b =
  List.map
    (fun s -> (s, match pinned s with Some v -> Pinned v | None -> Bounded (bounds s)))
    (List.sort_uniq compare (Subset.free_syms a @ Subset.free_syms b))

let key ?(params = []) ?(primed = []) ?(valuation = []) ?pinned ~bounds query a b =
  { query; a; b; params; primed; valuation; facts = facts ?pinned ~bounds a b }

(* The key behind a deep hash, as in [Reuse]: the polymorphic hash stops
   after ten words, and keys of one query share their leading words. The
   key is built only when there is a table to look in. *)
let cached table memo key compute =
  match memo with
  | None -> compute ()
  | Some m ->
      let k = key () in
      Sdfg.Memo.find_or_add (table m) (Hashtbl.hash_param 256 256 k, k) compute

let overlap ?memo ~env ~bounds ~params ~primed write access =
  cached
    (fun m -> m.verdicts)
    memo
    (fun () ->
      key ~params ~primed ~pinned:(fun s -> Expr.Env.find_opt s env) ~bounds Q_overlap write
        access)
    (fun () -> decide_overlap ~env ~bounds ~params ~primed ~write ~access)

let equal_sets ?memo ~bounds a b =
  cached
    (fun m -> m.holds)
    memo
    (fun () -> key ~bounds Q_equal_sets a b)
    (fun () -> decide_equal_sets ~bounds a b)

let disjoint_under ?memo ~bounds a b =
  cached
    (fun m -> m.holds)
    memo
    (fun () -> key ~bounds Q_disjoint_under a b)
    (fun () -> decide_disjoint_under ~bounds a b)

let uncovered ?memo ~bounds ~symbols a b =
  cached
    (fun m -> m.witnesses)
    memo
    (fun () -> key ~valuation:symbols ~bounds Q_uncovered a b)
    (fun () -> find_uncovered ~bounds ~symbols a b)

let difference_witness ?memo ~bounds ~symbols a b =
  cached
    (fun m -> m.witnesses)
    memo
    (fun () -> key ~valuation:symbols ~bounds Q_difference_witness a b)
    (fun () -> find_difference_witness ~bounds ~symbols a b)
