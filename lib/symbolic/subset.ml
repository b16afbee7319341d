type range = { lo : Expr.t; hi : Expr.t; step : Expr.t }
type t = range list
type crange = { clo : int; chi : int; cstep : int }

let dim ?(step = Expr.one) lo hi = { lo; hi; step }
let index i = { lo = i; hi = i; step = Expr.one }
let full shape = List.map (fun d -> dim Expr.zero (Expr.sub d Expr.one)) shape
let scalar = []
let num_dims s = List.length s

let crange_count { clo; chi; cstep } =
  if cstep = 0 then invalid_arg "Subset.crange_count: zero step"
  else if cstep > 0 then if chi < clo then 0 else ((chi - clo) / cstep) + 1
  else if chi > clo then 0
  else ((clo - chi) / -cstep) + 1

let concretize_range env { lo; hi; step } =
  { clo = Expr.eval env lo; chi = Expr.eval env hi; cstep = Expr.eval env step }

let concretize env s = List.map (concretize_range env) s

let volume s =
  List.fold_left
    (fun acc { lo; hi; step } ->
      let count =
        Expr.(max_ zero (add (div (sub hi lo) step) one))
      in
      Expr.mul acc count)
    Expr.one s

let volume_eval env s =
  List.fold_left (fun acc r -> acc * crange_count (concretize_range env r)) 1 s

let crange_elements r =
  let n = crange_count r in
  List.init n (fun i -> r.clo + (i * r.cstep))

let bbox r =
  if r.cstep >= 0 then (r.clo, r.chi) else (r.chi, r.clo)

let overlaps a b =
  if List.length a <> List.length b then
    (* Different dimensionality on the same container should not happen; be
       conservative. *)
    true
  else
    List.for_all2
      (fun ra rb ->
        if crange_count ra = 0 || crange_count rb = 0 then false
        else
          let alo, ahi = bbox ra and blo, bhi = bbox rb in
          alo <= bhi && blo <= ahi)
      a b

let covers a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb ->
         let alo, ahi = bbox ra and blo, bhi = bbox rb in
         abs ra.cstep = 1 && alo <= blo && bhi <= ahi)
       a b

module Sset = Set.Make (String)

let free_syms s =
  let syms_of e = Expr.free_syms e in
  Sset.elements
    (List.fold_left
       (fun acc { lo; hi; step } ->
         List.fold_left (fun a x -> Sset.add x a) acc (syms_of lo @ syms_of hi @ syms_of step))
       Sset.empty s)

let subst map s =
  List.map
    (fun { lo; hi; step } ->
      { lo = Expr.subst map lo; hi = Expr.subst map hi; step = Expr.subst map step })
    s

let rename_sym ~from ~into s = subst (Expr.Env.singleton from (Expr.Sym into)) s

let rename_syms pairs s =
  subst (Expr.Env.of_seq (List.to_seq (List.map (fun (f, i) -> (f, Expr.Sym i)) pairs))) s

(* [a] ends strictly before [b] starts when a's largest element minus b's
   smallest simplifies to a negative literal. For a decreasing range the
   largest element is [lo], not [hi]; a symbolic step of unknown sign yields
   no endpoints and thus no proof. Purely structural: a [false] answer proves
   nothing. *)
let endpoints (r : range) =
  match Expr.is_constant (Expr.simplify r.step) with
  | Some st when st < 0 -> Some (r.hi, r.lo)  (* (smallest, largest) *)
  | Some _ -> Some (r.lo, r.hi)
  | None -> None

let range_before (a : range) (b : range) =
  match (endpoints a, endpoints b) with
  | Some (_, amax), Some (bmin, _) -> (
      match Expr.is_constant (Expr.simplify (Expr.sub amax bmin)) with
      | Some d -> d < 0
      | None -> false)
  | _ -> false

let definitely_disjoint a b =
  List.length a = List.length b
  && List.exists2 (fun ra rb -> range_before ra rb || range_before rb ra) a b

(* ---- normalization, union and symbolic equality ----------------------- *)

let normalize_range bnds (r : range) =
  let s = Expr.simplify_under bnds in
  let lo = s r.lo and hi = s r.hi and step = s r.step in
  if Expr.equal lo hi then { lo; hi; step = Expr.one }
  else
    match (lo, hi, step) with
    (* a fully constant decreasing range covers the same elements as its
       increasing mirror, re-anchored so iteration order is forgotten *)
    | Expr.Int l, Expr.Int h, Expr.Int st when st < 0 ->
        let n = crange_count { clo = l; chi = h; cstep = st } in
        if n = 0 then { lo; hi; step }
        else { lo = Expr.int (l + ((n - 1) * st)); hi = Expr.int l; step = Expr.int (-st) }
    | _ -> { lo; hi; step }

let normalize ?(bounds = Expr.unbounded) s = List.map (normalize_range bounds) s

let equal ?(bounds = Expr.unbounded) a b =
  let a = normalize ~bounds a and b = normalize ~bounds b in
  List.length a = List.length b
  && List.for_all2
       (fun (ra : range) (rb : range) ->
         Expr.equal_under bounds ra.lo rb.lo
         && Expr.equal_under bounds ra.hi rb.hi
         && Expr.equal_under bounds ra.step rb.step)
       a b

(* Bounding-box union: exact when one side contains the other, otherwise a
   conservative over-approximation (strides collapse to 1 when they differ).
   Both sides of a translation-validation comparison are unioned by this same
   operator, so over-approximation cancels out of the equality check. *)
let union_range bnds (a : range) (b : range) =
  if a = b then a
  else
    let s = Expr.simplify_under bnds in
    {
      lo = s (Expr.min_ a.lo b.lo);
      hi = s (Expr.max_ a.hi b.hi);
      step = (if Expr.equal a.step b.step && Expr.equal a.lo b.lo then a.step else Expr.one);
    }

let union ?(bounds = Expr.unbounded) a b =
  if a = [] then b
  else if b = [] then a
  else if List.length a <> List.length b then
    invalid_arg
      (Printf.sprintf "Subset.union: %d-dim vs %d-dim subset" (List.length a) (List.length b))
  else List.map2 (union_range bounds) a b

let pp_range fmt { lo; hi; step } =
  if Expr.equal lo hi then Expr.pp fmt lo
  else if Expr.equal step Expr.one then Format.fprintf fmt "%a:%a" Expr.pp lo Expr.pp hi
  else Format.fprintf fmt "%a:%a:%a" Expr.pp lo Expr.pp hi Expr.pp step

let pp fmt s =
  Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_range) s

let to_string s = Format.asprintf "%a" pp s

(* Split a string on top-level (paren-depth-0) occurrences of a character. *)
let split_top c s =
  let n = String.length s in
  let parts = ref [] in
  let start = ref 0 in
  let depth = ref 0 in
  for i = 0 to n - 1 do
    match s.[i] with
    | '(' -> incr depth
    | ')' -> decr depth
    | ch when ch = c && !depth = 0 ->
        parts := String.sub s !start (i - !start) :: !parts;
        start := i + 1
    | _ -> ()
  done;
  List.rev (String.sub s !start (n - !start) :: !parts)

let of_string s =
  let s = String.trim s in
  let s =
    let n = String.length s in
    if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then String.sub s 1 (n - 2) else s
  in
  if String.trim s = "" then []
  else
    split_top ',' s
    |> List.map (fun part ->
           match split_top ':' part |> List.map String.trim with
           | [ i ] -> index (Expr.of_string i)
           | [ lo; hi ] -> dim (Expr.of_string lo) (Expr.of_string hi)
           | [ lo; hi; st ] -> dim ~step:(Expr.of_string st) (Expr.of_string lo) (Expr.of_string hi)
           | _ -> raise (Expr.Parse_error ("bad range: " ^ part)))
