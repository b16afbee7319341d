(* Compile-once execution plans.

   [compile v] lowers an admitted graph (Validate.valid) once into a flat
   plan, trusting what validation guarantees: state order and scope
   membership resolved per graph (adjacency and topological order are the
   states' own indexed queries), memlet subsets and map ranges compiled to
   closures, and containers addressed by dense plan ids instead of string
   hashes. Every symbol that is not a map parameter reads a slot
   of the run's symbol registers, so applying the lowering to [~symbols]
   only binds a valuation: buffer shapes, the slots it sets, and the hang
   proof's precondition. [execute] then runs a bound plan over fresh buffers
   as many times as the fuzzing loop needs.

   A tasklet is one flat instruction array over its float register file:
   its input reads, one instruction per code node, then its output writes,
   with every operator and memlet kind chosen at lowering, so no float
   leaves a float array. Point and scalar memlets address their buffer in
   place; a point whose every index is a map parameter, a parameter plus or
   minus a constant, or a constant is straight-line code up to rank 3, and
   any other point evaluates its index closures into an integer scratch of
   its own. That scratch, the tasklets' registers and their select counters
   are the only lowering state a run mutates, so plans bound from one
   lowering must not run at once; nothing in lib does (it starts no domains
   or threads).

   The observable semantics — step counts, write/subset injection counters,
   coverage digests, fault messages, even the evaluation order of failing
   subexpressions — are kept identical to the reference tree-walk
   interpreter (Tree); test/test_plan.ml holds the differential proof
   obligation over every workload in lib/workloads. *)

open Sdfg
open Defs

(* ------------------------------------------------------------------ *)
(* Run-time state: one register file per execution                     *)
(* ------------------------------------------------------------------ *)

type rt = {
  cfg : config;
  bufs : Value.buffer array;  (* dense plan ids -> fresh buffers *)
  params : int array;  (* map-parameter registers; register 0 is never assigned *)
  dvals : int array;  (* symbol slots: the valuation, then interstate assignments *)
  dset : bool array;  (* which slots are set; a set slot is never unset *)
  mutable steps : int;
  mutable writes : int;
  mutable subsets : int;
  cov : (int, unit) Hashtbl.t;
}

let tick ?(cost = 1) rt =
  rt.steps <- rt.steps + cost;
  (match rt.cfg.inject with
  | Some (Burn_steps { after }) when rt.steps >= after ->
      rt.steps <- rt.steps + rt.cfg.step_limit
  | _ -> ());
  if rt.steps > rt.cfg.step_limit then raise (F (Hang { steps = rt.steps }))

(* ------------------------------------------------------------------ *)
(* Lowered integer expressions                                         *)
(* ------------------------------------------------------------------ *)

(* Floor division / euclidean modulo, same semantics as Symbolic.Expr.eval
   (fdiv/fmod are not exported there). *)
let ifdiv a b =
  if b = 0 then raise Symbolic.Expr.Division_by_zero
  else
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let ifmod a b =
  if b = 0 then raise Symbolic.Expr.Division_by_zero
  else
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r

(* Binary operation on lowered operands. The closure evaluates its right
   operand first — the order OCaml's [eval env a + eval env b] evaluates
   operands in the reference interpreter — so when both sides raise, the
   same exception wins. It returns a closure of one argument, not a partial
   application, so a run calls it directly. *)
let lift2 f fa fb =
  let op rt =
    let vb = fb rt in
    let va = fa rt in
    f va vb
  in
  op

(* ------------------------------------------------------------------ *)
(* Compile-time environment                                            *)
(* ------------------------------------------------------------------ *)

type cenv = {
  cg : Graph.t;
  buf_idx : (string, int) Hashtbl.t;  (* container name -> dense buffer id *)
  scalar_idx : (string, int) Hashtbl.t;  (* scalar containers only *)
  slot_idx : (string, int) Hashtbl.t;  (* symbol -> slot, filled on first reference *)
  mutable nparams : int;  (* map-parameter registers allocated so far, register 0 included *)
  mutable guarded : int list;
      (* slots a tasklet reads under a Select branch: whether such a read
         faults may depend on data, unless a binding sets the slot *)
}

let slot cv s =
  match Hashtbl.find_opt cv.slot_idx s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length cv.slot_idx in
      Hashtbl.add cv.slot_idx s i;
      i

(* [sparams] is the innermost-first association of enclosing map parameters
   to their registers: within a tasklet or memlet, a parameter shadows any
   symbol of the same name, and a deeper map shadows an outer one — the same
   shadowing [Env.add] produced in the tree-walk. Any other symbol reads its
   slot, which falls back, when unset, to what the reference env would have
   held: in interstate contexts a scalar container of the same name,
   otherwise an unbound-symbol fault. *)
let lower_sym cv sparams ~interstate s =
  match List.assoc_opt s sparams with
  | Some slot -> fun rt -> rt.params.(slot)
  | None -> (
      let i = slot cv s in
      match if interstate then Hashtbl.find_opt cv.scalar_idx s else None with
      | Some bid ->
          fun rt -> if rt.dset.(i) then rt.dvals.(i) else int_of_float rt.bufs.(bid).Value.data.(0)
      | None ->
          fun rt -> if rt.dset.(i) then rt.dvals.(i) else raise (Symbolic.Expr.Unbound_symbol s))

let rec lower_expr cv sparams ~interstate (e : Symbolic.Expr.t) : rt -> int =
  let go x = lower_expr cv sparams ~interstate x in
  match e with
  | Symbolic.Expr.Int n -> fun _ -> n
  | Symbolic.Expr.Sym s -> lower_sym cv sparams ~interstate s
  | Symbolic.Expr.Add (a, b) -> lift2 ( + ) (go a) (go b)
  | Symbolic.Expr.Sub (a, b) -> lift2 ( - ) (go a) (go b)
  | Symbolic.Expr.Mul (a, b) -> lift2 ( * ) (go a) (go b)
  | Symbolic.Expr.Div (a, b) -> lift2 ifdiv (go a) (go b)
  | Symbolic.Expr.Mod (a, b) -> lift2 ifmod (go a) (go b)
  | Symbolic.Expr.Min (a, b) -> lift2 Stdlib.min (go a) (go b)
  | Symbolic.Expr.Max (a, b) -> lift2 Stdlib.max (go a) (go b)
  | Symbolic.Expr.Neg a ->
      let fa = go a in
      fun rt -> -fa rt

(* Interstate conditions: comparisons evaluate their right operand first and
   And/Or short-circuit left-first, exactly as Cond.eval. *)
let rec lower_cond cv (c : Symbolic.Cond.t) =
  let e x = lower_expr cv [] ~interstate:true x in
  let cmp op a b =
    let fa = e a and fb = e b in
    fun rt ->
      let vb = fb rt in
      let va = fa rt in
      op va vb
  in
  match c with
  | Symbolic.Cond.True -> fun _ -> true
  | Symbolic.Cond.False -> fun _ -> false
  | Symbolic.Cond.Lt (a, b) -> cmp ( < ) a b
  | Symbolic.Cond.Le (a, b) -> cmp ( <= ) a b
  | Symbolic.Cond.Gt (a, b) -> cmp ( > ) a b
  | Symbolic.Cond.Ge (a, b) -> cmp ( >= ) a b
  | Symbolic.Cond.Eq (a, b) -> cmp ( = ) a b
  | Symbolic.Cond.Ne (a, b) -> cmp ( <> ) a b
  | Symbolic.Cond.And (a, b) ->
      let la = lower_cond cv a and lb = lower_cond cv b in
      fun rt -> la rt && lb rt
  | Symbolic.Cond.Or (a, b) ->
      let la = lower_cond cv a and lb = lower_cond cv b in
      fun rt -> la rt || lb rt
  | Symbolic.Cond.Not a ->
      let la = lower_cond cv a in
      fun rt -> not (la rt)

(* ------------------------------------------------------------------ *)
(* Lowered subsets                                                     *)
(* ------------------------------------------------------------------ *)

type lrange = (rt -> int) * (rt -> int) * (rt -> int)  (* lo, hi, step *)

let lower_range cv sparams (r : Symbolic.Subset.range) : lrange =
  let e x = lower_expr cv sparams ~interstate:false x in
  (e r.lo, e r.hi, e r.step)

(* A subset as per-dimension range closures; a scalar's has none. *)
let lower_ranges cv sparams (s : Symbolic.Subset.t) =
  Array.of_list (List.map (lower_range cv sparams) s)

(* Concrete-range construction mirrors Subset.concretize_range's record
   literal, which evaluates step, then hi, then lo. *)
let eval_range rt ((flo, fhi, fstep) : lrange) =
  let cstep = fstep rt in
  let chi = fhi rt in
  let clo = flo rt in
  { Symbolic.Subset.clo; chi; cstep }

let subset_fault = function
  | Symbolic.Expr.Unbound_symbol s ->
      F (Runtime_error ("unbound symbol " ^ s ^ " in subset"))
  | Symbolic.Expr.Division_by_zero -> F (Runtime_error "division by zero in subset")
  | e -> e

(* Evaluate a subset: concrete ranges, the Shift_index injection on the
   first dimension, and the subset counter (dimensioned subsets only, and
   only after a successful evaluation — the same points the tree-walk
   advances it). *)
let concretize_sub rt lrs =
  match try Array.to_list (Array.map (eval_range rt) lrs) with e -> raise (subset_fault e) with
  | [] -> []
  | (r : Symbolic.Subset.crange) :: rest as cs ->
      let cs =
        match rt.cfg.inject with
        | Some (Shift_index { nth_subset; delta }) when rt.subsets = nth_subset ->
            { r with Symbolic.Subset.clo = r.clo + delta; chi = r.chi + delta } :: rest
        | _ -> cs
      in
      rt.subsets <- rt.subsets + 1;
      cs

(* The Shift_index injection on a point's first index, then the subset
   counter, as for any dimensioned subset. *)
let shift_first rt i0 =
  let i0 =
    match rt.cfg.inject with
    | Some (Shift_index { nth_subset; delta }) when rt.subsets = nth_subset -> i0 + delta
    | _ -> i0
  in
  rt.subsets <- rt.subsets + 1;
  i0

(* Raised from a top-level function so that the in-bounds path of a point
   allocates nothing. The fault is the one Value's subset reads and writes
   raise, with a copy of the index: the scratch is overwritten by the next
   run. *)
let point_oob (b : Value.buffer) at context =
  raise
    (F
       (Out_of_bounds
          { container = b.Value.name; index = Array.copy at; shape = b.cshape; context }))

(* Address a point memlet in place: every index into the point's scratch, in
   order (an evaluation fault wins over any bounds fault), then [shift_first],
   then the bounds check folded into the row-major offset. Validation
   guarantees the point's rank is the buffer's. *)
let point_offset rt (b : Value.buffer) fs at context =
  (try
     for d = 0 to Array.length fs - 1 do
       at.(d) <- fs.(d) rt
     done
   with e -> raise (subset_fault e));
  at.(0) <- shift_first rt at.(0);
  let shape = b.cshape in
  let off = ref 0 in
  for d = 0 to Array.length at - 1 do
    let i = at.(d) and n = shape.(d) in
    if i < 0 || i >= n then point_oob b at context;
    off := (!off * n) + i
  done;
  !off

(* One dimension of a point index that is affine in a map parameter:
   parameter register [p] plus [c]. Register 0 is never assigned, so a
   constant index [c] is [(0, c)]. Any other form, a symbol included, is
   not affine. *)
let affine_dim sparams (e : Symbolic.Expr.t) =
  let reg s c = Option.map (fun p -> (p, c)) (List.assoc_opt s sparams) in
  match e with
  | Symbolic.Expr.Int c -> Some (0, c)
  | Symbolic.Expr.Sym s -> reg s 0
  | Symbolic.Expr.Add (Symbolic.Expr.Sym s, Symbolic.Expr.Int c)
  | Symbolic.Expr.Add (Symbolic.Expr.Int c, Symbolic.Expr.Sym s) ->
      reg s c
  | Symbolic.Expr.Sub (Symbolic.Expr.Sym s, Symbolic.Expr.Int c) -> reg s (-c)
  | _ -> None

(* [point_offset] as straight-line code for an affine point of rank 1 to 3:
   its indices cannot fault, so the order left is the shift, then the
   bounds check in dimension order, which writes the indices into the
   scratch only to report them. *)
let affine_offset at context = function
  | [| (p0, c0) |] ->
      fun rt (b : Value.buffer) ->
        let i0 = shift_first rt (rt.params.(p0) + c0) in
        if i0 < 0 || i0 >= b.cshape.(0) then begin
          at.(0) <- i0;
          point_oob b at context
        end;
        i0
  | [| (p0, c0); (p1, c1) |] ->
      fun rt b ->
        let ps = rt.params in
        let i1 = ps.(p1) + c1 in
        let i0 = shift_first rt (ps.(p0) + c0) in
        let sh = b.cshape in
        let n1 = sh.(1) in
        if i0 < 0 || i0 >= sh.(0) || i1 < 0 || i1 >= n1 then begin
          at.(0) <- i0;
          at.(1) <- i1;
          point_oob b at context
        end;
        (i0 * n1) + i1
  | [| (p0, c0); (p1, c1); (p2, c2) |] ->
      fun rt b ->
        let ps = rt.params in
        let i1 = ps.(p1) + c1 and i2 = ps.(p2) + c2 in
        let i0 = shift_first rt (ps.(p0) + c0) in
        let sh = b.cshape in
        let n1 = sh.(1) and n2 = sh.(2) in
        if i0 < 0 || i0 >= sh.(0) || i1 < 0 || i1 >= n1 || i2 < 0 || i2 >= n2 then begin
          at.(0) <- i0;
          at.(1) <- i1;
          at.(2) <- i2;
          point_oob b at context
        end;
        (((i0 * n1) + i1) * n2) + i2
  | _ -> invalid_arg "Plan.affine_offset: rank"

(* A tasklet memlet, classified at lowering, cheapest first: a scalar
   (element 0), a volume-1 point addressed in place by its offset
   function, or range closures through Value's subset iteration. A point
   owns an index scratch of its rank, per-run state of the lowering like a
   tasklet's registers. *)
type access = Ascalar | Apoint of (rt -> Value.buffer -> int) | Aranges of lrange array

(* A point requires lo and hi to be the same expression (so skipping the hi
   evaluation cannot skip a distinct exception) and the step to evaluate to
   1 with no symbol bound. *)
let lower_access cv sparams ~context (s : Symbolic.Subset.t) =
  let unit_step (r : Symbolic.Subset.range) =
    match Symbolic.Expr.eval Symbolic.Expr.Env.empty r.step with
    | step -> step = 1
    | exception (Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero) -> false
  in
  match s with
  | [] -> Ascalar
  | _ when List.for_all (fun (r : Symbolic.Subset.range) -> r.lo = r.hi && unit_step r) s -> (
      let los = List.map (fun (r : Symbolic.Subset.range) -> r.lo) s in
      let at = Array.make (List.length los) 0 in
      let affine = List.filter_map (affine_dim sparams) los in
      if List.length affine = List.length los && List.length los <= 3 then
        Apoint (affine_offset at context (Array.of_list affine))
      else
        let fs = Array.of_list (List.map (lower_expr cv sparams ~interstate:false) los) in
        Apoint (fun rt b -> point_offset rt b fs at context))
  | _ -> Aranges (lower_ranges cv sparams s)

(* ------------------------------------------------------------------ *)
(* Write interception                                                  *)
(* ------------------------------------------------------------------ *)

(* Single-value variant of the tree-walk's corrupt_write: same counter
   discipline (the write counter advances whether or not this write was the
   injection target). *)
let corrupt1 rt v =
  let v' =
    match rt.cfg.inject with
    | Some (Flip_bit { nth_write; bit }) when rt.writes = nth_write ->
        Int64.float_of_bits
          (Int64.logxor (Int64.bits_of_float v) (Int64.shift_left 1L (bit land 63)))
    | Some (Set_nan { nth_write }) when rt.writes = nth_write -> Float.nan
    | Some (Set_inf { nth_write }) when rt.writes = nth_write -> Float.infinity
    | _ -> v
  in
  rt.writes <- rt.writes + 1;
  v'

let corrupt_write rt values =
  let patch v =
    if Array.length values = 0 then values
    else begin
      let values = Array.copy values in
      values.(0) <- v;
      values
    end
  in
  let values =
    match rt.cfg.inject with
    | Some (Flip_bit { nth_write; bit }) when rt.writes = nth_write ->
        if Array.length values = 0 then values
        else
          patch
            (Int64.float_of_bits
               (Int64.logxor (Int64.bits_of_float values.(0)) (Int64.shift_left 1L (bit land 63))))
    | Some (Set_nan { nth_write }) when rt.writes = nth_write -> patch Float.nan
    | Some (Set_inf { nth_write }) when rt.writes = nth_write -> patch Float.infinity
    | _ -> values
  in
  rt.writes <- rt.writes + 1;
  values

let oob_fault context = function
  | Value.Out_of_bounds { container; index; shape } ->
      F (Out_of_bounds { container; index; shape; context })
  | e -> e

(* ------------------------------------------------------------------ *)
(* Lowered operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Buffers are dense plan ids: validation guarantees that every memlet and
   access node names a declared container, that a library node has each of
   its connectors, that a map has one range per parameter and that a
   tasklet writes only connectors its code assigns, so none of these is
   checked at run time. *)
type lib_conn = { c_buf : int; c_sub : lrange array; c_wcr : Memlet.wcr option; c_ctx : string }

type lib_op = {
  l_nid : int;
  l_kind : Node.lib_kind;
  l_a : lib_conn;  (* "A" / "in" *)
  l_b : lib_conn option;  (* "B"; None for Reduce *)
  l_out : lib_conn;  (* "C" / "out" *)
}

type copy_op = {
  cp_src : int;
  cp_ssub : lrange array;
  cp_dst : int;
  cp_dsub : lrange array;
  cp_wcr : Memlet.wcr option;
  cp_ctx : string;
}

type op =
  | Op_task of (rt -> unit) array
      (* the select counter's reset if the code has a Select, the reads in
         in-edge order, the assignments, the writes in out-edge order *)
  | Op_lib of lib_op
  | Op_copies of copy_op array
  | Op_map of map_op

and map_op = {
  m_cov : int array;  (* coverage digests, indexed by Bool.to_int empty *)
  m_lranges : lrange array;  (* one per parameter *)
  m_pslots : int array;  (* parameter registers *)
  m_body : op array;
}

type ledge = {
  le_cov : int;
  le_cond : rt -> bool;
  le_assigns : (int * (rt -> int)) array;  (* symbol slot, lowered rhs *)
  le_dst : int;  (* position in lw_states *)
}

type state_plan = { sp_cov : int; sp_ops : op array; sp_edges : ledge array }

(* One program, lowered once and shared by every binding of it. *)
type lowering = {
  lw_containers : (string * Graph.datadesc) array;  (* by dense buffer id *)
  lw_buf_idx : (string, int) Hashtbl.t;
  lw_nparams : int;
  lw_slots : string array;  (* slot -> symbol *)
  lw_guarded : int list;  (* slots a tasklet reads under a Select branch *)
  lw_oblivious : bool;  (* Hang_proof.interstate_oblivious *)
  lw_states : state_plan array;
  lw_start : int;  (* position in lw_states, -1 when the graph has no start *)
}

(* A lowering bound to one valuation. *)
type t = {
  p_lw : lowering;
  p_shapes : int array array;  (* by dense buffer id *)
  p_dvals : int array;  (* initial slot registers: the valuation's values ... *)
  p_dset : bool array;  (* ... and the slots it sets *)
  p_provable : bool;  (* Hang_proof's static precondition *)
}

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let buf cv name = Hashtbl.find cv.buf_idx name

(* One element store at a checked offset, as Value.write_subset stores each
   element: the write counter and the injection, then the WCR combine,
   which reads the old element, then the dtype cast. The value stays in the
   tasklet's register file: with no injection an F64 buffer needs neither
   [corrupt1] nor the cast, and a sum or a product combines inline. *)
let store rt (b : Value.buffer) off wcr (regs : float array) s =
  let data = b.data in
  match (rt.cfg.inject, b.desc.dtype) with
  | None, Dtype.F64 -> (
      rt.writes <- rt.writes + 1;
      match wcr with
      | None -> data.(off) <- regs.(s)
      | Some Memlet.Wcr_sum -> data.(off) <- data.(off) +. regs.(s)
      | Some Memlet.Wcr_mul -> data.(off) <- data.(off) *. regs.(s)
      | Some wc -> data.(off) <- Memlet.apply_wcr wc data.(off) regs.(s))
  | _ ->
      let v = corrupt1 rt regs.(s) in
      let v = match wcr with None -> v | Some wc -> Memlet.apply_wcr wc data.(off) v in
      data.(off) <- Value.cast b.desc.dtype v

let run_code (code : (rt -> unit) array) rt =
  for k = 0 to Array.length code - 1 do
    code.(k) rt
  done

(* One instruction per operator, over registers of the tasklet's file. *)
let bin_instr (regs : float array) (op : Tcode.binop) d a b : rt -> unit =
  match op with
  | Tcode.Add -> fun _ -> regs.(d) <- regs.(a) +. regs.(b)
  | Tcode.Sub -> fun _ -> regs.(d) <- regs.(a) -. regs.(b)
  | Tcode.Mul -> fun _ -> regs.(d) <- regs.(a) *. regs.(b)
  | Tcode.Div -> fun _ -> regs.(d) <- regs.(a) /. regs.(b)
  | Tcode.Pow -> fun _ -> regs.(d) <- Float.pow regs.(a) regs.(b)
  | Tcode.Mod -> fun _ -> regs.(d) <- Float.rem regs.(a) regs.(b)
  | Tcode.Min -> fun _ -> regs.(d) <- Float.min regs.(a) regs.(b)
  | Tcode.Max -> fun _ -> regs.(d) <- Float.max regs.(a) regs.(b)

let un_instr (regs : float array) (op : Tcode.unop) d a : rt -> unit =
  match op with
  | Tcode.Neg -> fun _ -> regs.(d) <- -.regs.(a)
  | Tcode.Sqrt -> fun _ -> regs.(d) <- Float.sqrt regs.(a)
  | Tcode.Exp -> fun _ -> regs.(d) <- Float.exp regs.(a)
  | Tcode.Log -> fun _ -> regs.(d) <- Float.log regs.(a)
  | Tcode.Abs -> fun _ -> regs.(d) <- Float.abs regs.(a)
  | Tcode.Floor -> fun _ -> regs.(d) <- Float.floor regs.(a)
  | Tcode.Sin -> fun _ -> regs.(d) <- Float.sin regs.(a)
  | Tcode.Cos -> fun _ -> regs.(d) <- Float.cos regs.(a)
  | Tcode.Tanh -> fun _ -> regs.(d) <- Float.tanh regs.(a)

(* Float comparisons: NaN is unequal to everything and -0 equals 0, as in
   Defs.apply_cmp. *)
let cmp_instr (regs : float array) (op : Tcode.cmpop) d a b : rt -> unit =
  match op with
  | Tcode.Lt -> fun _ -> regs.(d) <- (if regs.(a) < regs.(b) then 1. else 0.)
  | Tcode.Le -> fun _ -> regs.(d) <- (if regs.(a) <= regs.(b) then 1. else 0.)
  | Tcode.Gt -> fun _ -> regs.(d) <- (if regs.(a) > regs.(b) then 1. else 0.)
  | Tcode.Ge -> fun _ -> regs.(d) <- (if regs.(a) >= regs.(b) then 1. else 0.)
  | Tcode.Eq -> fun _ -> regs.(d) <- (if regs.(a) = regs.(b) then 1. else 0.)
  | Tcode.Ne -> fun _ -> regs.(d) <- (if regs.(a) <> regs.(b) then 1. else 0.)

(* One assignment lowered to register code: the instructions, in run order,
   that leave the value of [expr] in register [dst]. A node's value lives
   in a register of its own, allocated by [fresh], except a visible
   connector, read in place, and a constant, whose register is filled here.
   A binary node runs its right operand's code, then its left's, then its
   operator: the tree-walk's [apply_bin op (ev a) (ev b)] order, which
   decides which unbound reference faults first and how Select sites are
   numbered. Only the root instruction writes [dst], so [o = f(o)] reads
   [o] before it overwrites it; a Select's root runs the sub-array of the
   branch it takes, and each branch's root writes the Select's register.

   Reference resolution is frozen at lowering with the tree-walk's
   precedence: visible connectors (inputs, plus targets of earlier
   assignments), then enclosing map parameters innermost-first, then symbol
   slots. The slot a reference under a Select branch reads is recorded in
   [cv.guarded]: an unset slot faults, and whether the branch runs depends
   on data. *)
let lower_tcode cv sparams ~sid ~nid ~visible ~(regs : float array) ~fresh ~sel ~sel_digests ~dst
    expr =
  let rec lo code ~guarded dst e =
    let emit i = code := i :: !code in
    let into () = match dst with Some d -> d | None -> fresh () in
    let leaf r =
      match dst with
      | Some d when d <> r ->
          emit (fun _ -> regs.(d) <- regs.(r));
          d
      | _ -> r
    in
    match e with
    | Tcode.Fconst f ->
        let r = fresh () in
        regs.(r) <- f;
        leaf r
    | Tcode.Ref s -> (
        match Hashtbl.find_opt visible s with
        | Some i -> leaf i
        | None ->
            let d = into () in
            (match List.assoc_opt s sparams with
            | Some p -> emit (fun rt -> regs.(d) <- float_of_int rt.params.(p))
            | None ->
                let i = slot cv s in
                if guarded then cv.guarded <- i :: cv.guarded;
                let unbound =
                  F (Invalid_graph (Printf.sprintf "tasklet %d: unbound ref %s" nid s))
                in
                emit (fun rt ->
                    if rt.dset.(i) then regs.(d) <- float_of_int rt.dvals.(i) else raise unbound));
            d)
    | Tcode.Bin (op, a, b) ->
        let rb = lo code ~guarded None b in
        let ra = lo code ~guarded None a in
        let d = into () in
        emit (bin_instr regs op d ra rb);
        d
    | Tcode.Un (op, a) ->
        let ra = lo code ~guarded None a in
        let d = into () in
        emit (un_instr regs op d ra);
        d
    | Tcode.Cmp (op, a, b) ->
        let rb = lo code ~guarded None b in
        let ra = lo code ~guarded None a in
        let d = into () in
        emit (cmp_instr regs op d ra rb);
        d
    | Tcode.Select (c, a, b) ->
        let rc = lo code ~guarded None c in
        let d = into () in
        let branch e =
          let code = ref [] in
          ignore (lo code ~guarded:true (Some d) e);
          Array.of_list (List.rev !code)
        in
        let ca = branch a in
        let cb = branch b in
        emit (fun rt ->
            let taken = regs.(rc) <> 0. in
            let k = !sel in
            incr sel;
            if rt.cfg.collect_coverage then begin
              let i = (2 * k) + Bool.to_int taken in
              if i < Array.length sel_digests then Hashtbl.replace rt.cov sel_digests.(i) ()
              else
                Hashtbl.replace rt.cov
                  (cov_digest (Cov_select { state = sid; node = nid; site = k; taken }))
                  ()
            end;
            run_code (if taken then ca else cb) rt);
        d
  in
  let code = ref [] in
  ignore (lo code ~guarded:false (Some dst) expr);
  List.rev !code

(* A read lands straight in the connector's register. A validated scalar
   memlet names a scalar buffer. *)
let read_instr cv sparams ~nid (regs : float array) s (conn, (m : Memlet.t)) : rt -> unit =
  let context = Printf.sprintf "tasklet %d input %s" nid conn in
  let bid = buf cv m.data in
  match lower_access cv sparams ~context m.subset with
  | Ascalar -> fun rt -> regs.(s) <- rt.bufs.(bid).data.(0)
  | Apoint offset ->
      fun rt ->
        let b = rt.bufs.(bid) in
        regs.(s) <- b.data.(offset rt b)
  | Aranges lrs ->
      fun rt ->
        let b = rt.bufs.(bid) in
        let cs = concretize_sub rt lrs in
        let values = try Value.read_subset b cs with e -> raise (oob_fault context e) in
        if Array.length values <> 1 then
          raise
            (F
               (Invalid_graph
                  (Printf.sprintf "%s: tasklet memlet must have volume 1 (got %d)" context
                     (Array.length values))));
        regs.(s) <- values.(0)

(* [targets] maps assignment targets to their registers; validation
   guarantees a written connector is one of them. *)
let write_instr cv sparams ~nid ~targets (regs : float array) conn (m : Memlet.t) : rt -> unit =
  let context = Printf.sprintf "tasklet %d output %s" nid conn in
  let wcr = m.wcr in
  let s = Hashtbl.find targets conn and bid = buf cv m.data in
  match lower_access cv sparams ~context m.subset with
  | Ascalar -> fun rt -> store rt rt.bufs.(bid) 0 wcr regs s
  | Apoint offset ->
      fun rt ->
        let b = rt.bufs.(bid) in
        store rt b (offset rt b) wcr regs s
  | Aranges lrs -> (
      fun rt ->
        let b = rt.bufs.(bid) in
        let cs = concretize_sub rt lrs in
        let values = corrupt_write rt [| regs.(s) |] in
        try
          match wcr with
          | None -> Value.write_subset b cs values
          | Some wc -> Value.accumulate_subset b cs wc values
        with e -> raise (oob_fault context e))

(* The register file: input connectors in in-edge order, then assignment
   targets, then at most one register per code node. *)
let lower_tasklet cv sc sid sparams nid (code : Tcode.t) =
  let slot_of = Hashtbl.create 8 in
  let slot name =
    match Hashtbl.find_opt slot_of name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length slot_of in
        Hashtbl.replace slot_of name i;
        i
  in
  let in_edges =
    List.filter_map
      (fun (e : State.edge) ->
        match (e.dst_conn, e.memlet) with
        | Some conn, Some m -> Some (conn, (m : Memlet.t))
        | _ -> None)
      (Tree.ins_of sc nid)
  in
  List.iter (fun (conn, _) -> ignore (slot conn)) in_edges;
  List.iter (fun (o, _) -> ignore (slot o)) code.assignments;
  let rec nodes = function
    | Tcode.Fconst _ | Tcode.Ref _ -> 1
    | Tcode.Un (_, a) -> 1 + nodes a
    | Tcode.Bin (_, a, b) | Tcode.Cmp (_, a, b) -> 1 + nodes a + nodes b
    | Tcode.Select (c, a, b) -> 1 + nodes c + nodes a + nodes b
  in
  let nslots = Hashtbl.length slot_of in
  let regs =
    Array.make (List.fold_left (fun n (_, e) -> n + nodes e) nslots code.assignments) 0.
  in
  let next = ref nslots in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  let sel = ref 0 in
  let sel_digests =
    Array.init
      (2 * Tcode.num_selects code)
      (fun i ->
        cov_digest (Cov_select { state = sid; node = nid; site = i / 2; taken = i mod 2 = 1 }))
  in
  let reads =
    List.map (fun ((conn, _) as e) -> read_instr cv sparams ~nid regs (slot conn) e) in_edges
  in
  (* visibility grows as assignments are lowered: an assignment may read
     inputs and any earlier target, but not later ones *)
  let visible = Hashtbl.create 8 in
  List.iter (fun (conn, _) -> Hashtbl.replace visible conn (slot conn)) in_edges;
  let assigns =
    List.concat_map
      (fun (o, expr) ->
        let dst = slot o in
        let code = lower_tcode cv sparams ~sid ~nid ~visible ~regs ~fresh ~sel ~sel_digests ~dst expr in
        Hashtbl.replace visible o dst;
        code)
      code.assignments
  in
  let targets = Hashtbl.create 8 in
  List.iter (fun (o, _) -> Hashtbl.replace targets o (slot o)) code.assignments;
  let writes =
    List.filter_map
      (fun (e : State.edge) ->
        match (e.src_conn, e.memlet) with
        | Some conn, Some m -> Some (write_instr cv sparams ~nid ~targets regs conn m)
        | _ -> None)
      (Tree.outs_of sc nid)
  in
  let reset = if Array.length sel_digests > 0 then [ (fun _ -> sel := 0) ] else [] in
  Array.of_list (reset @ reads @ assigns @ writes)

let lower_library cv sc sparams nid (kind : Node.lib_kind) =
  let conn ~dir (m : Memlet.t) c =
    {
      c_buf = buf cv m.data;
      c_sub = lower_ranges cv sparams m.subset;
      c_wcr = m.wcr;
      c_ctx = Printf.sprintf "library node %d %s %s" nid dir c;
    }
  in
  let find_in c = conn ~dir:"input" (Tree.find_in sc nid c) c in
  let find_out c = conn ~dir:"output" (Tree.find_out sc nid c) c in
  match kind with
  | Node.Mat_mul | Node.Batched_mat_mul ->
      { l_nid = nid; l_kind = kind; l_a = find_in "A"; l_b = Some (find_in "B"); l_out = find_out "C" }
  | Node.Reduce _ ->
      { l_nid = nid; l_kind = kind; l_a = find_in "in"; l_b = None; l_out = find_out "out" }

let lower_copy cv sparams ~dst_data (src_m : Memlet.t) (dst_memlet : Memlet.t option) =
  let dst_m =
    match dst_memlet with
    | Some m -> m
    | None -> Memlet.make dst_data (Symbolic.Subset.full (Graph.container cv.cg dst_data).shape)
  in
  {
    cp_src = buf cv src_m.data;
    cp_ssub = lower_ranges cv sparams src_m.subset;
    cp_dst = buf cv dst_m.data;
    cp_dsub = lower_ranges cv sparams dst_m.subset;
    cp_wcr = dst_m.wcr;
    cp_ctx = Printf.sprintf "copy %s -> %s" src_m.data dst_m.data;
  }

let rec lower_members cv sc sid sparams entry =
  let st = sc.Tree.st in
  Array.of_list
    (List.filter_map
       (fun nid ->
         match State.node st nid with
         | Node.Access _ ->
             let copies =
               List.filter_map
                 (fun (e : State.edge) ->
                   match (State.node_opt st e.dst, e.memlet) with
                   | Some (Node.Access d), Some src_m ->
                       Some (lower_copy cv sparams ~dst_data:d src_m e.dst_memlet)
                   | _ -> None)
                 (Tree.outs_of sc nid)
             in
             if copies = [] then None else Some (Op_copies (Array.of_list copies))
         | Node.Tasklet { code; _ } -> Some (Op_task (lower_tasklet cv sc sid sparams nid code))
         | Node.Library { kind; _ } -> Some (Op_lib (lower_library cv sc sparams nid kind))
         | Node.Map_entry info -> Some (Op_map (lower_map cv sc sid sparams nid info))
         | Node.Map_exit _ -> None)
       (Tree.direct_members sc entry))

and lower_map cv sc sid sparams nid (info : Node.map_info) =
  (* ranges are concretized against the enclosing scope only — a map's own
     parameters are not in scope for its ranges *)
  let lranges = Array.of_list (List.map (lower_range cv sparams) info.ranges) in
  let pslots =
    Array.of_list
      (List.map
         (fun _ ->
           let s = cv.nparams in
           cv.nparams <- s + 1;
           s)
         info.params)
  in
  let inner = List.rev (List.map2 (fun p s -> (p, s)) info.params (Array.to_list pslots)) in
  let body = lower_members cv sc sid (inner @ sparams) (Some nid) in
  {
    m_cov =
      [|
        cov_digest (Cov_map { state = sid; node = nid; empty = false });
        cov_digest (Cov_map { state = sid; node = nid; empty = true });
      |];
    m_lranges = lranges;
    m_pslots = pslots;
    m_body = body;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let lib_read rt c =
  let b = rt.bufs.(c.c_buf) in
  let cs = concretize_sub rt c.c_sub in
  (* counts before the read, matching the tree-walk's tuple order *)
  let counts = List.map Symbolic.Subset.crange_count cs in
  let values = try Value.read_subset b cs with e -> raise (oob_fault c.c_ctx e) in
  (values, counts)

let lib_write rt c values =
  let b = rt.bufs.(c.c_buf) in
  let cs = concretize_sub rt c.c_sub in
  let values = corrupt_write rt values in
  try
    match c.c_wcr with
    | None -> Value.write_subset b cs values
    | Some w -> Value.accumulate_subset b cs w values
  with e -> raise (oob_fault c.c_ctx e)

let exec_lib rt (l : lib_op) =
  tick rt;
  match l.l_kind with
  | Node.Mat_mul -> (
      let a, adims = lib_read rt l.l_a in
      let b, bdims = lib_read rt (Option.get l.l_b) in
      match (adims, bdims) with
      | [ m; k ], [ k'; n ] when k = k' ->
          tick rt ~cost:(m * n * k);
          let c = Array.make (m * n) 0. in
          for i = 0 to m - 1 do
            for j = 0 to n - 1 do
              let acc = ref 0. in
              for l = 0 to k - 1 do
                acc := !acc +. (a.((i * k) + l) *. b.((l * n) + j))
              done;
              c.((i * n) + j) <- !acc
            done
          done;
          lib_write rt l.l_out c
      | _ ->
          raise (F (Invalid_graph (Printf.sprintf "matmul node %d: incompatible shapes" l.l_nid)))
      )
  | Node.Batched_mat_mul -> (
      let a, adims = lib_read rt l.l_a in
      let b, bdims = lib_read rt (Option.get l.l_b) in
      match (adims, bdims) with
      | [ bt; m; k ], [ bt'; k'; n ] when k = k' && bt = bt' ->
          tick rt ~cost:(bt * m * n * k);
          let c = Array.make (bt * m * n) 0. in
          for bi = 0 to bt - 1 do
            for i = 0 to m - 1 do
              for j = 0 to n - 1 do
                let acc = ref 0. in
                for l = 0 to k - 1 do
                  acc :=
                    !acc +. (a.((bi * m * k) + (i * k) + l) *. b.((bi * k * n) + (l * n) + j))
                done;
                c.((bi * m * n) + (i * n) + j) <- !acc
              done
            done
          done;
          lib_write rt l.l_out c
      | _ ->
          raise
            (F
               (Invalid_graph
                  (Printf.sprintf "batched matmul node %d: incompatible shapes" l.l_nid))))
  | Node.Reduce (op, axes) ->
      let input, dims = lib_read rt l.l_a in
      let ndims = List.length dims in
      List.iter
        (fun ax ->
          if ax < 0 || ax >= ndims then
            raise (F (Invalid_graph (Printf.sprintf "reduce node %d: bad axis %d" l.l_nid ax))))
        axes;
      tick rt ~cost:(List.fold_left ( * ) 1 dims);
      let dims_arr = Array.of_list dims in
      let keep = List.filter (fun d -> not (List.mem d axes)) (List.init ndims Fun.id) in
      let out_dims = List.map (fun d -> dims_arr.(d)) keep in
      let out_n = List.fold_left ( * ) 1 out_dims in
      let out = Array.make out_n (Memlet.wcr_identity op) in
      let total = Array.fold_left ( * ) 1 dims_arr in
      let idx = Array.make ndims 0 in
      for flat = 0 to total - 1 do
        let rem = ref flat in
        for d = ndims - 1 downto 0 do
          idx.(d) <- !rem mod dims_arr.(d);
          rem := !rem / dims_arr.(d)
        done;
        let oflat = List.fold_left (fun acc d -> (acc * dims_arr.(d)) + idx.(d)) 0 keep in
        out.(oflat) <- Memlet.apply_wcr op out.(oflat) input.(flat)
      done;
      lib_write rt l.l_out out

let exec_copy rt c =
  let sb = rt.bufs.(c.cp_src) in
  let db = rt.bufs.(c.cp_dst) in
  let scs = concretize_sub rt c.cp_ssub in
  let dcs = concretize_sub rt c.cp_dsub in
  let values = try Value.read_subset sb scs with e -> raise (oob_fault c.cp_ctx e) in
  tick rt ~cost:(max 1 (Array.length values / 64));
  let values = corrupt_write rt values in
  try
    match c.cp_wcr with
    | None -> Value.write_subset db dcs values
    | Some w -> Value.accumulate_subset db dcs w values
  with e -> raise (oob_fault c.cp_ctx e)

let rec exec_op rt = function
  | Op_task code ->
      tick rt;
      run_code code rt
  | Op_lib l -> exec_lib rt l
  | Op_copies cs -> Array.iter (exec_copy rt) cs
  | Op_map m -> exec_map rt m

and exec_map rt (m : map_op) =
  let cr =
    try Array.map (eval_range rt) m.m_lranges with
    | Symbolic.Expr.Unbound_symbol s ->
        raise (F (Runtime_error ("unbound symbol " ^ s ^ " in map range")))
    | Symbolic.Expr.Division_by_zero ->
        raise (F (Runtime_error "division by zero in map range"))
  in
  (* Array.for_all short-circuits at the first non-empty range, like the
     tree-walk's List.for_all: a zero-step range behind it only raises when
     iteration actually reaches its depth *)
  let empty = Array.for_all (fun r -> Symbolic.Subset.crange_count r = 0) cr in
  if rt.cfg.collect_coverage then Hashtbl.replace rt.cov m.m_cov.(Bool.to_int empty) ();
  let rec go d =
    if d = Array.length cr then
      for k = 0 to Array.length m.m_body - 1 do
        exec_op rt m.m_body.(k)
      done
    else begin
      let r = cr.(d) in
      let n = Symbolic.Subset.crange_count r in
      let pslot = m.m_pslots.(d) in
      for i = 0 to n - 1 do
        rt.params.(pslot) <- r.Symbolic.Subset.clo + (i * r.Symbolic.Subset.cstep);
        go (d + 1)
      done
    end
  in
  go 0

(* One interstate transition: coverage, then every assignment's rhs against
   the pre-edge environment (ticking per assignment), then the commit. The
   tree-walk evaluates each rhs against a snapshot taken before the edge and
   only then folds values into its symbol environment; deferring the whole
   commit is observationally identical because nothing reads the environment
   between two assignments of the same edge. *)
let run_edge rt (e : ledge) =
  if rt.cfg.collect_coverage then Hashtbl.replace rt.cov e.le_cov ();
  let n = Array.length e.le_assigns in
  let vals = Array.make n 0 in
  for i = 0 to n - 1 do
    let _, f = e.le_assigns.(i) in
    tick rt;
    vals.(i) <-
      (try f rt with
      | Symbolic.Expr.Unbound_symbol s -> raise (F (Runtime_error ("unbound symbol " ^ s)))
      | Symbolic.Expr.Division_by_zero ->
          raise (F (Runtime_error "division by zero in symbolic expression")))
  done;
  for i = 0 to n - 1 do
    let slot, _ = e.le_assigns.(i) in
    rt.dvals.(slot) <- vals.(i);
    rt.dset.(slot) <- true
  done;
  e.le_dst

(* Each state entry first goes through the hang proof (Hang_proof), which
   may move the step counter forward by whole periods of a proved loop. *)
let exec_program p rt =
  let lw = p.p_lw in
  if lw.lw_start >= 0 then begin
    let proof = Hang_proof.create ~provable:p.p_provable rt.cfg ~dvals:rt.dvals ~dset:rt.dset in
    let current = ref lw.lw_start in
    while !current >= 0 do
      let sp = lw.lw_states.(!current) in
      rt.steps <- Hang_proof.enter proof ~pos:!current ~steps:rt.steps;
      tick rt;
      if rt.cfg.collect_coverage then Hashtbl.replace rt.cov sp.sp_cov ();
      for k = 0 to Array.length sp.sp_ops - 1 do
        exec_op rt sp.sp_ops.(k)
      done;
      let rec find i =
        if i >= Array.length sp.sp_edges then -1
        else if
          try sp.sp_edges.(i).le_cond rt with
          | Symbolic.Expr.Unbound_symbol s ->
              raise (F (Runtime_error ("unbound symbol " ^ s ^ " in interstate condition")))
          | Symbolic.Expr.Division_by_zero ->
              raise (F (Runtime_error "division by zero in interstate condition"))
        then i
        else find (i + 1)
      in
      let next = find 0 in
      if next < 0 then current := -1 else current := run_edge rt sp.sp_edges.(next)
    done
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Lowering, once per program: dense container ids, the state order and
   every state's scope context, then one pass over the states. Symbol slots
   are numbered as lowering first meets them. *)
let lower g containers =
  let buf_idx = Hashtbl.create 16 in
  let scalar_idx = Hashtbl.create 8 in
  Array.iteri
    (fun i (name, (desc : Graph.datadesc)) ->
      Hashtbl.replace buf_idx name i;
      if desc.shape = [] then Hashtbl.replace scalar_idx name i)
    containers;
  let states = Graph.states g in
  let pos_of = Hashtbl.create 8 in
  List.iteri (fun i (sid, _) -> Hashtbl.replace pos_of sid i) states;
  let states =
    List.map (fun (sid, st) -> (sid, Tree.build_sctx st, Graph.out_istate_edges g sid)) states
  in
  let start = Graph.start_state g in
  let start = if start < 0 then -1 else Hashtbl.find pos_of start in
  let cv =
    { cg = g; buf_idx; scalar_idx; slot_idx = Hashtbl.create 8; nparams = 1; guarded = [] }
  in
  let state_plans =
    Array.of_list
      (List.map
         (fun (sid, sc, out_edges) ->
           let ops = lower_members cv sc sid [] None in
           let edges =
             Array.of_list
               (List.map
                  (fun (e : Graph.istate_edge) ->
                    {
                      le_cov = cov_digest (Cov_iedge e.ie_id);
                      le_cond = lower_cond cv e.cond;
                      le_assigns =
                        Array.of_list
                          (List.map
                             (fun (sym, rhs) ->
                               let f = lower_expr cv [] ~interstate:true rhs in
                               (slot cv sym, f))
                             e.assigns);
                      le_dst = Hashtbl.find pos_of e.dst;
                    })
                  out_edges)
           in
           { sp_cov = cov_digest (Cov_state sid); sp_ops = ops; sp_edges = edges })
         states)
  in
  let slots = Array.make (Hashtbl.length cv.slot_idx) "" in
  Hashtbl.iter (fun s i -> slots.(i) <- s) cv.slot_idx;
  {
    lw_containers = containers;
    lw_buf_idx = buf_idx;
    lw_nparams = cv.nparams;
    lw_slots = slots;
    lw_guarded = cv.guarded;
    lw_oblivious = Hang_proof.interstate_oblivious g;
    lw_states = state_plans;
    lw_start = start;
  }

(* A binding: shapes first, with the tree-walk's typed faults in container
   order; then the slots the valuation sets. A guarded read of a set slot
   cannot fault, since nothing unsets a slot, so the hang proof's
   precondition needs every guarded slot set. *)
let bind lw ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  try
    let shapes =
      Array.map
        (fun (name, desc) ->
          try Value.concretize_shape env name desc with
          | Invalid_argument msg -> raise (F (Invalid_graph msg))
          | Symbolic.Expr.Unbound_symbol s ->
              raise (F (Runtime_error ("unbound symbol " ^ s ^ " in shape of " ^ name))))
        lw.lw_containers
    in
    let n = Array.length lw.lw_slots in
    let dvals = Array.make n 0 and dset = Array.make n false in
    Array.iteri
      (fun i s ->
        match Symbolic.Expr.Env.find_opt s env with
        | Some v ->
            dvals.(i) <- v;
            dset.(i) <- true
        | None -> ())
      lw.lw_slots;
    Ok
      {
        p_lw = lw;
        p_shapes = shapes;
        p_dvals = dvals;
        p_dset = dset;
        p_provable = lw.lw_oblivious && List.for_all (fun i -> dset.(i)) lw.lw_guarded;
      }
  with F f -> Error f

(* [compile v] lowers; the closure it returns binds. Lowering an admitted
   graph cannot raise. *)
let compile (v : Validate.valid) =
  let g = (v :> Graph.t) in
  let lw = lower g (Array.of_list (Graph.containers g)) in
  fun ~symbols -> bind lw ~symbols

let execute ?(config = default_config) p ~inputs =
  let lw = p.p_lw in
  let bufs =
    Array.mapi
      (fun i (name, desc) ->
        Value.alloc_shaped ~garbage_seed:config.garbage_seed name desc p.p_shapes.(i))
      lw.lw_containers
  in
  let rt =
    {
      cfg = config;
      bufs;
      params = Array.make lw.lw_nparams 0;
      dvals = Array.copy p.p_dvals;
      dset = Array.copy p.p_dset;
      steps = 0;
      writes = 0;
      subsets = 0;
      cov = Hashtbl.create 64;
    }
  in
  try
    List.iter
      (fun (name, values) ->
        match Hashtbl.find_opt lw.lw_buf_idx name with
        | None -> raise (F (Runtime_error ("input for undeclared container " ^ name)))
        | Some i ->
            let b = rt.bufs.(i) in
            let n = Value.num_elements b in
            if Array.length values <> n then
              raise
                (F
                   (Runtime_error
                      (Printf.sprintf "input %s has %d elements, expected %d" name
                         (Array.length values) n)));
            Array.blit values 0 b.Value.data 0 n)
      inputs;
    exec_program p rt;
    let mem : Value.t = Hashtbl.create 16 in
    Array.iter (fun (b : Value.buffer) -> Hashtbl.replace mem b.Value.name b) rt.bufs;
    let coverage = Hashtbl.fold (fun k () acc -> k :: acc) rt.cov [] |> List.sort compare in
    Ok { memory = mem; coverage; steps = rt.steps; writes = rt.writes; subsets = rt.subsets }
  with
  | F fault -> Error fault
  | Invalid_argument msg -> Error (Runtime_error msg)
  | Stack_overflow -> Error (Hang { steps = rt.steps })

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type plan = t
  type t = (string * (string * int) list, (plan, fault) result) Memo.t

  let create ?capacity () : t = Memo.create ?capacity ()
  let digest_of g = Digest.to_hex (Digest.string (Serialize.to_string g))

  let compile ?digest c g ~symbols =
    let d = match digest with Some d -> d | None -> digest_of g in
    Memo.find_or_add c (d, List.sort compare symbols) (fun () ->
        match Validate.admit g with Ok v -> compile v ~symbols | Error e -> Error (invalid_graph e))

  let stats = Memo.stats
end
