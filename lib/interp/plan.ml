(* Compile-once execution plans.

   [compile g] lowers a validated graph once into a flat plan: state order
   and scope membership resolved per graph (adjacency and topological order
   are the states' own indexed queries), tasklet code compiled to closures
   over an integer-slot scratch file, memlet subsets and map ranges compiled
   to closures, and containers addressed by dense plan ids instead of string
   hashes. Every symbol that is not a map parameter reads a slot of the
   run's symbol registers, so applying the lowering to [~symbols] only binds
   a valuation: buffer shapes, the slots it sets, and the hang proof's
   precondition. [execute] then runs a bound plan over fresh buffers as many
   times as the fuzzing loop needs.

   Tasklet point and scalar memlets address their buffer in place: a point
   evaluates its indices into an integer scratch of its own and folds the
   bounds check into the row-major offset, so an access builds no index
   array. That scratch, the tasklets' registers and their select counters
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
  params : int array;  (* map-parameter registers *)
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
  mutable nparams : int;  (* map-parameter registers allocated so far *)
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

(* Classification of a memlet subset at compile time, cheapest first:
   scalar (no index computation at all), a volume-1 point whose per-dimension
   index is one closure, or per-dimension range closures. A point owns an
   index scratch of its rank, which every run overwrites (per-run state of
   the lowering, like a tasklet's [t_scratch]). *)
type lsub =
  | Sscalar
  | Spoint of { p_fs : (rt -> int) array; p_at : int array }
  | Sranges of lrange array

let lower_range cv sparams (r : Symbolic.Subset.range) : lrange =
  let e x = lower_expr cv sparams ~interstate:false x in
  (e r.lo, e r.hi, e r.step)

(* The point fast path requires lo and hi to be the same expression (so
   skipping the hi evaluation cannot skip a distinct exception) and the step
   to evaluate to 1 with no symbol bound. [point] is only requested for
   tasklet memlets, where the volume-1 check makes points the common case. *)
let lower_subset cv sparams ~point (s : Symbolic.Subset.t) =
  let unit_step (r : Symbolic.Subset.range) =
    match Symbolic.Expr.eval Symbolic.Expr.Env.empty r.step with
    | step -> step = 1
    | exception (Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero) -> false
  in
  match s with
  | [] -> Sscalar
  | _ when point && List.for_all (fun (r : Symbolic.Subset.range) -> r.lo = r.hi && unit_step r) s
    ->
      let fs =
        Array.of_list
          (List.map
             (fun (r : Symbolic.Subset.range) -> lower_expr cv sparams ~interstate:false r.lo)
             s)
      in
      Spoint { p_fs = fs; p_at = Array.make (Array.length fs) 0 }
  | _ -> Sranges (Array.of_list (List.map (lower_range cv sparams) s))

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

(* Evaluate a non-point subset: concrete ranges, the Shift_index injection on
   the first dimension, and the subset counter (dimensioned subsets only, and
   only after a successful evaluation — the same points the tree-walk
   advances it). *)
let concretize_sub rt ls =
  let cs =
    match ls with
    | Sscalar -> []
    | Sranges lrs -> (
        try Array.to_list (Array.map (eval_range rt) lrs) with e -> raise (subset_fault e))
    | Spoint _ -> assert false (* points are addressed by point_offset *)
  in
  match cs with
  | [] -> cs
  | (r : Symbolic.Subset.crange) :: rest ->
      let cs =
        match rt.cfg.inject with
        | Some (Shift_index { nth_subset; delta }) when rt.subsets = nth_subset ->
            { r with Symbolic.Subset.clo = r.clo + delta; chi = r.chi + delta } :: rest
        | _ -> cs
      in
      rt.subsets <- rt.subsets + 1;
      cs

(* Raised from a top-level function so that the in-bounds path of
   [point_offset] allocates nothing. The fault is the one Value's subset
   reads and writes raise, with a copy of the index: the scratch is
   overwritten by the next run. *)
let point_oob (b : Value.buffer) at context =
  raise
    (F
       (Out_of_bounds
          { container = b.Value.name; index = Array.copy at; shape = b.cshape; context }))

(* Address a point memlet in place: every index into the point's scratch, in
   order (an evaluation fault wins over any bounds fault), then the
   Shift_index injection and the subset counter, as for any dimensioned
   subset, then the bounds check folded into the row-major offset. Validation
   guarantees the point's rank is the buffer's. *)
let point_offset rt (b : Value.buffer) fs at context =
  (try
     for d = 0 to Array.length fs - 1 do
       at.(d) <- fs.(d) rt
     done
   with e -> raise (subset_fault e));
  (match rt.cfg.inject with
  | Some (Shift_index { nth_subset; delta }) when rt.subsets = nth_subset ->
      at.(0) <- at.(0) + delta
  | _ -> ());
  rt.subsets <- rt.subsets + 1;
  let shape = b.cshape in
  let off = ref 0 in
  for d = 0 to Array.length at - 1 do
    let i = at.(d) and n = shape.(d) in
    if i < 0 || i >= n then point_oob b at context;
    off := (!off * n) + i
  done;
  !off

(* ------------------------------------------------------------------ *)
(* Buffer references and write interception                            *)
(* ------------------------------------------------------------------ *)

type bref = Bok of int | Bmissing of string

let getbuf rt = function
  | Bok i -> rt.bufs.(i)
  | Bmissing name -> raise (F (Invalid_graph ("reference to unallocated container " ^ name)))

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

type task_read = { rd_buf : bref; rd_sub : lsub; rd_slot : int; rd_ctx : string }
type wsrc = Wslot of int | Wmissing of string

type task_write = {
  wr_src : wsrc;
  wr_buf : bref;
  wr_sub : lsub;
  wr_wcr : Memlet.wcr option;
  wr_ctx : string;
}

type task_op = {
  t_host_fault : fault option;  (* GPU scope touching host storage *)
  t_reads : task_read array;  (* in in-edge order *)
  t_assigns : (int * (rt -> float)) array;  (* scratch slot, lowered rhs *)
  t_writes : task_write array;  (* in out-edge order *)
  t_scratch : float array;  (* connector register file, shared across runs *)
  t_sel : int ref;  (* Select site counter within one invocation *)
}

type lib_conn =
  | Cok of { c_buf : bref; c_sub : lsub; c_wcr : Memlet.wcr option; c_ctx : string }
  | Cmissing of string  (* precomputed missing-connector fault message *)

type lib_op = {
  l_nid : int;
  l_kind : Node.lib_kind;
  l_host_fault : fault option;
  l_a : lib_conn;  (* "A" / "in" *)
  l_b : lib_conn option;  (* "B"; None for Reduce *)
  l_out : lib_conn;  (* "C" / "out" *)
}

type copy_op =
  | Copy_missing_desc  (* dst container has no descriptor: Not_found, as the tree-walk *)
  | Copy of {
      cp_src : bref;
      cp_ssub : lsub;
      cp_dst : bref;
      cp_dsub : lsub;
      cp_wcr : Memlet.wcr option;
      cp_ctx : string;
    }

type op =
  | Op_task of task_op
  | Op_lib of lib_op
  | Op_copies of copy_op array
  | Op_map of map_op

and map_op = {
  m_nid : int;
  m_cov : int array;  (* coverage digests, indexed by Bool.to_int empty *)
  m_lranges : lrange array;  (* every declared range, params or not *)
  m_pslots : int array;  (* parameter registers *)
  m_dmax : int;  (* min(#params, #ranges): iteration depth *)
  m_arity_ok : bool;
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

let bref cv name =
  match Hashtbl.find_opt cv.buf_idx name with Some i -> Bok i | None -> Bmissing name

(* The first host-storage memlet on a GPU-scheduled node, precomputed: edge
   lists and storage classes are static. *)
let gpu_fault cv sc nid =
  List.find_map
    (fun (e : State.edge) ->
      match e.memlet with
      | Some (m : Memlet.t) -> (
          match Graph.container_opt cv.cg m.data with
          | Some d when d.storage = Graph.Host ->
              Some
                (Invalid_graph
                   (Printf.sprintf "GPU-scheduled code accesses host container %s" m.data))
          | _ -> None)
      | None -> None)
    (Tree.ins_of sc nid @ Tree.outs_of sc nid)

(* Tasklet code lowered to closures over a scratch register file. Reference
   resolution is frozen at compile time with the tree-walk's precedence:
   visible connectors (inputs, plus targets of earlier assignments), then
   enclosing map parameters innermost-first, then symbol slots. The slot a
   reference under a Select branch reads is recorded in [cv.guarded]: an
   unset slot faults, and whether the branch runs depends on data. *)
let lower_tcode cv sparams ~sid ~nid ~visible ~scratch ~sel ~sel_digests expr =
  let rec lo ~guarded e =
    match e with
    | Tcode.Fconst f -> fun _ -> f
    | Tcode.Ref s -> (
        match Hashtbl.find_opt visible s with
        | Some i -> fun _ -> scratch.(i)
        | None -> (
            match List.assoc_opt s sparams with
            | Some slot -> fun rt -> float_of_int rt.params.(slot)
            | None ->
                let i = slot cv s in
                if guarded then cv.guarded <- i :: cv.guarded;
                let unbound =
                  F (Invalid_graph (Printf.sprintf "tasklet %d: unbound ref %s" nid s))
                in
                fun rt -> if rt.dset.(i) then float_of_int rt.dvals.(i) else raise unbound))
    | Tcode.Bin (op, a, b) ->
        let la = lo ~guarded a and lb = lo ~guarded b in
        fun rt ->
          let vb = lb rt in
          let va = la rt in
          apply_bin op va vb
    | Tcode.Un (op, a) ->
        let la = lo ~guarded a in
        fun rt -> apply_un op (la rt)
    | Tcode.Cmp (op, a, b) ->
        let la = lo ~guarded a and lb = lo ~guarded b in
        fun rt ->
          let vb = lb rt in
          let va = la rt in
          apply_cmp op va vb
    | Tcode.Select (c, a, b) ->
        let lc = lo ~guarded c and la = lo ~guarded:true a and lb = lo ~guarded:true b in
        fun rt ->
          let taken = lc rt <> 0. in
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
          if taken then la rt else lb rt
  in
  lo ~guarded:false expr

let lower_tasklet cv sc sid ~gpu sparams nid (code : Tcode.t) =
  let host_fault = if gpu then gpu_fault cv sc nid else None in
  let slot_of = Hashtbl.create 8 in
  let nslots = ref 0 in
  let slot name =
    match Hashtbl.find_opt slot_of name with
    | Some i -> i
    | None ->
        let i = !nslots in
        incr nslots;
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
  let reads =
    Array.of_list
      (List.map
         (fun (conn, (m : Memlet.t)) ->
           {
             rd_buf = bref cv m.data;
             rd_sub = lower_subset cv sparams ~point:true m.subset;
             rd_slot = slot conn;
             rd_ctx = Printf.sprintf "tasklet %d input %s" nid conn;
           })
         in_edges)
  in
  List.iter (fun (o, _) -> ignore (slot o)) code.assignments;
  let scratch = Array.make (max 1 !nslots) 0. in
  let sel = ref 0 in
  let sel_digests =
    Array.init
      (2 * Tcode.num_selects code)
      (fun i ->
        cov_digest (Cov_select { state = sid; node = nid; site = i / 2; taken = i mod 2 = 1 }))
  in
  (* visibility grows as assignments are lowered: an assignment may read
     inputs and any earlier target, but not later ones *)
  let visible = Hashtbl.create 8 in
  List.iter (fun (conn, _) -> Hashtbl.replace visible conn (Hashtbl.find slot_of conn)) in_edges;
  let assigns =
    Array.of_list
      (List.map
         (fun (o, expr) ->
           let f = lower_tcode cv sparams ~sid ~nid ~visible ~scratch ~sel ~sel_digests expr in
           let s = Hashtbl.find slot_of o in
           Hashtbl.replace visible o s;
           (s, f))
         code.assignments)
  in
  (* output connectors resolve against assignment targets only: an out-edge
     from a pure input connector is a missing-value fault, as in eval_code *)
  let targets = Hashtbl.create 8 in
  List.iter (fun (o, _) -> Hashtbl.replace targets o ()) code.assignments;
  let writes =
    Array.of_list
      (List.filter_map
         (fun (e : State.edge) ->
           match (e.src_conn, e.memlet) with
           | Some conn, Some (m : Memlet.t) ->
               Some
                 {
                   wr_src =
                     (if Hashtbl.mem targets conn then Wslot (Hashtbl.find slot_of conn)
                      else
                        Wmissing
                          (Printf.sprintf "tasklet %d: no value for connector %s" nid conn));
                   wr_buf = bref cv m.data;
                   wr_sub = lower_subset cv sparams ~point:true m.subset;
                   wr_wcr = m.wcr;
                   wr_ctx = Printf.sprintf "tasklet %d output %s" nid conn;
                 }
           | _ -> None)
         (Tree.outs_of sc nid))
  in
  {
    t_host_fault = host_fault;
    t_reads = reads;
    t_assigns = assigns;
    t_writes = writes;
    t_scratch = scratch;
    t_sel = sel;
  }

let lib_conn cv sparams nid ~dir conn (m : Memlet.t) =
  Cok
    {
      c_buf = bref cv m.data;
      c_sub = lower_subset cv sparams ~point:false m.subset;
      c_wcr = m.wcr;
      c_ctx = Printf.sprintf "library node %d %s %s" nid dir conn;
    }

let lower_library cv sc ~gpu sparams nid (kind : Node.lib_kind) =
  let host_fault = if gpu then gpu_fault cv sc nid else None in
  let find_in conn =
    match
      List.find_opt
        (fun (e : State.edge) -> e.dst_conn = Some conn && e.memlet <> None)
        (Tree.ins_of sc nid)
    with
    | Some e -> lib_conn cv sparams nid ~dir:"input" conn (Option.get e.memlet)
    | None -> Cmissing (Printf.sprintf "library node %d: missing input %s" nid conn)
  in
  let find_out conn =
    match
      List.find_opt
        (fun (e : State.edge) -> e.src_conn = Some conn && e.memlet <> None)
        (Tree.outs_of sc nid)
    with
    | Some e -> lib_conn cv sparams nid ~dir:"output" conn (Option.get e.memlet)
    | None -> Cmissing (Printf.sprintf "library node %d: missing output %s" nid conn)
  in
  match kind with
  | Node.Mat_mul | Node.Batched_mat_mul ->
      {
        l_nid = nid;
        l_kind = kind;
        l_host_fault = host_fault;
        l_a = find_in "A";
        l_b = Some (find_in "B");
        l_out = find_out "C";
      }
  | Node.Reduce _ ->
      {
        l_nid = nid;
        l_kind = kind;
        l_host_fault = host_fault;
        l_a = find_in "in";
        l_b = None;
        l_out = find_out "out";
      }

let lower_copy cv sparams ~dst_data (src_m : Memlet.t) (dst_memlet : Memlet.t option) =
  let dst_m =
    match dst_memlet with
    | Some m -> Some m
    | None -> (
        match Graph.container_opt cv.cg dst_data with
        | Some (desc : Graph.datadesc) ->
            Some (Memlet.make dst_data (Symbolic.Subset.full desc.shape))
        | None -> None)
  in
  match dst_m with
  | None -> Copy_missing_desc
  | Some (dst_m : Memlet.t) ->
      Copy
        {
          cp_src = bref cv src_m.data;
          cp_ssub = lower_subset cv sparams ~point:false src_m.subset;
          cp_dst = bref cv dst_m.data;
          cp_dsub = lower_subset cv sparams ~point:false dst_m.subset;
          cp_wcr = dst_m.wcr;
          cp_ctx = Printf.sprintf "copy %s -> %s" src_m.data dst_m.data;
        }

let rec lower_members cv sc sid ~gpu sparams entry =
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
         | Node.Tasklet { code; _ } ->
             Some (Op_task (lower_tasklet cv sc sid ~gpu sparams nid code))
         | Node.Library { kind; _ } ->
             Some (Op_lib (lower_library cv sc ~gpu sparams nid kind))
         | Node.Map_entry info -> Some (Op_map (lower_map cv sc sid sparams nid info))
         | Node.Map_exit _ -> None)
       (Tree.direct_members sc entry))

and lower_map cv sc sid sparams nid (info : Node.map_info) =
  let gpu = info.schedule = Node.Gpu_device in
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
  let np = List.length info.params and nr = List.length info.ranges in
  let inner = List.rev (List.map2 (fun p s -> (p, s)) info.params (Array.to_list pslots)) in
  let body = lower_members cv sc sid ~gpu (inner @ sparams) (Some nid) in
  {
    m_nid = nid;
    m_cov =
      [|
        cov_digest (Cov_map { state = sid; node = nid; empty = false });
        cov_digest (Cov_map { state = sid; node = nid; empty = true });
      |];
    m_lranges = lranges;
    m_pslots = pslots;
    m_dmax = min np nr;
    m_arity_ok = np = nr;
    m_body = body;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* A tasklet read lands straight in the connector register file. Scalar and
   point memlets address the buffer in place; a validated scalar memlet
   names a scalar buffer. *)
let read_into rt scratch (r : task_read) =
  let b = getbuf rt r.rd_buf in
  match r.rd_sub with
  | Sscalar -> scratch.(r.rd_slot) <- b.data.(0)
  | Spoint { p_fs; p_at } -> scratch.(r.rd_slot) <- b.data.(point_offset rt b p_fs p_at r.rd_ctx)
  | ls ->
      let cs = concretize_sub rt ls in
      let values = try Value.read_subset b cs with e -> raise (oob_fault r.rd_ctx e) in
      if Array.length values <> 1 then
        raise
          (F
             (Invalid_graph
                (Printf.sprintf "%s: tasklet memlet must have volume 1 (got %d)" r.rd_ctx
                   (Array.length values))));
      scratch.(r.rd_slot) <- values.(0)

(* One element store at a checked offset, as Value.write_subset stores
   each element, after the write counter and injection: the WCR combine
   reads the old element, then the dtype cast. *)
let store rt (b : Value.buffer) off wcr v =
  let v = corrupt1 rt v in
  let v = match wcr with None -> v | Some wc -> Memlet.apply_wcr wc b.data.(off) v in
  b.data.(off) <- Value.cast b.desc.dtype v

let write_from rt scratch (w : task_write) =
  match w.wr_src with
  | Wmissing msg -> raise (F (Invalid_graph msg))
  | Wslot i -> (
      let b = getbuf rt w.wr_buf in
      match w.wr_sub with
      | Sscalar -> store rt b 0 w.wr_wcr scratch.(i)
      | Spoint { p_fs; p_at } ->
          let off = point_offset rt b p_fs p_at w.wr_ctx in
          store rt b off w.wr_wcr scratch.(i)
      | ls -> (
          let cs = concretize_sub rt ls in
          let values = corrupt_write rt [| scratch.(i) |] in
          try
            match w.wr_wcr with
            | None -> Value.write_subset b cs values
            | Some wc -> Value.accumulate_subset b cs wc values
          with e -> raise (oob_fault w.wr_ctx e)))

let exec_task rt (t : task_op) =
  (match t.t_host_fault with Some f -> raise (F f) | None -> ());
  tick rt;
  let scratch = t.t_scratch in
  let reads = t.t_reads and assigns = t.t_assigns and writes = t.t_writes in
  for k = 0 to Array.length reads - 1 do
    read_into rt scratch reads.(k)
  done;
  t.t_sel := 0;
  for k = 0 to Array.length assigns - 1 do
    let s, f = assigns.(k) in
    scratch.(s) <- f rt
  done;
  for k = 0 to Array.length writes - 1 do
    write_from rt scratch writes.(k)
  done

let lib_read rt = function
  | Cmissing msg -> raise (F (Invalid_graph msg))
  | Cok { c_buf; c_sub; c_ctx; _ } ->
      let b = getbuf rt c_buf in
      let cs = concretize_sub rt c_sub in
      (* counts before the read, matching the tree-walk's tuple order *)
      let counts = List.map Symbolic.Subset.crange_count cs in
      let values = try Value.read_subset b cs with e -> raise (oob_fault c_ctx e) in
      (values, counts)

let lib_write rt conn values =
  match conn with
  | Cmissing msg -> raise (F (Invalid_graph msg))
  | Cok { c_buf; c_sub; c_wcr; c_ctx } -> (
      let b = getbuf rt c_buf in
      let cs = concretize_sub rt c_sub in
      let values = corrupt_write rt values in
      try
        match c_wcr with
        | None -> Value.write_subset b cs values
        | Some w -> Value.accumulate_subset b cs w values
      with e -> raise (oob_fault c_ctx e))

let exec_lib rt (l : lib_op) =
  (match l.l_host_fault with Some f -> raise (F f) | None -> ());
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

let exec_copy rt = function
  | Copy_missing_desc -> raise Not_found (* Graph.container's failure, verbatim *)
  | Copy { cp_src; cp_ssub; cp_dst; cp_dsub; cp_wcr; cp_ctx } -> (
      let sb = getbuf rt cp_src in
      let db = getbuf rt cp_dst in
      let scs = concretize_sub rt cp_ssub in
      let dcs = concretize_sub rt cp_dsub in
      let values = try Value.read_subset sb scs with e -> raise (oob_fault cp_ctx e) in
      tick rt ~cost:(max 1 (Array.length values / 64));
      let values = corrupt_write rt values in
      try
        match cp_wcr with
        | None -> Value.write_subset db dcs values
        | Some w -> Value.accumulate_subset db dcs w values
      with e -> raise (oob_fault cp_ctx e))

let rec exec_op rt = function
  | Op_task t -> exec_task rt t
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
    if d = m.m_dmax then begin
      if m.m_arity_ok then
        for k = 0 to Array.length m.m_body - 1 do
          exec_op rt m.m_body.(k)
        done
      else
        raise
          (F (Invalid_graph (Printf.sprintf "map %d: params/ranges arity mismatch" m.m_nid)))
    end
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
    { cg = g; buf_idx; scalar_idx; slot_idx = Hashtbl.create 8; nparams = 0; guarded = [] }
  in
  let state_plans =
    Array.of_list
      (List.map
         (fun (sid, sc, out_edges) ->
           let ops = lower_members cv sc sid ~gpu:false [] None in
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
   order; then [lw], the lowering or the exception it raised, so a shape
   fault wins over that exception; then the slots the valuation sets. A
   guarded read of a set slot cannot fault, since nothing unsets a slot, so
   the hang proof's precondition needs every guarded slot set. *)
let bind containers lw ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  try
    let shapes =
      Array.map
        (fun (name, desc) ->
          try Value.concretize_shape env name desc with
          | Invalid_argument msg -> raise (F (Invalid_graph msg))
          | Symbolic.Expr.Unbound_symbol s ->
              raise (F (Runtime_error ("unbound symbol " ^ s ^ " in shape of " ^ name))))
        containers
    in
    let lw = match lw with Ok lw -> lw | Error e -> raise e in
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

(* [compile g] validates and lowers; the closure it returns binds. A graph
   that fails validation gets the same fault at every valuation. *)
let compile g =
  match Validate.check g with
  | e :: _ ->
      let fault = Invalid_graph (Format.asprintf "%a" Validate.pp_error e) in
      fun ~symbols:_ -> Error fault
  | [] ->
      let containers = Array.of_list (Graph.containers g) in
      let lw = try Ok (lower g containers) with e -> Error e in
      fun ~symbols -> bind containers lw ~symbols

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
      params = Array.make (max 1 lw.lw_nparams) 0;
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
    Memo.find_or_add c (d, List.sort compare symbols) (fun () -> compile g ~symbols)

  let stats = Memo.stats
end
