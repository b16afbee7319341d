(* Hand-built loops for the hang-proof parity cases in test_plan and
   test_kernel. Each is a Builder.Build.for_loop over the symbol i. *)

open Sdfg

let se = Symbolic.Expr.sym
let mem = Builder.Build.mem

(* A loop whose guard always holds, updating i by [update]. The body holds a
   map over [range] (which reads i), a 4x4 MatMul (a 64-step tick) and a
   128-element copy (a 2-step tick), so ticks are coarse and a step limit
   can fall anywhere inside an iteration. *)
let forever_states ~name ~update ~range =
  let g = Graph.create name in
  let int = Symbolic.Expr.int in
  Graph.add_array g "x" Dtype.F64 [ int 3 ];
  List.iter (fun c -> Graph.add_array g c Dtype.F64 [ int 4; int 4 ]) [ "A"; "B"; "C" ];
  List.iter (fun c -> Graph.add_array g c Dtype.F64 [ int 128 ]) [ "src"; "dst" ];
  let s0 = Graph.add_state g "init" in
  let _, body, after =
    Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
      ~cond:(Symbolic.Cond.Ge (se "i", Symbolic.Expr.zero))
      ~update ~body_label:"body" ~after_label:"after"
  in
  let st = Graph.state g body in
  ignore
    (Builder.Build.mapped_tasklet g st ~label:"bump"
       ~map:[ ("k", range) ]
       ~inputs:[ ("v", mem "x" "k") ]
       ~code:"o = v * 0.5 + 1.0"
       ~outputs:[ ("o", mem "x" "k") ]
       ());
  ignore
    (Builder.Build.library g st ~label:"mm" ~kind:Node.Mat_mul
       ~inputs:[ ("A", mem "A" "0:3, 0:3"); ("B", mem "B" "0:3, 0:3") ]
       ~outputs:[ ("C", mem "C" "0:3, 0:3") ]
       ());
  ignore (Builder.Build.copy g st ~src:"src" ~dst:"dst" ());
  (g, body, after)

let forever ~name ~update ~range =
  let g, _, _ = forever_states ~name ~update ~range in
  g

(* i runs 0, 1, 2, 0, ... and the map covers 0:i. An iteration costs
   71 + i steps: guard 1, body 1, i + 1 tasklets, MatMul 1 + 64, copy 2,
   update 1. *)
let periodic_update =
  Symbolic.Expr.Mod (Symbolic.Expr.add (se "i") Symbolic.Expr.one, Symbolic.Expr.int 3)

let periodic () = forever ~name:"periodic" ~update:periodic_update ~range:"0:i"

let period = 71 + 72 + 73

(* Dimensioned subsets per period: 2 per map iteration (1 + 2 + 3 of them),
   3 per MatMul and 2 per copy. *)
let subsets_per_period = (2 * 6) + (3 * 3) + (2 * 3)

(* i = i + 1: the same body over 0:i%3, but i never repeats, so the run is
   never proved and burns its whole step limit. *)
let unbounded () =
  forever ~name:"unbounded" ~update:(Symbolic.Expr.add (se "i") Symbolic.Expr.one) ~range:"0:i%3"

(* Exits once the scalar container count, which the body increments,
   reaches 5. i alternates 0, 1, so the guard's symbol values repeat every
   two iterations while the container makes progress: only the static
   precondition (no interstate expression reads a container) keeps this run
   from being proved a hang. *)
let counter_exit () =
  let g = Graph.create "counter_exit" in
  Graph.add_scalar g "count" Dtype.F64;
  let s0 = Graph.add_state g "init" in
  let _, body, _ =
    Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
      ~cond:(Symbolic.Cond.Lt (se "count", Symbolic.Expr.int 5))
      ~update:
        (Symbolic.Expr.Mod (Symbolic.Expr.add (se "i") Symbolic.Expr.one, Symbolic.Expr.int 2))
      ~body_label:"bump" ~after_label:"after"
  in
  ignore
    (Builder.Build.mapped_tasklet g (Graph.state g body) ~label:"inc"
       ~inputs:[ ("c", mem "count" "") ]
       ~code:"o = c + 1.0"
       ~outputs:[ ("o", mem "count" "") ]
       ());
  g

(* The periodic loop plus a tasklet that reads [name] under a Select branch
   taken only once y[0], bumped each iteration, passes 20. [name] cannot be
   read: "ghost" is bound nowhere, and "j" is a dynamic symbol assigned only
   on an edge past the loop. So the full run faults as an invalid graph some
   20 iterations in, long after the loop first repeats its symbol values:
   a fault that depends on data keeps the proof off. *)
let guarded_fault name =
  let g, body, after = forever_states ~name:"guarded_fault" ~update:periodic_update ~range:"0:i" in
  Graph.add_array g "y" Dtype.F64 [ Symbolic.Expr.int 1 ];
  let past = Graph.add_state g "past" in
  ignore (Graph.add_istate_edge g ~assigns:[ ("j", Symbolic.Expr.one) ] after past);
  ignore
    (Builder.Build.mapped_tasklet g (Graph.state g body) ~label:"guard"
       ~inputs:[ ("v", mem "y" "0") ]
       ~code:(Printf.sprintf "o = select(v > 20.0, %s, v + 1.0)" name)
       ~outputs:[ ("o", mem "y" "0") ]
       ());
  g
