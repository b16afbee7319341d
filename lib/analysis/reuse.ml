open Sdfg

(* A structural key behind a deep hash: the polymorphic hash stops after
   ten words, and every key of one table shares its leading words. Lookups
   compare keys with [compare], which skips physically equal parts, so a
   copy's unchanged states compare in time linear in their node and edge
   counts. *)
let keyed k = (Hashtbl.hash_param 256 256 k, k)

(* A state's content: its id, label, nodes and edges. The node, edge and
   container values are the graph's own, shared by its copies, so a key
   costs its list spines. *)
type content = int * string * (int * Node.t) list * State.edge list

let content sid st : content = (sid, State.label st, State.nodes st, State.edges st)

type containers = (string * Graph.datadesc) list

(* A whole program under a concretization: everything its canonical text
   holds, plus the sorted valuation. *)
type program =
  string
  * (string * int) list
  * string list
  * containers
  * content list
  * Graph.istate_edge list
  * int

let program ~symbols g : program =
  ( Graph.name g,
    List.sort compare symbols,
    Graph.symbols g,
    Graph.containers g,
    List.map (fun (sid, st) -> content sid st) (Graph.states g),
    Graph.istate_edges g,
    Graph.start_state g )

type 'b t = {
  baselines : (int * program, 'b) Memo.t;
  checks :
    (int * ((bool * string * containers) * content), Report.finding list * Races.stats) Memo.t;
  accesses : (int * (containers * content), Propagate.access list) Memo.t;
  deps : Deps.memo;
}

(* entries per table: a program version holds its whole program in its key;
   a CLOUDSC side adds 11 states *)
let create () =
  {
    baselines = Memo.create ();
    checks = Memo.create ~capacity:4096 ();
    accesses = Memo.create ~capacity:4096 ();
    deps = Deps.create_memo ();
  }

let baseline (m : _ t) ~symbols g f = Memo.find_or_add m.baselines (keyed (program ~symbols g)) f

type stats = {
  baselines : int * int;
  checks : int * int;
  accesses : int * int;
  deps : int * int;
}

let stats (m : _ t) =
  {
    baselines = Memo.stats m.baselines;
    checks = Memo.stats m.checks;
    accesses = Memo.stats m.accesses;
    deps = Deps.memo_stats m.deps;
  }

let checks memo ~carried ctx g f =
  match memo with
  | None -> f
  | Some (m : _ t) ->
      let side = (carried, Context.to_string ctx, Graph.containers g) in
      fun sid st -> Memo.find_or_add m.checks (keyed (side, content sid st)) (fun () -> f sid st)

let accesses memo g =
  match memo with
  | None -> fun _ st -> Propagate.state_accesses g st
  | Some (m : _ t) ->
      let containers = Graph.containers g in
      fun sid st ->
        Memo.find_or_add m.accesses (keyed (containers, content sid st)) (fun () ->
            Propagate.state_accesses g st)

let deps memo = Option.map (fun (m : _ t) -> m.deps) memo
