open Symbolic
open Sdfg

(* Symbolic whole-program footprint check. Bounds samples concretized
   per-state subsets under one valuation; this pass instead takes the fully
   propagated summary and proves, per dimension, that a container's combined
   read/write footprint escapes its shape for *every* admissible symbol value
   (program sizes are at least 1, caller-pinned symbols are exact). Only
   provable escapes are reported, so the pass is silent on anything it cannot
   decide. *)

let check_summary g bounds (summary : Propagate.summary) =
  let check_set label (c, sub) =
    match Graph.container_opt g c with
    | Some desc when desc.shape <> [] && List.length desc.shape = List.length sub ->
        List.concat
          (List.map2
             (fun (r : Subset.range) d ->
               let nonempty = Expr.compare_under bounds r.lo r.hi = `Le in
               let below = Expr.compare_under bounds r.lo (Expr.int (-1)) = `Le in
               let above = Expr.compare_under bounds d r.hi = `Le in
               if nonempty && (below || above) then
                 [
                   Report.make ~pass:Report.Footprint ~severity:Report.Error
                     ~container:c
                     ~subsets:[ Subset.to_string sub ]
                     (Printf.sprintf
                        "propagated %s footprint %s escapes shape dimension %s %s"
                        label
                        (Subset.to_string [ r ])
                        (Expr.to_string d)
                        (if below then "(below 0)" else "(at or past the end)"));
                 ]
               else [])
             sub desc.shape)
    | _ -> []
  in
  List.concat_map (check_set "read") summary.reads
  @ List.concat_map (check_set "write") summary.writes

let check ?memo ?(symbols = []) g =
  let declared = Graph.symbols g in
  let bounds s =
    match List.assoc_opt s symbols with
    | Some v -> (Some v, Some v)
    | None -> if List.mem s declared then (Some 1, None) else (None, None)
  in
  check_summary g bounds (Propagate.summarize ~bounds ~accesses:(Reuse.accesses memo g) g)
