open Sdfg

(* Subset-level refinement of the use-before-def check: a transient with some
   read element provably outside the propagated write set is read
   uninitialized — the signature of a write set shrunk by a widened stride or
   a shifted subset, invisible to the name-level check above.

   Reads are checked per access, not as the whole-container union: a single
   affine access widens exactly through its scope chain, where the union of
   several offset accesses (an enclosing box) would over-approximate and
   fabricate gaps. WCR accumulations are exempt on the read side — they read
   exactly the elements they write. Every declared symbol is pinned to the
   reference concretization (the caller's, defaulting to size 8), so the
   witness valuation replays directly and degenerate-size propagation
   artifacts cannot report; the witness element must additionally be an
   in-shape index of the container under that valuation. *)
let coverage_default_size = 8

let check_coverage ?memo ?(symbols = []) g =
  let declared =
    let shape_syms =
      List.concat_map
        (fun (_, (d : Graph.datadesc)) -> List.concat_map Symbolic.Expr.free_syms d.shape)
        (Graph.containers g)
    in
    List.sort_uniq compare (Graph.symbols g @ shape_syms @ List.map fst symbols)
  in
  let valuation =
    List.map
      (fun s ->
        ( s,
          match List.assoc_opt s symbols with
          | Some v -> v
          | None -> coverage_default_size ))
      declared
  in
  let bounds s = if List.mem s declared then (Some 1, None) else (None, None) in
  let state_accesses = Reuse.accesses memo g in
  match Propagate.summarize ~bounds ~accesses:state_accesses g with
  | exception _ -> []
  | su ->
      (* in state order, and only if some transient gets this far *)
      let accesses =
        lazy (List.concat_map (fun (sid, st) -> state_accesses sid st) (Graph.states g))
      in
      let read_accesses c =
        List.filter_map
          (fun (a : Propagate.access) ->
            if a.Propagate.container = c && a.Propagate.kind = Propagate.Read then
              Some a.Propagate.subset
            else None)
          (Lazy.force accesses)
      in
      let env = Symbolic.Expr.Env.of_list valuation in
      let in_shape (d : Graph.datadesc) el =
        List.length el = List.length d.shape
        && List.for_all2
             (fun e dim ->
               match Symbolic.Expr.eval env dim with
               | n -> e >= 0 && e < n
               | exception _ -> false)
             el d.shape
      in
      let param_only sub =
        List.for_all (fun s -> List.mem s declared) (Symbolic.Subset.free_syms sub)
      in
      List.filter_map
        (fun (c, (d : Graph.datadesc)) ->
          if not d.transient then None
          else
            match List.assoc_opt c su.Propagate.writes with
            | Some w when param_only w ->
                List.find_map
                  (fun r ->
                    if not (param_only r) then None
                    else
                      match
                        Deps.uncovered ?memo:(Reuse.deps memo) ~bounds ~symbols:valuation r w
                      with
                      | Some (va, el) when in_shape d el ->
                          Some
                            (Report.make ~pass:Report.Use_before_def
                               ~severity:Report.Error ~container:c
                               (Printf.sprintf
                                  "transient read %s exceeds the write set %s: element \
                                   [%s] is read but never written under {%s}"
                                  (Symbolic.Subset.to_string r)
                                  (Symbolic.Subset.to_string w)
                                  (String.concat "," (List.map string_of_int el))
                                  (String.concat ", "
                                     (List.map
                                        (fun (s, v) -> Printf.sprintf "%s=%d" s v)
                                        va))))
                      | _ -> None)
                  (read_accesses c)
            | _ -> None)
        (Graph.containers g)

let check g =
  let rs = Propagate.program_reads g and ws = Propagate.program_writes g in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if not d.transient then None
      else if List.mem c rs && not (List.mem c ws) then
        Some
          (Report.make ~pass:Report.Use_before_def ~severity:Report.Error ~container:c
             "transient container is read but never written (uninitialized data)")
      else if List.mem c ws && not (List.mem c rs) then
        Some
          (Report.make ~pass:Report.Dead_write ~severity:Report.Warning ~container:c
             "transient container is written but never read")
      else None)
    (Graph.containers g)
