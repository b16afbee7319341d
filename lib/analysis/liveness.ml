open Sdfg

(* Backward container liveness over the interstate CFG. The fact is the set
   of containers whose current contents may still be read on some path to
   program exit. Writes never kill: a memlet write covers a subset of the
   container, so the rest survives — the analysis is subset-oblivious and
   conservative. *)

let union a b = List.sort_uniq compare (a @ b)

let lattice =
  { Fixpoint.bottom = []; equal = ( = ); join = union; widen = None }

let solve g =
  let state_reads = Hashtbl.create 16 in
  List.iter
    (fun (sid, st) -> Hashtbl.replace state_reads sid (List.map fst (fst (Propagate.state_rw st))))
    (Graph.states g);
  Fixpoint.solve ~direction:Fixpoint.Backward ~lattice ~init:[]
    ~transfer:(fun sid live ->
      union (Option.value ~default:[] (Hashtbl.find_opt state_reads sid)) live)
    ~edge:(fun e live -> union (Propagate.interstate_reads g e) live)
    g

(* Dead cross-state writes: transient [c] is written in state [sid], its
   contents are not live when the state completes, and [sid] itself never
   reads [c] (an in-state read could precede the write — subset-oblivious
   ordering makes that indistinguishable, so we stay quiet). Containers never
   read anywhere are {!Defuse}'s finding, not ours. *)
let dead_writes g =
  let sol = solve g in
  let read_somewhere = Propagate.program_reads g in
  List.concat_map
    (fun (sid, st) ->
      let reads, writes = Propagate.state_rw st in
      let reads = List.map fst reads and writes = List.map fst writes in
      let live_out = Option.value ~default:[] (Fixpoint.entry_fact sol sid) in
      List.filter_map
        (fun c ->
          match Graph.container_opt g c with
          | Some d
            when d.transient
                 && (not (List.mem c live_out))
                 && (not (List.mem c reads))
                 && List.mem c read_somewhere ->
              Some (sid, c)
          | _ -> None)
        (List.sort_uniq compare writes))
    (Graph.states g)
  |> List.sort_uniq compare

(* Transient containers all of whose writes are dead — removable wholesale,
   the first reduction step for corpus minimization. *)
let dead_containers g =
  let dead = dead_writes g in
  let written_states c =
    List.filter_map
      (fun (sid, st) ->
        if List.mem_assoc c (snd (Propagate.state_rw st)) then Some sid else None)
      (Graph.states g)
  in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if not d.transient then None
      else
        match written_states c with
        | [] -> None
        | ws when List.for_all (fun sid -> List.mem (sid, c) dead) ws -> Some c
        | _ -> None)
    (Graph.containers g)

let check g =
  List.map
    (fun (sid, c) ->
      let node =
        match Sdfg.State.access_nodes (Graph.state g sid) c with n :: _ -> n | [] -> -1
      in
      Report.make ~pass:Report.Dead_write ~severity:Report.Warning ~state:sid ~node
        ~container:c
        "write is dead: contents are not read by this state or any later state")
    (dead_writes g)
