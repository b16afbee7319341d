let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let node_attrs = function
  | Node.Access _ -> "shape=ellipse"
  | Node.Tasklet _ -> "shape=octagon"
  | Node.Map_entry _ -> "shape=trapezium"
  | Node.Map_exit _ -> "shape=invtrapezium"
  | Node.Library _ -> "shape=box3d"

let state_body buf g sid =
  let st = Graph.state g sid in
  List.iter
    (fun (id, n) ->
      Buffer.add_string buf
        (Printf.sprintf "    s%d_n%d [label=\"%s\", %s];\n" sid id
           (escape (Node.to_string n)) (node_attrs n)))
    (State.nodes st);
  List.iter
    (fun (e : State.edge) ->
      let lbl =
        match e.memlet with
        | None -> ""
        | Some m -> escape (Memlet.to_string m)
      in
      Buffer.add_string buf
        (Printf.sprintf "    s%d_n%d -> s%d_n%d [label=\"%s\"];\n" sid e.src sid e.dst lbl))
    (State.edges st)

let to_dot g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  compound=true;\n" (escape (Graph.name g)));
  List.iter
    (fun (sid, st) ->
      Buffer.add_string buf
        (Printf.sprintf "  subgraph cluster_s%d {\n    label=\"%s\";\n" sid (escape (State.label st)));
      state_body buf g sid;
      (* anchor for interstate edges *)
      Buffer.add_string buf (Printf.sprintf "    s%d_anchor [shape=point, style=invis];\n" sid);
      Buffer.add_string buf "  }\n")
    (Graph.states g);
  List.iter
    (fun (e : Graph.istate_edge) ->
      let lbl =
        let c = Symbolic.Cond.to_string e.cond in
        let a =
          String.concat "; "
            (List.map (fun (s, rhs) -> s ^ " = " ^ Symbolic.Expr.to_string rhs) e.assigns)
        in
        escape (if a = "" then c else c ^ " / " ^ a)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  s%d_anchor -> s%d_anchor [ltail=cluster_s%d, lhead=cluster_s%d, label=\"%s\"];\n"
           e.src e.dst e.src e.dst lbl))
    (Graph.istate_edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
