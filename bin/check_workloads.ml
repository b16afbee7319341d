(* Validates and executes every workload once; prints per-workload status. *)

let symbols_for name =
  match name with
  | "bert_encoder" -> Workloads.Bert.default_symbols
  | "cloudsc_synth" -> Workloads.Cloudsc.default_symbols
  | "sddmm_rank" -> Workloads.Sddmm.default_symbols
  | _ -> [ ("N", 8); ("T", 3) ]

let check (name, g) =
  match Sdfg.Validate.check g with
  | e :: _ ->
      Format.printf "%-16s VALIDATE FAIL: %a@." name Sdfg.Validate.pp_error e;
      false
  | [] -> (
      let symbols =
        List.filter
          (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g))
          (symbols_for (Sdfg.Graph.name g))
      in
      let env = Symbolic.Expr.Env.of_list symbols in
      let inputs =
        List.filter_map
          (fun (c, (d : Sdfg.Graph.datadesc)) ->
            if d.transient then None
            else
              let n =
                List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape
              in
              Some (c, Array.init n (fun i -> 0.01 *. float_of_int (i mod 17) +. 0.5)))
          (Sdfg.Graph.containers g)
      in
      match Interp.Exec.run g ~symbols ~inputs with
      | Ok o ->
          Format.printf "%-16s ok (%d steps, %d syms, %d containers)@." name o.steps
            (List.length symbols)
            (List.length (Sdfg.Graph.containers g));
          true
      | Error f ->
          Format.printf "%-16s RUN FAIL: %a@." name Interp.Exec.pp_fault f;
          false)

let () =
  let workloads =
    Workloads.Npbench.all ()
    @ [
        ("bert", Workloads.Bert.build ());
        ("cloudsc", Workloads.Cloudsc.build ());
        ("fig4", Workloads.Fig4.build ());
        ("sddmm", (let g, _, _ = Workloads.Sddmm.rank_program () in g));
      ]
  in
  let ok = List.for_all Fun.id (List.map check workloads) in
  (* distributed sddmm vs reference *)
  let rows = 8 and cols = 6 and k = 3 in
  let rng = ref 1 in
  let rand () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int (!rng mod 1000) /. 500.0 -. 1.0
  in
  let h1 = Array.init (rows * k) (fun _ -> rand ()) in
  let h2 = Array.init (cols * k) (fun _ -> rand ()) in
  let mask = Array.init (rows * cols) (fun i -> if i mod 3 = 0 then 1. else 0.) in
  let dist = Workloads.Sddmm.distributed ~ranks:4 ~rows ~cols ~k ~h1 ~h2 ~mask in
  let refr = Workloads.Sddmm.reference ~rows ~cols ~k ~h1 ~h2 ~mask in
  let close = Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) dist refr in
  Printf.printf "sddmm distributed vs reference: %s\n" (if close then "ok" else "MISMATCH");
  if not (ok && close) then exit 1;
  print_endline "ALL WORKLOADS OK"
