open Sdfg

let default_symbols = [ ("LROWS", 4); ("NCOLS", 6); ("K", 3) ]

let rank_program () =
  let g = Graph.create "sddmm_rank" in
  List.iter (Graph.add_symbol g) [ "LROWS"; "NCOLS"; "K" ];
  let lr = Symbolic.Expr.sym "LROWS"
  and nc = Symbolic.Expr.sym "NCOLS"
  and k = Symbolic.Expr.sym "K" in
  Graph.add_array g "H1" Dtype.F64 [ lr; k ];
  Graph.add_array g "H2" Dtype.F64 [ nc; k ];
  Graph.add_array g "mask" Dtype.F64 [ lr; nc ];
  Graph.add_array g "values" Dtype.F64 [ lr; nc ];
  let sid = Graph.add_state g "sddmm" in
  let st = Graph.state g sid in
  let mem = Builder.Build.mem in
  let m =
    Builder.Build.mapped_tasklet g st ~label:"sddmm" ~schedule:Node.Parallel
      ~map:[ ("i", "0:LROWS-1"); ("j", "0:NCOLS-1"); ("kk", "0:K-1") ]
      ~inputs:
        [
          ("h1", mem "H1" "i, kk");
          ("h2", mem "H2" "j, kk");
          ("mv", mem "mask" "i, j");
        ]
      ~code:"o = mv * h1 * h2"
      ~outputs:[ ("o", mem ~wcr:Memlet.Wcr_sum "values" "i, j") ]
      ()
  in
  (g, sid, m.entry)

let reference ~rows ~cols ~k ~h1 ~h2 ~mask =
  let out = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let acc = ref 0. in
      for kk = 0 to k - 1 do
        acc := !acc +. (h1.((i * k) + kk) *. h2.((j * k) + kk))
      done;
      out.((i * cols) + j) <- mask.((i * cols) + j) *. !acc
    done
  done;
  out

let distributed ~ranks ~rows ~cols ~k ~h1 ~h2 ~mask =
  if rows mod ranks <> 0 then invalid_arg "Sddmm.distributed: rows must divide by ranks";
  let comm = Mpi_sim.Mpi.create ranks in
  let lrows = rows / ranks in
  (* scatter H1 row blocks *)
  let h1_local = Array.init ranks (fun _ -> Array.make (lrows * k) 0.) in
  Mpi_sim.Mpi.scatter comm ~root:0 ~src:h1 h1_local;
  (* broadcast H2 (root owns it) *)
  let h2_local = Array.init ranks (fun r -> if r = 0 then Array.copy h2 else Array.make (cols * k) 0.) in
  Mpi_sim.Mpi.bcast comm ~root:0 h2_local;
  (* scatter the mask row blocks *)
  let mask_local = Array.init ranks (fun _ -> Array.make (lrows * cols) 0.) in
  Mpi_sim.Mpi.scatter comm ~root:0 ~src:mask mask_local;
  (* each rank computes its block with the interpreter *)
  let prog, _, _ = rank_program () in
  let global = Array.init ranks (fun _ -> Array.make (rows * cols) 0.) in
  for r = 0 to ranks - 1 do
    match
      Interp.Exec.run prog
        ~symbols:[ ("LROWS", lrows); ("NCOLS", cols); ("K", k) ]
        ~inputs:
          [
            ("H1", h1_local.(r));
            ("H2", h2_local.(r));
            ("mask", mask_local.(r));
            ("values", Array.make (lrows * cols) 0.);
          ]
    with
    | Ok o ->
        let v = Interp.Value.buffer o.memory "values" in
        (* place the local block into the rank's zero-padded global view *)
        Array.blit v.data 0 global.(r) (r * lrows * cols) (lrows * cols)
    | Error f -> failwith ("sddmm rank failed: " ^ Interp.Exec.fault_to_string f)
  done;
  (* allreduce: every rank ends with the assembled result *)
  Mpi_sim.Mpi.allreduce_sum comm global;
  global.(0)
