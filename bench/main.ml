(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation on this repository's substrate.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig3    -- one experiment
       (table1 fig3 fig4 bert speedup fuzzmodes sddmm table2 cloudsc
        ablation equiv analysis deps engine micro interp)

   Absolute numbers differ from the paper (interpreter vs generated C++);
   the *shapes* — who wins, by what factor, where input reductions land —
   are the reproduction target. EXPERIMENTS.md records both. *)

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let default_inputs g ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.filter_map
    (fun (c, (d : Sdfg.Graph.datadesc)) ->
      if d.transient then None
      else
        let n = List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape in
        Some (c, Array.init n (fun i -> (0.05 *. float_of_int ((i * 13 mod 31) - 15)) +. 0.5)))
    (Sdfg.Graph.containers g)

(* ------------------------------------------------------------------ *)
(* Table 1: requirements for localized optimization testing            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: requirements for localized optimization testing";
  print_string (Fuzzyflow.Requirements.to_table ());
  Printf.printf "parametric dataflow uniquely satisfies all requirements: %b\n"
    (Fuzzyflow.Requirements.parametric_dataflow_is_complete ())

(* ------------------------------------------------------------------ *)
(* Figs. 2-3: the off-by-one tiling bug on the matrix chain            *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Figs. 2-3: off-by-one tiling of the matrix chain";
  let g, sid, mm2 = Workloads.Chain.build_with_site () in
  let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile mm2" in
  Printf.printf "%-6s %-12s %-28s %-28s\n" "N" "variant" "cutout verdict" "whole-program verdict";
  List.iter
    (fun n ->
      List.iter
        (fun (vname, variant) ->
          let x = Transforms.Map_tiling.make ~tile_size:3 variant in
          let config =
            {
              Fuzzyflow.Difftest.default_config with
              trials = 10;
              max_size = n;
              concretization = [ ("N", n) ];
            }
          in
          let r, t_cut = time (fun () -> Fuzzyflow.Difftest.test_instance ~config g x site) in
          let w, t_whole = time (fun () -> Fuzzyflow.Difftest.test_whole_program ~config g x site) in
          let verdict = function
            | Fuzzyflow.Difftest.Pass -> "PASS"
            | Fuzzyflow.Difftest.Fail f -> "FAIL (" ^ Fuzzyflow.Difftest.class_to_string f.klass ^ ")"
          in
          Printf.printf "%-6d %-12s %-28s %-28s\n" n vname
            (Printf.sprintf "%s %.0fms" (verdict r.verdict) (1000. *. t_cut))
            (Printf.sprintf "%s %.0fms" (verdict (fst w)) (1000. *. t_whole)))
        [ ("correct", Transforms.Map_tiling.Correct); ("off-by-one", Transforms.Map_tiling.Off_by_one) ])
    [ 8; 16 ];
  let cut =
    Fuzzyflow.Cutout.extract_dataflow
      ~options:{ Fuzzyflow.Cutout.symbols = [ ("N", 8) ] }
      g ~state:sid ~nodes:[ mm2 ]
  in
  Format.printf "Fig. 3 cutout: %a@." Fuzzyflow.Cutout.pp cut;
  Printf.printf "paper: cutout = second multiplication, inputs {N, C, U}, system state {V}\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4: minimum input-flow cut on the f/g/h chain                   *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Fig. 4: minimum input-flow cut";
  let g, sid, seed = Workloads.Fig4.build_with_seed () in
  List.iter
    (fun n ->
      let symbols = [ ("N", n) ] in
      let cut =
        Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } g ~state:sid
          ~nodes:seed
      in
      let cut', stats = Fuzzyflow.Min_cut.minimize g cut ~symbols in
      Printf.printf
        "N=%-5d inputs {%s} = %d elements  ->  {%s} = %d elements (cut value %s)\n" n
        (String.concat "," cut.input_config)
        stats.original_elements
        (String.concat "," cut'.input_config)
        stats.minimized_elements
        (Flownet.Cap.to_string stats.cut_value))
    [ 16; 64; 256 ];
  Printf.printf "paper: {y, z} -> {x}, halving the input space\n"

(* ------------------------------------------------------------------ *)
(* Sec 6.1 / Fig. 5: BERT input-space reduction                        *)
(* ------------------------------------------------------------------ *)

let bert () =
  header "Sec. 6.1 / Fig. 5: BERT MHA input-space reduction";
  let g, sid, scaling = Workloads.Bert.build_with_site () in
  List.iter
    (fun (label, symbols) ->
      let cut =
        Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } g ~state:sid
          ~nodes:[ scaling ]
      in
      let cut', stats = Fuzzyflow.Min_cut.minimize g cut ~symbols in
      Printf.printf "%-28s {%s} = %7d elements -> {%s} = %7d (%.0f%% reduction)\n" label
        (String.concat "," cut.input_config)
        stats.original_elements
        (String.concat "," cut'.input_config)
        stats.minimized_elements
        (100. *. (1. -. (float_of_int stats.minimized_elements /. float_of_int stats.original_elements))))
    [
      ("paper shape (P = SM/8)", Workloads.Bert.default_symbols);
      ("larger (B=4 H=4 SM=64 P=8)", [ ("B", 4); ("H", 4); ("SM", 64); ("P", 8) ]);
    ];
  Printf.printf "paper: {tmp, scale} -> {A, B, scale}, 75%% input reduction\n"

(* ------------------------------------------------------------------ *)
(* Sec 6.1: testing-speedup and sampling-speedup shapes                *)
(* ------------------------------------------------------------------ *)

let speedup () =
  header "Sec. 6.1: cutout testing speedup vs whole-application runs";
  (* 48 encoder passes ~ BERT-large's 24 layers, forward + backward. The
     deep graph prices whole-application runs; cutout analyses use the
     single-layer graph (inside the layer loop, the attention scores are
     loop-carried, so the min-cut rightly refuses to drop them — see the
     min_cut tests). *)
  let layers = 48 in
  let g_app, _asid, _ = Workloads.Bert.build_with_site ~layers () in
  let g, _sid, scaling = Workloads.Bert.build_with_site () in
  let symbols = Workloads.Bert.default_symbols in
  let inputs = default_inputs g_app ~symbols in
  (* whole-application run time *)
  let _, t_app =
    time (fun () ->
        match Interp.Exec.run g_app ~symbols ~inputs with
        | Ok _ -> ()
        | Error f -> failwith (Interp.Exec.fault_to_string f))
  in
  Printf.printf "whole application (%d encoder passes): %.1f ms per run\n" layers (1000. *. t_app);
  (* fuzzing-trial rate on the scaling-nest cutout, with and without min-cut *)
  let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Correct in
  let site =
    List.find (fun (s : Transforms.Xform.site) -> s.nodes = [ scaling ]) (x.find g)
  in
  List.iter
    (fun (label, use_min_cut) ->
      let config =
        {
          Fuzzyflow.Difftest.default_config with
          trials = 40;
          concretization = symbols;
          custom_constraints =
            List.map (fun (s, v) -> (s, (v, v))) symbols;
          use_min_cut;
        }
      in
      let r, t = time (fun () -> Fuzzyflow.Difftest.test_instance ~config g x site) in
      let per_trial = t /. float_of_int r.trials_run in
      Printf.printf
        "cutout trials (%-11s): %.2f ms/trial = %.1f trials/s -> %.0fx faster than app runs\n"
        label (1000. *. per_trial)
        (1. /. per_trial)
        (t_app /. per_trial))
    [ ("min-cut off", false); ("min-cut on", true) ];
  (* the paper's 2x sampling speedup: time to sample one input configuration
     before and after the min-cut *)
  (* measure at a larger sequence length so array filling dominates the
     fixed per-trial overhead (the paper's BERT-large is larger still) *)
  let big_symbols = [ ("B", 2); ("H", 2); ("SM", 128); ("P", 16) ] in
  let sample_time (cut : Fuzzyflow.Cutout.t) =
    let constraints =
      Fuzzyflow.Constraints.derive
        ~custom:(List.map (fun (s, v) -> (s, (v, v))) big_symbols)
        ~original:g cut
    in
    let rng = Fuzzyflow.Sampler.create 1 in
    (* warm up, then measure input sampling under fixed symbol values *)
    ignore (Fuzzyflow.Sampler.sample_inputs rng constraints cut ~symbols:big_symbols);
    let reps = 500 in
    let _, t =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Fuzzyflow.Sampler.sample_inputs rng constraints cut ~symbols:big_symbols)
          done)
    in
    t /. float_of_int reps
  in
  let cut =
    Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } g ~state:_sid
      ~nodes:[ scaling ]
  in
  let cut', _ = Fuzzyflow.Min_cut.minimize g cut ~symbols in
  let t_before = sample_time cut and t_after = sample_time cut' in
  Printf.printf "input sampling: %.1f us before min-cut, %.1f us after (%.1fx faster)\n"
    (1e6 *. t_before) (1e6 *. t_after) (t_before /. t_after);
  Printf.printf
    "note: the min-cut trades sampling volume for recomputation (Sec. 4); under an\n\
     interpreter the recomputed contraction costs relatively more than under MKL,\n\
     so per-trial time favors the unminimized cutout here while sampling and\n\
     coverage favor the minimized one\n";
  Printf.printf "paper: 43.7 trials/s, 528x faster than whole-application testing,\n";
  Printf.printf "       2x faster input sampling after the min-cut reduction\n"

(* ------------------------------------------------------------------ *)
(* Sec 6.1: fuzzing strategies (AFL-style vs gray-box)                 *)
(* ------------------------------------------------------------------ *)

let fuzzmodes () =
  header "Sec. 6.1: trials to discover the size-dependent vectorization bug";
  let g, _, scaling = Workloads.Bert.build_with_site () in
  let symbols = Workloads.Bert.default_symbols in
  let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
  let site =
    List.find (fun (s : Transforms.Xform.site) -> s.nodes = [ scaling ]) (x.find g)
  in
  let g' = Sdfg.Graph.copy g in
  let cs = x.apply g' site in
  let cut = Fuzzyflow.Cutout.extract ~options:{ Fuzzyflow.Cutout.symbols } g cs in
  let transformed = Sdfg.Graph.copy cut.program in
  ignore (x.apply transformed site);
  let seeds = List.init 25 (fun i -> i + 1) in
  List.iter
    (fun mode ->
      let found = ref [] and missed = ref 0 and crashes = ref 0 and total = ref 0 in
      List.iter
        (fun seed ->
          let r =
            Fuzzyflow.Fuzzer.run
              ~config:{ Fuzzyflow.Fuzzer.default_config with seed; max_trials = 500 }
              mode ~original:g ~cutout:cut ~transformed
          in
          crashes := !crashes + r.uninteresting_crashes;
          total := !total + r.trials_run;
          match r.trials_to_failure with
          | Some t -> found := t :: !found
          | None -> incr missed)
        seeds;
      let mean =
        if !found = [] then Float.nan
        else float_of_int (List.fold_left ( + ) 0 !found) /. float_of_int (List.length !found)
      in
      Printf.printf
        "%-16s mean trials to discovery %5.1f (max %3d, %d/%d seeds; %.0f%% trials wasted on crashes)\n"
        (Fuzzyflow.Fuzzer.mode_to_string mode)
        mean
        (List.fold_left max 0 !found)
        (List.length !found) (List.length seeds)
        (100. *. float_of_int !crashes /. float_of_int (max 1 !total)))
    [ Fuzzyflow.Fuzzer.Uniform; Fuzzyflow.Fuzzer.Coverage; Fuzzyflow.Fuzzer.Graybox ];
  Printf.printf "paper: AFL++ needs 157 trials on average; gray-box constraints need 1\n"

(* ------------------------------------------------------------------ *)
(* Sec 6.2 / Fig. 6: SDDMM from multi-node to single-node              *)
(* ------------------------------------------------------------------ *)

let sddmm () =
  header "Sec. 6.2 / Fig. 6: SDDMM single-node testing";
  let rank_prog, state, kernel = Workloads.Sddmm.rank_program () in
  let symbols = [ ("LROWS", 8); ("NCOLS", 8); ("K", 4) ] in
  let cut =
    Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } rank_prog ~state
      ~nodes:[ kernel ]
  in
  Printf.printf "kernel cutout inputs {%s}, system state {%s} -- no collectives included\n"
    (String.concat ", " cut.input_config)
    (String.concat ", " cut.system_state);
  (* distributed cost vs single-rank trial cost *)
  let rows = 32 and cols = 8 and k = 4 in
  let h1 = Array.init (rows * k) (fun i -> Float.cos (float_of_int i)) in
  let h2 = Array.init (cols * k) (fun i -> Float.sin (float_of_int i)) in
  let mask = Array.init (rows * cols) (fun i -> if i mod 3 = 0 then 1. else 0.) in
  List.iter
    (fun ranks ->
      let _, t =
        time (fun () -> ignore (Workloads.Sddmm.distributed ~ranks ~rows ~cols ~k ~h1 ~h2 ~mask))
      in
      let comm = Mpi_sim.Mpi.create ranks in
      Printf.printf "distributed run, %d ranks: %.2f ms (+ %d simulated messages)\n" ranks
        (1000. *. t)
        (Mpi_sim.Mpi.bcast_messages comm + (2 * Mpi_sim.Mpi.allreduce_messages comm)))
    [ 2; 4; 8 ];
  let x = Transforms.Vectorization.make ~width:2 Transforms.Vectorization.Correct in
  let site = Transforms.Xform.dataflow_site ~state ~nodes:[ kernel ] ~descr:"vectorize" in
  let config =
    { Fuzzyflow.Difftest.default_config with trials = 20; max_size = 8; concretization = symbols }
  in
  let r, t = time (fun () -> Fuzzyflow.Difftest.test_instance ~config rank_prog x site) in
  Printf.printf "single-rank cutout testing: %d trials in %.2f ms (%s)\n" r.trials_run (1000. *. t)
    (match r.verdict with Fuzzyflow.Difftest.Pass -> "PASS" | _ -> "FAIL");
  Printf.printf "paper: optimizations not touching communication are tested on one node\n"

(* ------------------------------------------------------------------ *)
(* Sec 6.3 / Table 2: the NPBench campaign                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Sec. 6.3 / Table 2: built-in transformations over the NPBench suite";
  let config =
    {
      Fuzzyflow.Difftest.default_config with
      trials = 10;
      max_size = 10;
      step_limit = 200_000;
      concretization = [ ("N", 8); ("T", 3); ("H", 4); ("R", 3); ("Q", 4); ("P", 3) ];
    }
  in
  let programs = Workloads.Npbench.all () @ Workloads.Npb_frontend.all () in
  let c, t =
    time (fun () -> Fuzzyflow.Campaign.run ~config programs (Transforms.Registry.as_shipped ()))
  in
  Printf.printf "%d kernels, %d transformation instances, %.1f s\n\n" (List.length programs)
    c.totals.instances t;
  print_string (Fuzzyflow.Campaign.to_table c);
  print_newline ();
  Printf.printf "paper (52 apps, 3,280 instances): BufferTiling X, TaskletFusion X,\n";
  Printf.printf "Vectorization /!\\, MapExpansion ->, MapReduceFusion, StateAssignElimination,\n";
  Printf.printf "SymbolAliasPromotion failing; all other built-ins pass\n"

(* ------------------------------------------------------------------ *)
(* Sec 6.4: the CLOUDSC campaigns                                      *)
(* ------------------------------------------------------------------ *)

let cloudsc () =
  header "Sec. 6.4: CLOUDSC optimization campaigns";
  let program = Workloads.Cloudsc.build () in
  let symbols = Workloads.Cloudsc.default_symbols in
  let config =
    { Fuzzyflow.Difftest.default_config with trials = 10; max_size = 12; concretization = symbols }
  in
  Printf.printf "%-22s %-16s %-16s %s\n" "transformation" "ours (inst/fail)" "paper (inst/fail)"
    "mean trials to expose";
  List.iter
    (fun (name, x, paper) ->
      let sites = x.Transforms.Xform.find program in
      let failing = ref 0 and trials = ref [] in
      List.iter
        (fun site ->
          let r = Fuzzyflow.Difftest.test_instance ~config program x site in
          match r.verdict with
          | Fuzzyflow.Difftest.Pass -> ()
          | Fuzzyflow.Difftest.Fail f ->
              incr failing;
              if f.first_trial > 0 then trials := f.first_trial :: !trials)
        sites;
      let mean =
        match !trials with
        | [] -> 0.
        | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
      in
      Printf.printf "%-22s %-16s %-16s %.1f\n" name
        (Printf.sprintf "%d / %d" (List.length sites) !failing)
        paper mean)
    [
      ( "ExtractGpuKernels",
        Transforms.Gpu_kernel_extraction.make Transforms.Gpu_kernel_extraction.Full_copy_back,
        "62 / 48" );
      ( "LoopUnrolling",
        Transforms.Loop_unrolling.make Transforms.Loop_unrolling.Negative_step_sign_error,
        "19 / 1" );
      ( "WriteElimination",
        Transforms.Tasklet_fusion.make Transforms.Tasklet_fusion.Ignore_system_state,
        "136 / 1" );
    ];
  Printf.printf "paper: GPU-extraction failures exposed in 1-2 trials each (43 s); the same\n";
  Printf.printf "bug took an engineer over 16 hours to isolate by hand\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices (DESIGN.md)                         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablations";
  (* 1. min-cut on/off: input bytes of the BERT scaling cutout *)
  let g, sid, scaling = Workloads.Bert.build_with_site () in
  let symbols = Workloads.Bert.default_symbols in
  let cut =
    Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } g ~state:sid
      ~nodes:[ scaling ]
  in
  let cut', _ = Fuzzyflow.Min_cut.minimize g cut ~symbols in
  Printf.printf "min-cut         off: %6d input bytes   on: %6d input bytes\n"
    (Fuzzyflow.Cutout.input_bytes cut ~symbols)
    (Fuzzyflow.Cutout.input_bytes cut' ~symbols);
  (* 1b. sub-region container minimization: cutout memory footprint *)
  let prefix_prog = Frontend.Lang.compile {|
    program prefix
    symbol N
    input  f64 big[N]
    output f64 y[10]
    map i = 0 to 9 { y[i] = big[i] * 2.0 }
  |} in
  let psid = Sdfg.Graph.start_state prefix_prog in
  let pentry =
    List.hd (Transforms.Xform.map_entries (Sdfg.Graph.state prefix_prog psid))
  in
  let psyms = [ ("N", 4096) ] in
  let pcut =
    Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols = psyms } prefix_prog
      ~state:psid ~nodes:[ pentry ]
  in
  let _, sstats = Fuzzyflow.Cutout.shrink_containers pcut ~symbols:psyms in
  Printf.printf "container shrink off: %6d cutout bytes  on: %6d cutout bytes (%d resized)\n"
    sstats.original_bytes sstats.shrunk_bytes (List.length sstats.resized);
  (* 2. gray-box constraints on/off: trials to expose the size bug *)
  let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
  let site = List.find (fun (s : Transforms.Xform.site) -> s.nodes = [ scaling ]) (x.find g) in
  let g' = Sdfg.Graph.copy g in
  let cs = x.apply g' site in
  let cutv = Fuzzyflow.Cutout.extract ~options:{ Fuzzyflow.Cutout.symbols } g cs in
  let transformed = Sdfg.Graph.copy cutv.program in
  ignore (x.apply transformed site);
  List.iter
    (fun (label, mode) ->
      let r =
        Fuzzyflow.Fuzzer.run
          ~config:{ Fuzzyflow.Fuzzer.default_config with max_trials = 60 }
          mode ~original:g ~cutout:cutv ~transformed
      in
      Printf.printf "constraints %-4s: bug exposed at %s (of %d trials run)\n" label
        (match r.trials_to_failure with Some t -> Printf.sprintf "trial %d" t | None -> "never")
        r.trials_run)
    [ ("off", Fuzzyflow.Fuzzer.Uniform); ("on", Fuzzyflow.Fuzzer.Graybox) ];
  (* 3. coverage guidance: distinct coverage reached per trial budget, on a
     passing instance so the full budget is spent *)
  let xc = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Correct in
  let sitec = List.find (fun (s : Transforms.Xform.site) -> s.nodes = [ scaling ]) (xc.find g) in
  let gc = Sdfg.Graph.copy g in
  let csc = xc.apply gc sitec in
  let cutc = Fuzzyflow.Cutout.extract ~options:{ Fuzzyflow.Cutout.symbols } g csc in
  let transformedc = Sdfg.Graph.copy cutc.program in
  ignore (xc.apply transformedc sitec);
  List.iter
    (fun (label, mode) ->
      let r =
        Fuzzyflow.Fuzzer.run
          ~config:{ Fuzzyflow.Fuzzer.default_config with max_trials = 30 }
          mode ~original:g ~cutout:cutc ~transformed:transformedc
      in
      Printf.printf "coverage guidance %-3s: %d distinct coverage points in %d trials\n" label
        r.distinct_coverage r.trials_run)
    [ ("off", Fuzzyflow.Fuzzer.Graybox); ("on", Fuzzyflow.Fuzzer.Coverage) ]

(* ------------------------------------------------------------------ *)
(* Paper future work: transformation-parameter fuzzing + localization   *)
(* ------------------------------------------------------------------ *)

let futurework () =
  header "Conclusion / future work: parameter fuzzing & divergence localization";
  (* fuzz the tile size of a tiling optimization (paper's example) *)
  let g = Workloads.Npbench.scale () in
  let sid = Sdfg.Graph.start_state g in
  let entry = List.hd (Transforms.Xform.map_entries (Sdfg.Graph.state g sid)) in
  let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ entry ] ~descr:"tile" in
  let cfg =
    {
      Fuzzyflow.Difftest.default_config with
      trials = 10;
      concretization = [ ("N", 12) ];
      custom_constraints = [ ("N", (12, 12)) ];
    }
  in
  let r =
    Fuzzyflow.Tuning.sweep ~config:cfg g
      ~family:(fun ts ->
        Transforms.Map_tiling.make ~tile_size:ts Transforms.Map_tiling.No_remainder)
      ~params:[ 2; 3; 4; 5; 6; 7; 8 ] ~site
  in
  Printf.printf "tile-size sweep of no-remainder tiling at N=12:
";
  Format.printf "%a" Fuzzyflow.Tuning.pp_result r;
  (* localize where values first diverge for the Fig. 2 bug *)
  let g, csid, mm2 = Workloads.Chain.build_with_site () in
  let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
  let csite = Transforms.Xform.dataflow_site ~state:csid ~nodes:[ mm2 ] ~descr:"tile mm2" in
  let ccfg =
    { Fuzzyflow.Difftest.default_config with trials = 10; max_size = 8; concretization = [ ("N", 8) ] }
  in
  let report = Fuzzyflow.Difftest.test_instance ~config:ccfg g x csite in
  (match Fuzzyflow.Localize.of_report ~config:ccfg ~original:g ~xform:x report with
  | Some (d :: _) ->
      Format.printf "divergence localization on the Fig. 2 bug: %a@."
        Fuzzyflow.Localize.pp_divergence d
  | _ -> print_endline "no divergence localized");
  Printf.printf "paper: proposed as future work (Sec. 9); both implemented here
"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let g, sid, mm2 = Workloads.Chain.build_with_site () in
  let symbols = [ ("N", 8) ] in
  let opts = { Fuzzyflow.Cutout.symbols } in
  let inputs = default_inputs g ~symbols in
  let bert_g, bert_sid, bert_scaling = Workloads.Bert.build_with_site () in
  let bert_syms = Workloads.Bert.default_symbols in
  let bert_cut =
    Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols = bert_syms } bert_g
      ~state:bert_sid ~nodes:[ bert_scaling ]
  in
  let tiling = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
  let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"t" in
  let tests =
    [
      Test.make ~name:"interp: matmul chain N=8"
        (Staged.stage (fun () ->
             match Interp.Exec.run g ~symbols ~inputs with Ok _ -> () | Error _ -> ()));
      Test.make ~name:"cutout extraction (Fig. 3)"
        (Staged.stage (fun () ->
             ignore (Fuzzyflow.Cutout.extract_dataflow ~options:opts g ~state:sid ~nodes:[ mm2 ])));
      Test.make ~name:"min input-flow cut (BERT)"
        (Staged.stage (fun () ->
             ignore (Fuzzyflow.Min_cut.minimize bert_g bert_cut ~symbols:bert_syms)));
      Test.make ~name:"transformation apply (tiling)"
        (Staged.stage (fun () ->
             let g' = Sdfg.Graph.copy g in
             ignore (tiling.apply g' site)));
      Test.make ~name:"structural diff (chain)"
        (Staged.stage (fun () ->
             let g' = Sdfg.Graph.copy g in
             ignore (tiling.apply g' site);
             ignore (Sdfg.Diff.compute ~original:g ~transformed:g')));
      Test.make ~name:"validation (cloudsc)"
        (let cl = Workloads.Cloudsc.build () in
         Staged.stage (fun () -> ignore (Sdfg.Validate.check cl)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-34s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-34s (no estimate)\n" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)

(* B1: analysis cost vs program size — a chain of k elementwise stages *)
let scaling () =
  header "Analysis-cost scaling with program size (B1)";
  let build_chain k =
    let g = Sdfg.Graph.create (Printf.sprintf "chain%d" k) in
    Sdfg.Graph.add_symbol g "N";
    let n = Symbolic.Expr.sym "N" in
    Sdfg.Graph.add_array g "x" Sdfg.Dtype.F64 [ n ];
    Sdfg.Graph.add_array g "y" Sdfg.Dtype.F64 [ n ];
    for i = 0 to k - 1 do
      Sdfg.Graph.add_array g ~transient:true (Printf.sprintf "t%d" i) Sdfg.Dtype.F64 [ n ]
    done;
    let sid = Sdfg.Graph.add_state g "main" in
    let st = Sdfg.Graph.state g sid in
    let prev = ref ("x", None) in
    let last_entry = ref (-1) in
    for i = 0 to k - 1 do
      let src, src_node = !prev in
      let dst = if i = k - 1 then "y" else Printf.sprintf "t%d" i in
      let m =
        Builder.Build.mapped_tasklet g st ~label:(Printf.sprintf "stage%d" i)
          ~map:[ ("j", "0:N-1") ]
          ~inputs:[ ("v", Builder.Build.mem src "j") ]
          ~code:"o = v * 1.0001 + 0.5"
          ~outputs:[ ("o", Builder.Build.mem dst "j") ]
          ?input_nodes:(Option.map (fun nd -> [ (src, nd) ]) src_node)
          ()
      in
      last_entry := m.entry;
      prev := (dst, Some (List.assoc dst m.out_access))
    done;
    (g, sid, !last_entry)
  in
  let symbols = [ ("N", 64) ] in
  Printf.printf "%-8s %-10s %-14s %-14s %-14s
" "stages" "nodes" "extract (us)" "min-cut (us)" "difftest ms/instance";
  List.iter
    (fun k ->
      let g, sid, entry = build_chain k in
      let reps = 20 in
      let _, t_ex =
        time (fun () ->
            for _ = 1 to reps do
              ignore
                (Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } g
                   ~state:sid ~nodes:[ entry ])
            done)
      in
      let cut =
        Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols } g ~state:sid
          ~nodes:[ entry ]
      in
      let _, t_mc =
        time (fun () ->
            for _ = 1 to reps do
              ignore (Fuzzyflow.Min_cut.minimize g cut ~symbols)
            done)
      in
      let x = Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct in
      let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ entry ] ~descr:"tile" in
      let cfg =
        { Fuzzyflow.Difftest.default_config with trials = 10; concretization = symbols; max_size = 16 }
      in
      let _, t_dt = time (fun () -> ignore (Fuzzyflow.Difftest.test_instance ~config:cfg g x site)) in
      Printf.printf "%-8d %-10d %-14.1f %-14.1f %-14.1f
" k
        (Sdfg.State.num_nodes (Sdfg.Graph.state g sid))
        (1e6 *. t_ex /. float_of_int reps)
        (1e6 *. t_mc /. float_of_int reps)
        (1000. *. t_dt))
    [ 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Translation validation: fuzz trials saved by the equivalence gate   *)
(* ------------------------------------------------------------------ *)

let equiv () =
  header "Translation validation: trials saved by the equivalence gate";
  let workloads =
    [
      ("scale", Workloads.Npbench.scale ());
      ("axpy", Workloads.Npbench.axpy ());
      ("gemm", Workloads.Npbench.gemm ());
      ("mvt", Workloads.Npbench.mvt ());
      ("softmax", Workloads.Npbench.softmax ());
      ("fig4", Workloads.Fig4.build ());
    ]
  in
  let config =
    {
      Fuzzyflow.Difftest.default_config with
      trials = 10;
      max_size = 8;
      concretization = [ ("N", 8); ("T", 3) ];
    }
  in
  let xforms = Transforms.Registry.as_shipped () in
  Printf.printf "%-14s %10s %12s %12s %8s %8s\n" "workload" "instances" "trials(off)"
    "trials(on)" "saved" "proved";
  let rows =
    List.map
      (fun (name, g) ->
        let off, t_off = time (fun () -> Fuzzyflow.Campaign.run ~config [ (name, g) ] xforms) in
        let on, t_on =
          time (fun () -> Fuzzyflow.Campaign.run ~config ~certify_gate:true [ (name, g) ] xforms)
        in
        let toff = off.totals.trials and ton = on.totals.trials in
        Printf.printf "%-14s %10d %12d %12d %8d %8d  (%.2fs -> %.2fs)\n" name
          off.totals.instances toff ton (toff - ton) on.totals.proved t_off t_on;
        Printf.sprintf
          "{\"bench\":\"equiv\",\"workload\":\"%s\",\"instances\":%d,\"trials_gate_off\":%d,\"trials_gate_on\":%d,\"saved\":%d,\"proved\":%d}"
          name off.totals.instances toff ton (toff - ton) on.totals.proved)
      workloads
  in
  let oc = open_out "BENCH_equiv.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_equiv.json (%d rows)\n" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Interstate dataflow analyses: per-pass runtime over the workload     *)
(* suite, fixpoint convergence, and certify verdicts upgraded from      *)
(* Unknown by interval facts                                            *)
(* ------------------------------------------------------------------ *)

let analysis () =
  header "Dataflow analyses: per-pass runtime and interval-fact certify upgrades";
  let programs =
    Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()
    @ [
        ("bert", Workloads.Bert.build ());
        ("cloudsc", Workloads.Cloudsc.build ());
        ("fig4", Workloads.Fig4.build ());
        ("sddmm", (let g, _, _ = Workloads.Sddmm.rank_program () in g));
      ]
  in
  let symbols_for g =
    let base =
      match Sdfg.Graph.name g with
      | "bert_encoder" -> Workloads.Bert.default_symbols
      | "cloudsc_synth" -> Workloads.Cloudsc.default_symbols
      | "sddmm_rank" -> [ ("LROWS", 4); ("NCOLS", 6); ("K", 3) ]
      | _ -> [ ("N", 8); ("T", 3) ]
    in
    List.filter (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g)) base
  in
  (* per-pass wall clock, summed over the whole suite *)
  let max_iters = ref 0 in
  let passes =
    [
      ("liveness", fun g -> List.length (Analysis.Liveness.check g));
      ("reachdef", fun g -> List.length (Analysis.Reachdef.check g));
      ( "intervals",
        fun g ->
          let sol = Analysis.Intervals.solve ~symbols:(symbols_for g) g in
          if not sol.Analysis.Fixpoint.converged then max_iters := max_int
          else max_iters := max !max_iters sol.Analysis.Fixpoint.iterations;
          List.length (Analysis.Intervals.facts ~symbols:(symbols_for g) g) );
      ("defuse", fun g -> List.length (Analysis.Defuse.check g));
      ("footprint", fun g -> List.length (Analysis.Footprint.check ~symbols:(symbols_for g) g));
      ("oracle", fun g -> List.length (Analysis.Oracle.analyze ~symbols:(symbols_for g) g));
    ]
  in
  Printf.printf "%-12s %10s %10s\n" "pass" "total (ms)" "findings";
  let pass_rows =
    List.map
      (fun (name, f) ->
        let n = ref 0 in
        let _, t = time (fun () -> List.iter (fun (_, g) -> n := !n + f g) programs) in
        Printf.printf "%-12s %10.1f %10d\n" name (1000. *. t) !n;
        Printf.sprintf "{\"bench\":\"analysis\",\"pass\":\"%s\",\"total_ms\":%.2f,\"findings\":%d}"
          name (1000. *. t) !n)
      passes
  in
  Printf.printf "interval fixpoint: max %d passes to convergence over %d workloads\n" !max_iters
    (List.length programs);
  (* certify with and without interval facts: how many Unknown verdicts do
     the envelope bounds upgrade to a definite answer? *)
  let xforms =
    Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ()
    |> List.fold_left
         (fun acc (x : Transforms.Xform.t) ->
           if List.exists (fun (y : Transforms.Xform.t) -> y.name = x.name) acc then acc
           else x :: acc)
         []
    |> List.rev
  in
  let instances = ref 0
  and unknown_off = ref 0
  and upgraded_equivalent = ref 0
  and upgraded_refuted = ref 0 in
  let _, t_certify =
    time (fun () ->
        List.iter
          (fun (_, g) ->
            let symbols = symbols_for g in
            List.iter
              (fun (x : Transforms.Xform.t) ->
                List.iter
                  (fun site ->
                    incr instances;
                    match Analysis.Equiv.certify ~use_intervals:false ~symbols g x site with
                    | Some (Analysis.Equiv.Unknown _) -> (
                        incr unknown_off;
                        match Analysis.Equiv.certify ~symbols g x site with
                        | Some (Analysis.Equiv.Equivalent _) -> incr upgraded_equivalent
                        | Some (Analysis.Equiv.Refuted _) -> incr upgraded_refuted
                        | _ -> ())
                    | _ -> ())
                  (x.find g))
              xforms)
          programs)
  in
  Printf.printf
    "certify: %d instances, %d unknown without interval facts, %d upgraded to equivalent, %d to \
     refuted (%.2fs)\n"
    !instances !unknown_off !upgraded_equivalent !upgraded_refuted t_certify;
  let upgrade_row =
    Printf.sprintf
      "{\"bench\":\"analysis\",\"certify_instances\":%d,\"unknown_without_intervals\":%d,\"upgraded_equivalent\":%d,\"upgraded_refuted\":%d,\"max_fixpoint_passes\":%d}"
      !instances !unknown_off !upgraded_equivalent !upgraded_refuted !max_iters
  in
  let rows = pass_rows @ [ upgrade_row ] in
  let oc = open_out "BENCH_analysis.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_analysis.json (%d rows)\n" (List.length rows);
  if !upgraded_equivalent + !upgraded_refuted = 0 then begin
    Printf.eprintf "analysis bench: interval facts upgraded no certify verdicts\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Exact dependence engine: what fraction of intra-scope access pairs   *)
(* does the Fourier–Motzkin tier decide outright, what does a decision  *)
(* cost, and how many instances does certify prove equivalent?         *)
(* Gates: decided fraction >= BENCH_DEPS_MIN_FRACTION (default 0.6)     *)
(* and Equivalent count > BENCH_DEPS_MIN_EQUIVALENT (default 39, the    *)
(* count before the exact tier).                                        *)
(* ------------------------------------------------------------------ *)

let deps () =
  header "Exact dependence engine: decided pairs, solve cost, certify verdicts";
  let min_fraction =
    match Sys.getenv_opt "BENCH_DEPS_MIN_FRACTION" with
    | Some s -> float_of_string s
    | None -> 0.6
  in
  let min_equivalent =
    match Sys.getenv_opt "BENCH_DEPS_MIN_EQUIVALENT" with
    | Some s -> int_of_string s
    | None -> 39
  in
  let programs = Workloads.Npbench.all () @ Workloads.Npb_frontend.all () in
  let symbols_for g =
    List.filter
      (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g))
      [ ("N", 8); ("T", 3) ]
  in
  Printf.printf "%-16s %6s %8s %8s %8s %10s\n" "workload" "pairs" "disjoint" "overlap"
    "sampled" "ms";
  let total = ref Analysis.Races.stats_zero and total_ms = ref 0. in
  let rows =
    List.map
      (fun (name, g) ->
        let stats = ref Analysis.Races.stats_zero in
        (* carried dependences count, as in the campaign's static channel:
           write/read pairs of sequential scopes are dependence queries too *)
        let _, t =
          time (fun () ->
              let _, s =
                Analysis.Oracle.analyze_stats ~carried:true ~symbols:(symbols_for g) g
              in
              stats := s)
        in
        let s = !stats in
        total := Analysis.Races.stats_add !total s;
        total_ms := !total_ms +. (1000. *. t);
        Printf.printf "%-16s %6d %8d %8d %8d %10.2f\n" name s.Analysis.Races.pairs
          s.Analysis.Races.exact_disjoint s.Analysis.Races.exact_overlap
          s.Analysis.Races.sampled (1000. *. t);
        Printf.sprintf
          "{\"bench\":\"deps\",\"workload\":\"%s\",\"pairs\":%d,\"exact_disjoint\":%d,\"exact_overlap\":%d,\"sampled\":%d,\"ms\":%.2f}"
          name s.Analysis.Races.pairs s.Analysis.Races.exact_disjoint
          s.Analysis.Races.exact_overlap s.Analysis.Races.sampled (1000. *. t))
      programs
  in
  let decided = !total.Analysis.Races.exact_disjoint + !total.Analysis.Races.exact_overlap in
  let fraction =
    if !total.Analysis.Races.pairs = 0 then 0.
    else float_of_int decided /. float_of_int !total.Analysis.Races.pairs
  in
  let per_pair =
    if !total.Analysis.Races.pairs = 0 then 0.
    else !total_ms /. float_of_int !total.Analysis.Races.pairs
  in
  Printf.printf
    "exact tier: %d/%d access pairs decided (%.0f%%), %d sampled, %.3f ms per pair\n" decided
    !total.Analysis.Races.pairs (100. *. fraction) !total.Analysis.Races.sampled per_pair;
  (* registry-wide certify sweep *)
  let xforms =
    Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ()
    |> List.fold_left
         (fun acc (x : Transforms.Xform.t) ->
           if List.exists (fun (y : Transforms.Xform.t) -> y.name = x.name) acc then acc
           else x :: acc)
         []
    |> List.rev
  in
  let sweep () =
    let eq = ref 0 and refuted = ref 0 and unknown = ref 0 and n = ref 0 in
    List.iter
      (fun (_, g) ->
        let symbols = symbols_for g in
        List.iter
          (fun (x : Transforms.Xform.t) ->
            List.iter
              (fun site ->
                incr n;
                match Analysis.Equiv.certify ~symbols g x site with
                | Some (Analysis.Equiv.Equivalent _) -> incr eq
                | Some (Analysis.Equiv.Refuted _) -> incr refuted
                | Some (Analysis.Equiv.Unknown _) -> incr unknown
                | None -> decr n)
              (x.find g))
          xforms)
      programs;
    (!n, !eq, !refuted, !unknown)
  in
  let (n_on, eq_on, rf_on, un_on), t_on = time sweep in
  Printf.printf "certify: %d instances, %d equivalent, %d refuted, %d unknown (%.2fs)\n" n_on
    eq_on rf_on un_on t_on;
  let summary =
    Printf.sprintf
      "{\"bench\":\"deps\",\"pairs\":%d,\"decided\":%d,\"sampled\":%d,\"fraction\":%.4f,\"ms_per_pair\":%.4f,\"certify_instances\":%d,\"equivalent_with_deps\":%d,\"refuted_with_deps\":%d,\"unknown_with_deps\":%d,\"min_fraction\":%.2f,\"min_equivalent\":%d}"
      !total.Analysis.Races.pairs decided !total.Analysis.Races.sampled fraction per_pair n_on
      eq_on rf_on un_on min_fraction min_equivalent
  in
  let rows = rows @ [ summary ] in
  let oc = open_out "BENCH_deps.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_deps.json (%d rows)\n" (List.length rows);
  if fraction < min_fraction then begin
    Printf.eprintf "deps bench: exact tier decided %.0f%% of pairs, floor is %.0f%%\n"
      (100. *. fraction) (100. *. min_fraction);
    exit 1
  end;
  if eq_on <= min_equivalent then begin
    Printf.eprintf "deps bench: %d certify instances equivalent, floor is more than %d\n" eq_on
      min_equivalent;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Campaign engine: wall-clock vs worker count, scheduling overhead     *)
(* ------------------------------------------------------------------ *)

let engine () =
  header "Campaign engine: wall-clock at 1/2/4 workers";
  let programs =
    [
      ("scale", Workloads.Npbench.scale ());
      ("axpy", Workloads.Npbench.axpy ());
      ("gemm", Workloads.Npbench.gemm ());
      ("mvt", Workloads.Npbench.mvt ());
      ("softmax", Workloads.Npbench.softmax ());
      ("fig4", Workloads.Fig4.build ());
    ]
  in
  let xforms = Transforms.Registry.as_shipped () in
  (* enough trials per instance that the per-instance wire cost amortizes —
     the regime a real campaign runs in *)
  let config =
    {
      Fuzzyflow.Difftest.default_config with
      trials = 200;
      max_size = 12;
      concretization = [ ("N", 8); ("T", 3) ];
    }
  in
  (* serial in-process reference: the work itself, no forks *)
  let serial, t_serial = time (fun () -> Fuzzyflow.Campaign.run ~config programs xforms) in
  let cores =
    try
      let ic = Unix.open_process_in "nproc 2>/dev/null" in
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 1 in
      ignore (Unix.close_process_in ic);
      n
    with _ -> 1
  in
  Printf.printf "(%d cores available; speedup is bounded by min(j, cores))\n" cores;
  Printf.printf "%-10s %10s %10s %10s %10s\n" "workers" "wall (s)" "speedup" "inst/s" "overhead";
  Printf.printf "%-10s %10.2f %10s %10.1f %10s\n" "in-process" t_serial "1.00x"
    (float_of_int serial.totals.instances /. t_serial) "-";
  let rows =
    List.map
      (fun j ->
        let c, t =
          time (fun () ->
              Engine.Worker.run_campaign
                ~options:{ Engine.Worker.default_options with j }
                ~config programs xforms)
        in
        assert (c.Fuzzyflow.Campaign.totals.instances = serial.Fuzzyflow.Campaign.totals.instances);
        (* scheduling overhead: how much slower one engine worker is than the
           bare serial loop — the price of the worker fork, the wire
           round-trip per instance and the dispatch loop *)
        let overhead = (t -. (t_serial /. float_of_int j)) /. t_serial in
        Printf.printf "%-10s %10.2f %9.2fx %10.1f %9.0f%%\n"
          (Printf.sprintf "-j %d" j)
          t (t_serial /. t)
          (float_of_int c.Fuzzyflow.Campaign.totals.instances /. t)
          (100. *. overhead);
        Printf.sprintf
          "{\"bench\":\"engine\",\"j\":%d,\"cores\":%d,\"wall_s\":%.3f,\"serial_s\":%.3f,\"speedup\":%.3f,\"instances\":%d,\"instances_per_s\":%.1f}"
          j cores t t_serial (t_serial /. t) c.Fuzzyflow.Campaign.totals.instances
          (float_of_int c.Fuzzyflow.Campaign.totals.instances /. t))
      [ 1; 2; 4 ]
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_engine.json (%d rows)\n" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Faultlab: does the stack catch what we seed, and at what cost?       *)
(* ------------------------------------------------------------------ *)

let faultlab () =
  header "Faultlab: seeded-fault detection rates and injection overhead";
  let seed = 42 and trials = 6 in
  let report, t_campaign = time (fun () -> Faultlab.Selfcheck.run ~j:2 ~trials ~seed ()) in
  let t = Faultlab.Selfcheck.totals report in
  (* detection rate per fault class: interp specs by injection slug, transform
     specs by mutation kind, mpi specs by disturbance name *)
  let class_of (s : Faultlab.Plan.spec) =
    match (s.Faultlab.Plan.payload, String.split_on_char '/' s.Faultlab.Plan.id) with
    | Faultlab.Plan.Interp_fault _, [ _; _; slug ] -> "interp/" ^ slug
    | Faultlab.Plan.Transform_fault { kind; _ }, _ ->
        "xform/" ^ Faultlab.Mutate.kind_to_string kind
    | _ -> s.Faultlab.Plan.id
  in
  let classes =
    List.sort_uniq compare
      (List.map (fun (r : Faultlab.Selfcheck.row) -> class_of r.Faultlab.Selfcheck.spec)
         report.Faultlab.Selfcheck.rows)
  in
  Printf.printf "%-24s %9s %9s\n" "fault class" "seeded" "detected";
  let class_rows =
    List.map
      (fun cls ->
        let rows =
          List.filter
            (fun (r : Faultlab.Selfcheck.row) -> class_of r.Faultlab.Selfcheck.spec = cls)
            report.Faultlab.Selfcheck.rows
        in
        let detected =
          List.length
            (List.filter
               (fun (r : Faultlab.Selfcheck.row) ->
                 match r.Faultlab.Selfcheck.outcome with
                 | Faultlab.Selfcheck.Detected _ -> true
                 | _ -> false)
               rows)
        in
        Printf.printf "%-24s %9d %9d\n" cls (List.length rows) detected;
        Printf.sprintf
          "{\"bench\":\"faultlab\",\"row\":\"class\",\"class\":\"%s\",\"seeded\":%d,\"detected\":%d}"
          cls (List.length rows) detected)
      classes
  in
  (* injection overhead: the same identity-transform difftest with and without
     an armed interpreter fault — the cost of the write-intercept path *)
  let g = Faultlab.Plan.workload_by_name "scale" in
  let x = Faultlab.Mutate.identity () in
  let site = List.hd (x.Transforms.Xform.find g) in
  let config =
    {
      Fuzzyflow.Difftest.default_config with
      trials = 50;
      max_size = 8;
      concretization = List.map (fun s -> (s, 8)) (Sdfg.Graph.all_free_syms g);
    }
  in
  let measure inject =
    let config = { config with Fuzzyflow.Difftest.inject_transformed = inject } in
    ignore (Fuzzyflow.Difftest.test_instance ~config g x site);
    let reps = 5 in
    let _, t =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Fuzzyflow.Difftest.test_instance ~config g x site)
          done)
    in
    t /. float_of_int reps
  in
  let t_clean = measure None in
  let t_inj = measure (Some (Interp.Exec.Flip_bit { nth_write = 0; bit = 62 })) in
  Printf.printf
    "injection overhead: %.2f ms clean vs %.2f ms armed (%.2fx) over %d trials\n"
    (1000. *. t_clean) (1000. *. t_inj) (t_inj /. t_clean) config.Fuzzyflow.Difftest.trials;
  Printf.printf
    "campaign: %d specs in %.1f s -- %d detected, %d missed, %d misclassified, %d quarantined, %d retries\n"
    t.Faultlab.Selfcheck.specs t_campaign t.Faultlab.Selfcheck.detected
    t.Faultlab.Selfcheck.missed t.Faultlab.Selfcheck.misclassified
    t.Faultlab.Selfcheck.quarantined t.Faultlab.Selfcheck.extra_attempts;
  Printf.printf "localization ground truth: %d/%d accurate\n" t.Faultlab.Selfcheck.loc_accurate
    t.Faultlab.Selfcheck.loc_checked;
  let summary =
    Printf.sprintf
      "{\"bench\":\"faultlab\",\"row\":\"summary\",\"seed\":%d,\"specs\":%d,\"detected\":%d,\"missed\":%d,\"misclassified\":%d,\"quarantined\":%d,\"retries\":%d,\"detection_rate\":%.4f,\"loc_checked\":%d,\"loc_accurate\":%d,\"wall_s\":%.3f,\"clean_ms\":%.3f,\"injected_ms\":%.3f,\"injection_overhead\":%.3f}"
      seed t.Faultlab.Selfcheck.specs t.Faultlab.Selfcheck.detected t.Faultlab.Selfcheck.missed
      t.Faultlab.Selfcheck.misclassified t.Faultlab.Selfcheck.quarantined
      t.Faultlab.Selfcheck.extra_attempts
      (Faultlab.Selfcheck.detection_rate report)
      t.Faultlab.Selfcheck.loc_checked t.Faultlab.Selfcheck.loc_accurate t_campaign
      (1000. *. t_clean) (1000. *. t_inj) (t_inj /. t_clean)
  in
  let oc = open_out "BENCH_faultlab.json" in
  output_string oc (String.concat "\n" (class_rows @ [ summary ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_faultlab.json (%d rows)\n" (List.length class_rows + 1)

(* ------------------------------------------------------------------ *)
(* Interpreter throughput: compile-once plans vs the tree-walk          *)
(* ------------------------------------------------------------------ *)

(* Trial throughput at fuzzer-typical repetition counts: the tree-walk
   re-derives all structure per run, the plan path compiles once and
   executes many times. Compile cost is measured and reported separately
   so the JSON shows both the amortized and the cold story, split into
   [Plan.compile]'s lowering (partial application) and the binding of the
   valuation (applying the lowering to the symbols); [compile_ms] is their
   sum. The plan loop runs three times and the fastest is reported, so
   host noise inflates a single slow loop less. [plan_minor_words] is the
   minor-heap allocation of one plan trial, averaged over the first loop.

     BENCH_INTERP_TRIALS       trials per workload (default 1000)
     BENCH_INTERP_MIN_SPEEDUP  exit non-zero below this (default 1.0) *)
let interp () =
  header "Interpreter throughput: execution plans vs tree-walk";
  let trials =
    match Sys.getenv_opt "BENCH_INTERP_TRIALS" with
    | Some s -> (try max 1 (int_of_string s) with _ -> 1000)
    | None -> 1000
  in
  let min_speedup =
    match Sys.getenv_opt "BENCH_INTERP_MIN_SPEEDUP" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  let workloads =
    [
      ("scale", Workloads.Npbench.scale ());
      ("axpy", Workloads.Npbench.axpy ());
      ("gemm", Workloads.Npbench.gemm ());
      ("mvt", Workloads.Npbench.mvt ());
      ("softmax", Workloads.Npbench.softmax ());
      ("fig4", Workloads.Fig4.build ());
    ]
  in
  Printf.printf "trials per workload: %d\n" trials;
  Printf.printf "%-10s %10s %10s %10s %12s %12s %9s %12s\n" "workload" "compile" "lower"
    "bind" "tree-walk" "plan" "speedup" "words/trial";
  let worst = ref infinity in
  let rows =
    List.map
      (fun (name, g) ->
        let symbols =
          List.map (fun s -> (s, if s = "T" then 3 else 16)) (Sdfg.Graph.all_free_syms g)
        in
        let inputs = default_inputs g ~symbols in
        (* parity gate: a fast wrong answer is worthless. Memory is compared
           bit for bit (a NaN matches itself, -0.0 differs from 0.0), and so
           are the step, write and subset counters *)
        let o_tree = Interp.Exec.run_tree g ~symbols ~inputs in
        let o_plan = Interp.Exec.run g ~symbols ~inputs in
        let bits (buf : Interp.Value.buffer) = Array.map Int64.bits_of_float buf.data in
        let same (a : Interp.Exec.outcome) (b : Interp.Exec.outcome) =
          a.steps = b.steps && a.writes = b.writes && a.subsets = b.subsets
          && Hashtbl.length a.memory = Hashtbl.length b.memory
          && Hashtbl.fold
               (fun n buf acc ->
                 acc
                 &&
                 match Interp.Value.buffer_opt b.memory n with
                 | Some buf' -> bits buf = bits buf'
                 | None -> false)
               a.memory true
        in
        (match (o_tree, o_plan) with
        | Ok a, Ok b when same a b -> ()
        | _ ->
            Printf.eprintf "interp bench: tier divergence on %s\n" name;
            exit 1);
        let lowered, t_lower = time (fun () -> Interp.Plan.compile g) in
        let plan, t_bind =
          time (fun () ->
              match lowered ~symbols with
              | Ok p -> p
              | Error f -> (Printf.eprintf "%s: %s\n" name (Interp.Exec.fault_to_string f); exit 1))
        in
        let t_compile = t_lower +. t_bind in
        let _, t_tree =
          time (fun () ->
              for _ = 1 to trials do
                ignore (Interp.Exec.run_tree g ~symbols ~inputs)
              done)
        in
        let plan_loop () =
          snd
            (time (fun () ->
                 for _ = 1 to trials do
                   ignore (Interp.Plan.execute plan ~inputs)
                 done))
        in
        let words_before = Gc.minor_words () in
        let t_first = plan_loop () in
        let plan_words = (Gc.minor_words () -. words_before) /. float_of_int trials in
        let t_plan = Float.min t_first (Float.min (plan_loop ()) (plan_loop ())) in
        let tps_tree = float_of_int trials /. t_tree in
        let tps_plan = float_of_int trials /. t_plan in
        let speedup = t_tree /. t_plan in
        if speedup < !worst then worst := speedup;
        Printf.printf "%-10s %8.3fms %8.3fms %8.3fms %9.0f/s %9.0f/s %8.2fx %12.0f\n" name
          (1000. *. t_compile) (1000. *. t_lower) (1000. *. t_bind) tps_tree tps_plan speedup
          plan_words;
        Printf.sprintf
          "{\"bench\":\"interp\",\"workload\":\"%s\",\"trials\":%d,\"compile_ms\":%.3f,\"lower_ms\":%.3f,\"bind_ms\":%.3f,\"tree_trials_per_s\":%.1f,\"plan_trials_per_s\":%.1f,\"tree_total_s\":%.4f,\"plan_total_s\":%.4f,\"speedup\":%.3f,\"plan_minor_words\":%.0f}"
          name trials (1000. *. t_compile) (1000. *. t_lower) (1000. *. t_bind) tps_tree tps_plan
          t_tree t_plan speedup plan_words)
      workloads
  in
  let oc = open_out "BENCH_interp.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_interp.json (%d rows)\n" (List.length rows);
  if !worst < min_speedup then begin
    Printf.eprintf "interp bench: worst speedup %.2fx below required %.2fx\n" !worst min_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Program generator: production rate, admission cost, difftest parity  *)
(* ------------------------------------------------------------------ *)

let gen_bench () =
  header "Generator: graphs/s, admission fraction per style, difftest throughput";
  let seed = 42 in
  (* raw production rate: candidates per second, no admission gate *)
  let raw_n = 200 in
  let style_rows =
    List.map
      (fun (style : Gen.Styles.t) ->
        let _, t_raw =
          time (fun () ->
              for index = 0 to raw_n - 1 do
                ignore (Gen.Generate.candidate ~style ~seed index)
              done)
        in
        let graphs_per_s = float_of_int raw_n /. t_raw in
        let (_ : Gen.Generate.t list), stats =
          Gen.Admit.batch ~style ~seed ~n:20 ()
        in
        let fraction =
          float_of_int stats.Gen.Admit.admitted /. float_of_int stats.Gen.Admit.generated
        in
        let _, t_gate =
          time (fun () -> ignore (Gen.Admit.batch ~style ~seed ~n:20 ()))
        in
        Printf.printf "%-8s %8.0f graphs/s   admission %3.0f%%   gate %.2f s for 20 admits\n"
          style.Gen.Styles.name graphs_per_s (100. *. fraction) t_gate;
        Printf.sprintf
          "{\"bench\":\"gen\",\"row\":\"style\",\"style\":\"%s\",\"graphs_per_s\":%.1f,\"generated\":%d,\"admitted\":%d,\"admission_fraction\":%.4f,\"gate_wall_s\":%.3f}"
          style.Gen.Styles.name graphs_per_s stats.Gen.Admit.generated stats.Gen.Admit.admitted
          fraction t_gate)
      Gen.Styles.all
  in
  (* differential-testing throughput: identity-transform difftest over a
     generated program vs a hand-built workload of similar shape *)
  let difftest_rate name g =
    let x = Faultlab.Mutate.identity () in
    let site = List.hd (x.Transforms.Xform.find g) in
    let trials = 50 in
    let config =
      {
        Fuzzyflow.Difftest.default_config with
        trials;
        max_size = 8;
        concretization = List.map (fun s -> (s, 8)) (Sdfg.Graph.all_free_syms g);
      }
    in
    ignore (Fuzzyflow.Difftest.test_instance ~config g x site);
    let reps = 5 in
    let _, t =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Fuzzyflow.Difftest.test_instance ~config g x site)
          done)
    in
    let per_s = float_of_int (reps * trials) /. t in
    Printf.printf "difftest over %-20s %8.0f trials/s\n" name per_s;
    (name, per_s)
  in
  let fusion = List.hd Gen.Styles.all in
  let admitted, _ = Gen.Admit.batch ~style:fusion ~seed ~n:1 () in
  let gen_name, gen_rate =
    match admitted with
    | c :: _ -> difftest_rate c.Gen.Generate.name c.Gen.Generate.graph
    | [] -> ("none", 0.)
  in
  let hand_name, hand_rate = difftest_rate "scale" (Faultlab.Plan.workload_by_name "scale") in
  let summary =
    Printf.sprintf
      "{\"bench\":\"gen\",\"row\":\"summary\",\"seed\":%d,\"difftest_generated\":\"%s\",\"generated_trials_per_s\":%.1f,\"difftest_handbuilt\":\"%s\",\"handbuilt_trials_per_s\":%.1f}"
      seed gen_name gen_rate hand_name hand_rate
  in
  let rows = style_rows @ [ summary ] in
  let oc = open_out "BENCH_gen.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_gen.json (%d rows)\n" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Distributed campaign service: wall-clock and recovery cost of remote
   dispatch — one local worker alone, then with two live remote workers
   added, then with one of those SIGKILLed mid-campaign. Every scenario must
   reproduce the reference verdicts; the chaos row also reports what the
   recovery cost in retries. *)
let dist () =
  header "Distributed service: local vs added remote workers vs worker loss";
  let programs =
    [ ("scale", Workloads.Npbench.scale ()); ("axpy", Workloads.Npbench.axpy ()) ]
  in
  let xforms = Transforms.Registry.as_shipped () in
  let config =
    {
      Fuzzyflow.Difftest.default_config with
      trials = 100;
      max_size = 12;
      concretization = [ ("N", 8) ];
    }
  in
  let instance_lines path =
    let ic = open_in path in
    let ls = ref [] in
    (try
       while true do
         let l = input_line ic in
         if String.length l >= 18 && String.sub l 0 18 = {|{"type":"instance"|} then
           ls := l :: !ls
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !ls
  in
  let footer_of path =
    List.find_map
      (function Engine.Journal.Footer f -> Some f | _ -> None)
      (List.rev (Engine.Journal.load_resume ~repair:false path).Engine.Journal.records)
  in
  let spawn_worker () =
    let sock, port = Engine.Supervisor.listen_on ~port:0 () in
    match Unix.fork () with
    | 0 ->
        (try Engine.Supervisor.serve_worker ~catalog:xforms sock with _ -> ());
        Unix._exit 0
    | pid ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        (pid, port)
  in
  let stop_worker pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let run_scenario name ~workers ~kill_after =
    let path = Filename.temp_file "ffbench_dist" ".jsonl" in
    let spawned = List.init workers (fun _ -> spawn_worker ()) in
    let seen = ref 0 in
    let sink l =
      if String.length l >= 18 && String.sub l 0 18 = {|{"type":"instance"|} then begin
        incr seen;
        match kill_after with
        | Some k when !seen = k -> (
            match spawned with
            | (pid, _) :: _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            | [] -> ())
        | _ -> ()
      end
    in
    let c, t =
      time (fun () ->
          Engine.Worker.run_campaign
            ~options:
              {
                Engine.Worker.default_options with
                journal_path = Some path;
                workers =
                  List.map
                    (fun (_, port) -> { Engine.Supervisor.host = "127.0.0.1"; port })
                    spawned;
                journal_sink = (if kill_after = None then None else Some sink);
              }
            ~config programs xforms)
    in
    List.iter (fun (pid, _) -> stop_worker pid) spawned;
    (name, c, t, path)
  in
  let scenarios =
    [
      run_scenario "local-j1" ~workers:0 ~kill_after:None;
      run_scenario "remote-2w" ~workers:2 ~kill_after:None;
      run_scenario "remote-2w-kill1" ~workers:2 ~kill_after:(Some 1);
    ]
  in
  let _, _, _, ref_path = List.hd scenarios in
  let reference = instance_lines ref_path in
  Printf.printf "%-18s %10s %10s %8s %8s %10s\n" "scenario" "wall (s)" "inst/s" "retries"
    "lost" "verdicts";
  let rows =
    List.map
      (fun (name, (c : Fuzzyflow.Campaign.t), t, path) ->
        let identical = instance_lines path = reference in
        (* the whole point of the supervisor: any topology, any failure
           schedule, byte-identical verdicts *)
        assert identical;
        let retries, lost =
          match footer_of path with
          | Some f -> (f.Engine.Journal.retries, f.Engine.Journal.worker_lost)
          | None -> (0, 0)
        in
        Printf.printf "%-18s %10.2f %10.1f %8d %8d %10s\n" name t
          (float_of_int c.Fuzzyflow.Campaign.totals.instances /. t)
          retries lost
          (if identical then "identical" else "DIVERGED");
        Sys.remove path;
        Printf.sprintf
          "{\"bench\":\"dist\",\"scenario\":\"%s\",\"wall_s\":%.3f,\"instances\":%d,\"instances_per_s\":%.1f,\"retries\":%d,\"worker_lost\":%d,\"verdicts_identical\":%b}"
          name t c.Fuzzyflow.Campaign.totals.instances
          (float_of_int c.Fuzzyflow.Campaign.totals.instances /. t)
          retries lost identical)
      scenarios
  in
  let oc = open_out "BENCH_dist.json" in
  output_string oc (String.concat "\n" rows);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_dist.json (%d rows)\n" (List.length rows)

let experiments =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("bert", bert);
    ("speedup", speedup);
    ("fuzzmodes", fuzzmodes);
    ("sddmm", sddmm);
    ("table2", table2);
    ("cloudsc", cloudsc);
    ("ablation", ablation);
    ("equiv", equiv);
    ("analysis", analysis);
    ("deps", deps);
    ("engine", engine);
    ("dist", dist);
    ("faultlab", faultlab);
    ("gen", gen_bench);
    ("scaling", scaling);
    ("futurework", futurework);
    ("micro", micro);
    ("interp", interp);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> [ "all" ]
  in
  let run name =
    match List.assoc_opt name experiments with
    | Some f -> f ()
    | None ->
        Printf.eprintf "unknown experiment %s; available: all %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1
  in
  if requested = [ "all" ] then List.iter (fun (_, f) -> f ()) experiments
  else List.iter run requested;
  print_newline ()
