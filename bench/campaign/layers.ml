(* Per-layer metrics, derived from the traced run's span self times and
   counters.

   Layers that only some workloads run (the certify and static gates, the
   corpus, the journal, the generator) are reported as shares of the traced
   campaign wall-clock rather than in seconds: on the workloads that bypass
   them the value is an honest 0, and a ratio of 0 is not a time that reads
   the same on every run. *)

type metric = { name : string; unit : string; value : float }

(* Spans that are glue around the layers rather than a layer. Their self
   time is what the trace does not attribute. *)
let glue = [ "campaign"; "instance"; "difftest" ]

type inputs = {
  spans : Trace.span list;
  trace : Trace.t;
  j : int;  (** engine workers; 1 for in-process campaigns *)
  untraced_wall_s : float;
  untraced_elapsed_s : float;  (** sum of the program's own per-instance difftest times *)
  first_fail_s : float;
  setup_s : float;  (** one traced set-up *)
  admit_s : float;  (** the part of it spent in generator admission *)
  admitted : int * int;
}

let ratio a b = if b = 0. then 0. else a /. b

(* Value at the highest percentile with at least ten samples beyond it, and
   that percentile; the median when there are too few samples. *)
let tail sorted =
  let n = Array.length sorted in
  if n <= 20 then (Record.median (Array.to_list sorted), 50.)
  else
    let k = n - 10 in
    (sorted.(k - 1), 100. *. float_of_int k /. float_of_int n)

let derive i =
  let totals = Trace.self_totals i.spans in
  let self name = fst (Option.value ~default:(0., 0.) (Hashtbl.find_opt totals name)) in
  let alloc_mw names =
    List.fold_left
      (fun acc n -> acc +. snd (Option.value ~default:(0., 0.) (Hashtbl.find_opt totals n)))
      0. names
    /. 1e6
  in
  let durations name =
    List.filter_map
      (fun (s : Trace.span) -> if s.name = name then Some (s.t1 -. s.t0) else None)
      i.spans
  in
  let sum = List.fold_left ( +. ) 0. in
  let c = Trace.counter i.trace in
  let wall = sum (durations "campaign") in
  let share name = ratio (self name) wall in
  let exec_o = self "interp.exec_original" and exec_x = self "interp.exec_transformed" in
  let instance_ms = Array.of_list (List.map (fun d -> 1000. *. d) (durations "instance")) in
  Array.sort compare instance_ms;
  let tail_ms, tail_pct = tail instance_ms in
  let admitted, generated = i.admitted in
  let m name unit value = { name; unit; value } in
  ( [
      m "interp.exec_transformed_s" "s" exec_x;
      m "interp.exec_original_s" "s" exec_o;
      m "interp.hang_share" "ratio" (ratio (c "interp.hang_s") (exec_o +. exec_x));
      m "interp.hang_trials" "count" (c "interp.hang_trials");
      m "interp.steps" "count" (c "interp.steps");
      m "interp.trials" "count" (c "interp.trials");
      m "interp.alloc_mw" "Mw"
        (alloc_mw
           [
             "interp.exec_original"; "interp.exec_transformed"; "interp.compile"; "interp.digest";
           ]);
      m "interp.compile_s" "s" (self "interp.compile");
      m "interp.compiles" "count" (c "interp.compiles");
      m "interp.cache_hit_ratio" "ratio"
        (ratio (c "interp.cache_hits") (c "interp.cache_hits" +. c "interp.compiles"));
      m "interp.digest_s" "s" (self "interp.digest");
      m "min_cut.minimize_s" "s" (self "min_cut.minimize");
      m "min_cut.input_reduction" "ratio"
        (1. -. ratio (c "min_cut.minimized_elements") (c "min_cut.original_elements"));
      m "cutout.extract_s" "s" (self "cutout.extract");
      m "cutout.input_elements" "count" (c "min_cut.original_elements");
      m "transforms.find_s" "s" (self "transforms.find");
      m "transforms.apply_s" "s" (self "transforms.apply");
      m "validate.check_s" "s" (self "validate.check");
      m "constraints.derive_s" "s" (self "constraints.derive");
      m "sampler.sample_s" "s" (self "sampler.sample");
      m "difftest.compare_s" "s" (self "difftest.compare");
      m "equiv.certify_share" "ratio" (share "equiv.certify");
      m "equiv.equivalent_ratio" "ratio" (ratio (c "equiv.equivalent") (c "equiv.certified"));
      m "equiv.alloc_mw" "Mw" (alloc_mw [ "equiv.certify" ]);
      m "audit.check_share" "ratio" (share "audit.check");
      m "delta.verify_share" "ratio" (share "delta.verify");
      m "delta.dep_pairs" "count" (c "delta.dep_pairs");
      m "delta.decided_ratio" "ratio" (ratio (c "delta.decided") (c "delta.dep_pairs"));
      m "delta.alloc_mw" "Mw" (alloc_mw [ "delta.verify" ]);
      m "corpus.save_share" "ratio" (share "corpus.save");
      m "corpus.saves" "count" (c "corpus.saves");
      m "corpus.saved_ratio" "ratio" (ratio (c "corpus.saves") (c "corpus.attempts"));
      m "journal.encode_share" "ratio" (share "journal.encode");
      m "journal.bytes" "count" (c "journal.bytes");
      m "engine.parallel_efficiency" "ratio"
        (ratio
           (sum (durations "instance") +. self "corpus.save" +. self "journal.encode")
           (float_of_int i.j *. i.untraced_wall_s));
      m "engine.first_fail_s" "s" i.first_fail_s;
      m "gen.admit_share" "ratio" (ratio i.admit_s i.setup_s);
      m "gen.admission_ratio" "ratio" (ratio (float_of_int admitted) (float_of_int generated));
      m "instance.ms_p50" "ms" (Record.median (Array.to_list instance_ms));
      m "instance.ms_tail" "ms" tail_ms;
      m "trace.coverage" "ratio"
        (1. -. ratio (List.fold_left (fun a n -> a +. self n) 0. glue) wall);
      (* the difftest part of each instance is timed by the program itself,
         so the same stretch of work is compared traced and untraced. The
         engine's workers time it while they share the cores with each other
         and with the parent's corpus replays, and the serial re-drive runs
         alone, so on the engine workload the value reads low. *)
      m "trace.overhead" "ratio"
        (if i.untraced_elapsed_s = 0. then 0.
         else (sum (durations "difftest") /. i.untraced_elapsed_s) -. 1.);
    ],
    tail_pct )

(* The busiest layers by self time, for the human-readable report. *)
let breakdown spans =
  let totals = Trace.self_totals spans in
  let wall =
    List.fold_left
      (fun a (s : Trace.span) -> if s.name = "campaign" then a +. (s.t1 -. s.t0) else a)
      0. spans
  in
  Hashtbl.fold (fun name (time, _) acc -> (name, time, ratio time wall) :: acc) totals []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
