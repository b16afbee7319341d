(* Smoke test of the campaign benchmark:

     smoke.exe MAIN_EXE BENCHMARK_JSON DIGESTS_JSON

   runs a reduced slice of every workload through the benchmark executable,
   once untraced and twice traced, and checks that each run passes its own
   verdict checks (including the committed smoke digests), prints every
   metric BENCHMARK.json names with its unit, writes spans that nest, and
   that the count metrics repeat exactly between the two traced runs. *)

module Json = Engine.Journal.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL " ^ s))
    fmt

let declared spec key =
  List.map
    (fun m -> (Json.str (Json.field m "name"), Json.str (Json.field m "unit")))
    (Json.arr (Json.field spec key))

(* Runs the benchmark and returns the metrics of its last line. *)
let run ~main ~digests ~out ~name ~trace =
  let args =
    [|
      main; "--smoke"; "--workload"; name; "--seed"; "42"; "--trace"; trace;
      "--out"; out; "--digests"; digests;
    |]
  in
  let ic = Unix.open_process_args_in main args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s --trace %s exited non-zero:\n%s" name trace (String.concat "\n" lines));
  let last = Json.of_string (List.nth lines (List.length lines - 1)) in
  if not (Json.bool (Json.field last "correct")) then
    fail "%s --trace %s: correct is false" name trace;
  match Json.field last "metrics" with
  | Json.Obj kvs ->
      List.map
        (fun (k, m) -> (k, (Json.num (Json.field m "value"), Json.str (Json.field m "unit"))))
        kvs
  | _ -> []

let check_metrics ~name ~what expected printed =
  List.iter
    (fun (metric, unit) ->
      match List.assoc_opt metric printed with
      | Some (_, u) when u = unit -> ()
      | Some (_, u) -> fail "%s: %s %s printed with unit %s, declared %s" name what metric u unit
      | None -> fail "%s: %s %s not printed" name what metric)
    expected;
  if List.length printed <> List.length expected then
    fail "%s: %d %s printed, %d declared" name (List.length printed) what (List.length expected)

let () =
  let main = Sys.argv.(1) and spec = Json.of_string (Record.read_file Sys.argv.(2)) in
  let main =
    if Filename.is_implicit main then Filename.concat Filename.current_dir_name main else main
  in
  let digests = Sys.argv.(3) in
  let end_to_end = declared spec "end_to_end" and per_layer = declared spec "per_layer" in
  let names =
    List.map (fun w -> Json.str (Json.field w "name")) (Json.arr (Json.field spec "workloads"))
  in
  if names <> List.map (fun (w : Suite.t) -> w.name) Suite.all then
    fail "BENCHMARK.json workloads %s differ from the benchmark's" (String.concat "," names);
  List.iter
    (fun name ->
      check_metrics ~name ~what:"end-to-end metrics" end_to_end
        (run ~main ~digests ~out:"_smoke/untraced" ~name ~trace:"0");
      let traced =
        List.map
          (fun out ->
            let printed = run ~main ~digests ~out ~name ~trace:"1" in
            check_metrics ~name ~what:"per-layer metrics" per_layer printed;
            let spans = Trace.read_jsonl (Filename.concat out ("spans-" ^ name ^ ".jsonl")) in
            (match Trace.check_nesting spans with
            | Ok () -> ()
            | Error e -> fail "%s: %s" name e);
            printed)
          [ "_smoke/traced-a"; "_smoke/traced-b" ]
      in
      match traced with
      | [ a; b ] ->
          List.iter
            (fun (metric, (v, unit)) ->
              if unit = "count" || unit = "Mw" then
                match List.assoc_opt metric b with
                | Some (v', _) when v' = v -> ()
                | Some (v', _) -> fail "%s: %s reads %.17g, then %.17g" name metric v v'
                | None -> ())
            a
      | _ -> ())
    names;
  if !failures > 0 then exit 1;
  print_endline "campaign benchmark smoke: OK"
