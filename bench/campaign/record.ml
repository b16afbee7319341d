(* One measured metric of one workload: the record every result file holds,
   and the comparison of two result files against the bounds BENCHMARK.json
   fixes. *)

module Json = Engine.Journal.Json

type t = {
  workload : string;
  metric : string;
  unit : string;
  median : float;
  min : float;
  reps : int;
  seed : int;
  git_rev : string;
}

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let make ~workload ~seed ~git_rev ~metric ~unit values =
  {
    workload;
    metric;
    unit;
    median = median values;
    min = List.fold_left Float.min infinity values;
    reps = List.length values;
    seed;
    git_rev;
  }

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("metric", Json.Str r.metric);
      ("unit", Json.Str r.unit);
      ("median", Json.Num r.median);
      ("min", Json.Num r.min);
      ("reps", Json.Num (float_of_int r.reps));
      ("seed", Json.Num (float_of_int r.seed));
      ("git_rev", Json.Str r.git_rev);
    ]

let of_json j =
  let f k = Json.field j k in
  {
    workload = Json.str (f "workload");
    metric = Json.str (f "metric");
    unit = Json.str (f "unit");
    median = Json.num (f "median");
    min = Json.num (f "min");
    reps = Json.int (f "reps");
    seed = Json.int (f "seed");
    git_rev = Json.str (f "git_rev");
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One record per line inside a JSON array, so result files diff well. *)
let save path records =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (to_json r)))
        records;
      output_string oc "\n]\n")

let load path = List.map of_json (Json.arr (Json.of_string (read_file path)))

(* The commit the working tree is at, read from [.git] directly so no
   process is started and nothing outside the tree is read. *)
let git_rev () =
  let read p = String.trim (read_file p) in
  match read ".git/HEAD" with
  | head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; ref ] -> ( try read (Filename.concat ".git" ref) with Sys_error _ -> ref)
      | _ -> head)
  | exception Sys_error _ -> "unknown"

(* ---------------- comparison ---------------- *)

type bound = { higher_is_better : bool; bound : float option }

(* Every metric BENCHMARK.json declares, with its direction and, for the
   end-to-end ones, its regression bound. *)
let bounds benchmark_json =
  let j = Json.of_string (read_file benchmark_json) in
  let metrics key with_bound =
    List.map
      (fun m ->
        ( Json.str (Json.field m "name"),
          {
            higher_is_better = Json.str (Json.field m "better") = "higher";
            bound = (if with_bound then Some (Json.num (Json.field m "bound")) else None);
          } ))
      (Json.arr (Json.field j key))
  in
  metrics "end_to_end" true @ metrics "per_layer" false

(* Prints each metric's change against the baseline, signed so that
   positive is worse, and returns the number of bounds exceeded. *)
let compare ~bounds ~baseline current =
  List.fold_left
    (fun regressions r ->
      match
        ( List.find_opt (fun b -> b.workload = r.workload && b.metric = r.metric) baseline,
          List.assoc_opt r.metric bounds )
      with
      | Some b, Some { higher_is_better; bound } when b.median <> 0. ->
          let change = (r.median -. b.median) /. Float.abs b.median in
          let worse = if higher_is_better then -.change else change in
          let verdict, bad =
            match bound with
            | Some limit when worse > limit ->
                (Printf.sprintf "REGRESSION (bound %.0f%%)" (100. *. limit), 1)
            | Some limit -> (Printf.sprintf "ok (bound %.0f%%)" (100. *. limit), 0)
            | None -> ("", 0)
          in
          Printf.printf "compare %-17s %-28s %14.6g -> %14.6g %-6s %+7.1f%% worse  %s\n" r.workload
            r.metric b.median r.median r.unit (100. *. worse) verdict;
          regressions + bad
      | _ -> regressions)
    0 current
