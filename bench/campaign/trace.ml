(* In-memory span recorder for the traced re-drive.

   A span is one call into a layer, timed on the monotonic clock, with the
   span that was open when it started as its parent and the instance it
   belongs to. Spans stay in memory while the campaign runs and are written
   out as JSONL once it ends, so tracing costs no I/O on the measured path.
   Counters sit beside the spans for the quantities that are not times
   (steps, compiles, bytes). *)

module Json = Engine.Journal.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated on the OCaml heap so far. Minor words plus the words
   allocated directly in the major heap; promotions are not new allocation.
   The count only depends on the code that ran, so it repeats exactly. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  instance : int;  (** queue index of the instance, -1 outside one *)
  t0 : float;
  t1 : float;
  alloc_w : float;  (** words allocated while the span was open *)
}

type t = {
  mutable spans : span list;  (** closed spans, newest first *)
  mutable stack : (int * string * float * float) list;  (** open: id, name, start, alloc *)
  mutable next_id : int;
  mutable instance : int;
  mutable last : float;  (** duration of the most recently closed span *)
  counters : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; stack = []; next_id = 0; instance = -1; last = 0.; counters = Hashtbl.create 32 }

let set_instance t i = t.instance <- i

let add t name v =
  Hashtbl.replace t.counters name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with (p, _, _, _) :: _ -> p | [] -> -1 in
  let a0 = alloc_words () in
  let t0 = now () in
  t.stack <- (id, name, t0, a0) :: t.stack;
  let close () =
    let t1 = now () in
    let a1 = alloc_words () in
    t.stack <- List.tl t.stack;
    t.last <- t1 -. t0;
    t.spans <- { id; parent; name; instance = t.instance; t0; t1; alloc_w = a1 -. a0 } :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let last_duration t = t.last
let spans t = List.rev t.spans

(* ---------------- derived quantities ---------------- *)

(* Self time and self allocation per span name: a span's own figure minus
   what its direct children account for. *)
let self_totals spans =
  let child_time = Hashtbl.create 256 and child_alloc = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let bump tbl v =
          let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.parent) in
          Hashtbl.replace tbl s.parent (v +. prev)
        in
        bump child_time (s.t1 -. s.t0);
        bump child_alloc s.alloc_w
      end)
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let sub tbl v = v -. Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let time = sub child_time (s.t1 -. s.t0) and alloc = sub child_alloc s.alloc_w in
      let t0, a0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (t0 +. time, a0 +. alloc))
    spans;
  totals

(* Every child lies inside its parent's interval, and siblings do not
   overlap. Returns the first violation found. *)
let check_nesting spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let last_child_end = Hashtbl.create 256 in
  List.fold_left
    (fun acc s ->
      match acc with
      | Error _ -> acc
      | Ok () when s.t1 < s.t0 ->
          Error (Printf.sprintf "span %d (%s) ends before it starts" s.id s.name)
      | Ok () when s.parent < 0 -> Ok ()
      | Ok () -> (
          match Hashtbl.find_opt by_id s.parent with
          | None -> Error (Printf.sprintf "span %d (%s) has no parent %d" s.id s.name s.parent)
          | Some p ->
              let prev = Option.value ~default:p.t0 (Hashtbl.find_opt last_child_end p.id) in
              Hashtbl.replace last_child_end p.id s.t1;
              if s.t0 < prev || s.t1 > p.t1 then
                Error (Printf.sprintf "span %d (%s) escapes parent %d (%s)" s.id s.name p.id p.name)
              else Ok ()))
    (Ok ()) spans

(* ---------------- JSONL ---------------- *)

let span_to_json ~origin s =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("parent", Json.Num (float_of_int s.parent));
      ("name", Json.Str s.name);
      ("instance", Json.Num (float_of_int s.instance));
      ("start_s", Json.Num (s.t0 -. origin));
      ("end_s", Json.Num (s.t1 -. origin));
      ("alloc_w", Json.Num s.alloc_w);
    ]

(* Times read back are relative to the first span's start. *)
let span_of_json j =
  let num k = Json.num (Json.field j k) in
  {
    id = Json.int (Json.field j "id");
    parent = Json.int (Json.field j "parent");
    name = Json.str (Json.field j "name");
    instance = Json.int (Json.field j "instance");
    t0 = num "start_s";
    t1 = num "end_s";
    alloc_w = num "alloc_w";
  }

let write_jsonl path spans =
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Json.to_string (span_to_json ~origin s));
      output_char oc '\n')
    spans;
  close_out oc

let read_jsonl path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (span_of_json (Json.of_string line) :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []
