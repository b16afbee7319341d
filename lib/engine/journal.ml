module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_string s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let number_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec to_string = function
    | Null -> "null"
    | Bool b -> if b then "true" else "false"
    | Num f -> number_string f
    | Str s -> escape_string s
    | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
    | Obj kvs ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> escape_string k ^ ":" ^ to_string v) kvs)
        ^ "}"

  (* recursive-descent parser over a string cursor *)
  type cursor = { s : string; mutable pos : int }

  let fail c msg = failwith (Printf.sprintf "json: %s at offset %d" msg c.pos)
  let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

  let advance c = c.pos <- c.pos + 1

  let rec skip_ws c =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        skip_ws c
    | _ -> ()

  let expect c ch =
    match peek c with
    | Some x when x = ch -> advance c
    | _ -> fail c (Printf.sprintf "expected '%c'" ch)

  let parse_literal c lit v =
    if
      c.pos + String.length lit <= String.length c.s
      && String.sub c.s c.pos (String.length lit) = lit
    then begin
      c.pos <- c.pos + String.length lit;
      v
    end
    else fail c ("expected " ^ lit)

  let parse_string_raw c =
    expect c '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek c with
      | None -> fail c "unterminated string"
      | Some '"' -> advance c
      | Some '\\' -> (
          advance c;
          match peek c with
          | Some '"' -> Buffer.add_char buf '"'; advance c; go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance c; go ()
          | Some '/' -> Buffer.add_char buf '/'; advance c; go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance c; go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance c; go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance c; go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance c; go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance c; go ()
          | Some 'u' ->
              advance c;
              if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub c.s c.pos 4) in
              c.pos <- c.pos + 4;
              (* keep it simple: encode as UTF-8 *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> fail c "bad escape")
      | Some ch ->
          Buffer.add_char buf ch;
          advance c;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number c =
    let start = c.pos in
    let is_num_char ch =
      match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek c with Some ch -> is_num_char ch | None -> false) do
      advance c
    done;
    if c.pos = start then fail c "expected number";
    float_of_string (String.sub c.s start (c.pos - start))

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | Some '{' ->
        advance c;
        skip_ws c;
        if peek c = Some '}' then begin advance c; Obj [] end
        else begin
          let kvs = ref [] in
          let rec members () =
            skip_ws c;
            let k = parse_string_raw c in
            skip_ws c;
            expect c ':';
            let v = parse_value c in
            kvs := (k, v) :: !kvs;
            skip_ws c;
            match peek c with
            | Some ',' -> advance c; members ()
            | Some '}' -> advance c
            | _ -> fail c "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !kvs)
        end
    | Some '[' ->
        advance c;
        skip_ws c;
        if peek c = Some ']' then begin advance c; Arr [] end
        else begin
          let elems = ref [] in
          let rec elements () =
            let v = parse_value c in
            elems := v :: !elems;
            skip_ws c;
            match peek c with
            | Some ',' -> advance c; elements ()
            | Some ']' -> advance c
            | _ -> fail c "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !elems)
        end
    | Some '"' -> Str (parse_string_raw c)
    | Some 't' -> parse_literal c "true" (Bool true)
    | Some 'f' -> parse_literal c "false" (Bool false)
    | Some 'n' -> parse_literal c "null" Null
    | Some _ -> Num (parse_number c)
    | None -> fail c "unexpected end of input"

  let of_string s =
    let c = { s; pos = 0 } in
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage";
    v

  let mem t k = match t with Obj kvs -> List.assoc_opt k kvs | _ -> None

  let field t k =
    match mem t k with Some v -> v | None -> failwith ("json: missing field " ^ k)

  let str = function Str s -> s | _ -> failwith "json: expected string"
  let num = function Num f -> f | _ -> failwith "json: expected number"
  let int t = int_of_float (num t)
  let bool = function Bool b -> b | _ -> failwith "json: expected bool"
  let arr = function Arr l -> l | _ -> failwith "json: expected array"
end

open Fuzzyflow

type header = {
  seed : int;
  trials : int;
  j : int;
  deadline_s : float;
  programs : string list;
  xforms : string list;
}

type footer = {
  total : int;
  failed : int;
  proved : int;
  killed : int;
  trials_spent : int;
  wall_s : float;
  instances_per_s : float;
  retries : int;
  quarantined : int;
  worker_lost : int;
  recovered_records : int;
}

type record =
  | Header of header
  | Instance of Campaign.outcome
  | Footer of footer

(* ---------------- emit ---------------- *)

let json_of_site (s : Transforms.Xform.site) =
  Json.Obj
    [
      ("state", Json.Num (float_of_int s.state));
      ("nodes", Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) s.nodes));
      ("states", Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) s.states));
      ("descr", Json.Str s.descr);
    ]

let site_of_json j =
  {
    Transforms.Xform.state = Json.int (Json.field j "state");
    nodes = List.map Json.int (Json.arr (Json.field j "nodes"));
    states = List.map Json.int (Json.arr (Json.field j "states"));
    descr = Json.str (Json.field j "descr");
  }

let class_name = function
  | Difftest.Semantics -> "semantics"
  | Difftest.Input_dependent -> "input-dependent"
  | Difftest.Invalid_code -> "invalid-code"

let class_of_name = function
  | "semantics" -> Difftest.Semantics
  | "input-dependent" -> Difftest.Input_dependent
  | "invalid-code" -> Difftest.Invalid_code
  | s -> failwith ("journal: unknown failure class " ^ s)

let header_line (h : header) =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "header");
         ("version", Json.Num 1.);
         ("seed", Json.Num (float_of_int h.seed));
         ("trials", Json.Num (float_of_int h.trials));
         ("j", Json.Num (float_of_int h.j));
         ("deadline_s", Json.Num h.deadline_s);
         ("programs", Json.Arr (List.map (fun p -> Json.Str p) h.programs));
         ("xforms", Json.Arr (List.map (fun x -> Json.Str x) h.xforms));
       ])

let instance_line (o : Campaign.outcome) =
  let status_fields =
    match o.o_status with
    | Campaign.Completed -> []
    | Campaign.Timed_out { deadline_s } -> [ ("deadline_s", Json.Num deadline_s) ]
    | Campaign.Crashed { detail } -> [ ("crash_detail", Json.Str detail) ]
  in
  let verdict_fields =
    match o.o_verdict with
    | Campaign.O_passed -> [ ("verdict", Json.Str "pass") ]
    | Campaign.O_proved -> [ ("verdict", Json.Str "proved") ]
    | Campaign.O_killed -> [ ("verdict", Json.Str "killed") ]
    | Campaign.O_failed { klass; first_trial; failing_trials } ->
        [
          ("verdict", Json.Str "fail");
          ("class", Json.Str (class_name klass));
          ("first_trial", Json.Num (float_of_int first_trial));
          ("failing_trials", Json.Num (float_of_int failing_trials));
        ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("type", Json.Str "instance");
          ( "id",
            Json.Str (Campaign.instance_id ~program:o.o_program ~xform:o.o_xform o.o_site) );
          ("program", Json.Str o.o_program);
          ("xform", Json.Str o.o_xform);
          ("site", json_of_site o.o_site);
          ("status", Json.Str (Campaign.status_name o.o_status));
        ]
       @ status_fields @ verdict_fields
       (* deliberately no wall-clock field: instance records are bit-identical
          across same-seed reruns; timing lives in the footer *)
       @ [
           ("trials_run", Json.Num (float_of_int o.o_trials_run));
           ("static_flagged", Json.Bool o.o_static_flagged);
           ("dep_pairs", Json.Num (float_of_int o.o_dep_pairs));
           ("dep_decided", Json.Num (float_of_int o.o_dep_decided));
           ("dep_sampled", Json.Num (float_of_int o.o_dep_sampled));
           ("seed", Json.Num (float_of_int o.o_seed));
         ]))

let footer_line (f : footer) =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "footer");
         ("total", Json.Num (float_of_int f.total));
         ("failed", Json.Num (float_of_int f.failed));
         ("proved", Json.Num (float_of_int f.proved));
         ("killed", Json.Num (float_of_int f.killed));
         ("trials_spent", Json.Num (float_of_int f.trials_spent));
         ("wall_s", Json.Num f.wall_s);
         ("instances_per_s", Json.Num f.instances_per_s);
         ("retries", Json.Num (float_of_int f.retries));
         ("quarantined", Json.Num (float_of_int f.quarantined));
         ("worker_lost", Json.Num (float_of_int f.worker_lost));
         ("recovered_records", Json.Num (float_of_int f.recovered_records));
       ])

(* ---------------- parse ---------------- *)

let parse_line line =
  let j = Json.of_string line in
  match Json.str (Json.field j "type") with
  | "header" ->
      Header
        {
          seed = Json.int (Json.field j "seed");
          trials = Json.int (Json.field j "trials");
          j = Json.int (Json.field j "j");
          deadline_s = Json.num (Json.field j "deadline_s");
          programs = List.map Json.str (Json.arr (Json.field j "programs"));
          xforms = List.map Json.str (Json.arr (Json.field j "xforms"));
        }
  | "instance" ->
      let status =
        match Json.str (Json.field j "status") with
        | "completed" -> Campaign.Completed
        | "timeout" ->
            Campaign.Timed_out
              {
                deadline_s =
                  (match Json.mem j "deadline_s" with Some d -> Json.num d | None -> 0.);
              }
        | "crash" ->
            Campaign.Crashed
              {
                detail =
                  (match Json.mem j "crash_detail" with Some d -> Json.str d | None -> "");
              }
        | s -> failwith ("journal: unknown status " ^ s)
      in
      let verdict =
        match Json.str (Json.field j "verdict") with
        | "pass" -> Campaign.O_passed
        | "proved" -> Campaign.O_proved
        | "killed" -> Campaign.O_killed
        | "fail" ->
            Campaign.O_failed
              {
                klass = class_of_name (Json.str (Json.field j "class"));
                first_trial = Json.int (Json.field j "first_trial");
                failing_trials = Json.int (Json.field j "failing_trials");
              }
        | s -> failwith ("journal: unknown verdict " ^ s)
      in
      Instance
        {
          Campaign.o_program = Json.str (Json.field j "program");
          o_xform = Json.str (Json.field j "xform");
          o_site = site_of_json (Json.field j "site");
          o_status = status;
          o_verdict = verdict;
          o_trials_run = Json.int (Json.field j "trials_run");
          o_static_flagged = Json.bool (Json.field j "static_flagged");
          (* absent in journals written before the exact dependence tier *)
          o_dep_pairs = (match Json.mem j "dep_pairs" with Some v -> Json.int v | None -> 0);
          o_dep_decided = (match Json.mem j "dep_decided" with Some v -> Json.int v | None -> 0);
          o_dep_sampled = (match Json.mem j "dep_sampled" with Some v -> Json.int v | None -> 0);
          o_elapsed_s = (match Json.mem j "elapsed_s" with Some e -> Json.num e | None -> 0.);
          o_seed = Json.int (Json.field j "seed");
        }
  | "footer" ->
      Footer
        {
          total = Json.int (Json.field j "total");
          failed = Json.int (Json.field j "failed");
          proved = Json.int (Json.field j "proved");
          killed = Json.int (Json.field j "killed");
          trials_spent = Json.int (Json.field j "trials_spent");
          wall_s = Json.num (Json.field j "wall_s");
          instances_per_s = Json.num (Json.field j "instances_per_s");
          (* absent in journals written before the distributed service; the
             "degraded" flag older versions wrote is ignored *)
          retries = (match Json.mem j "retries" with Some v -> Json.int v | None -> 0);
          quarantined = (match Json.mem j "quarantined" with Some v -> Json.int v | None -> 0);
          worker_lost = (match Json.mem j "worker_lost" with Some v -> Json.int v | None -> 0);
          recovered_records =
            (match Json.mem j "recovered_records" with Some v -> Json.int v | None -> 0);
        }
  | s -> failwith ("journal: unknown record type " ^ s)

(* ---------------- resume with torn-tail recovery ---------------- *)

exception Corrupt of { path : string; lineno : int; detail : string }

type loaded = { records : record list; recovered_records : int }

(* A campaign killed mid-write leaves exactly one damaged record, and it is
   the file's final line: the journal is append-only and flushed record by
   record. So recovery may truncate a torn tail, but an unparseable record
   with valid records after it means the file was damaged by something other
   than a kill — resuming from it could silently skip (or re-run) work, and
   is refused with a typed error instead. *)
let load_resume ?(warn = fun (_ : string) -> ()) ?(repair = true) path =
  if not (Sys.file_exists path) then { records = []; recovered_records = 0 }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    (* split into lines, keeping each line's starting byte offset so a torn
       tail can be physically truncated *)
    let lines = ref [] in
    let start = ref 0 in
    String.iteri
      (fun i c ->
        if c = '\n' then begin
          lines := (!start, String.sub contents !start (i - !start)) :: !lines;
          start := i + 1
        end)
      contents;
    if !start < len then lines := (!start, String.sub contents !start (len - !start)) :: !lines;
    let lines =
      List.rev !lines
      |> List.mapi (fun i (off, l) -> (i + 1, off, l))
      |> List.filter (fun (_, _, l) -> String.trim l <> "")
    in
    let parsed =
      List.map
        (fun (lineno, off, l) ->
          match parse_line l with
          | r -> (lineno, off, l, Ok r)
          | exception e -> (lineno, off, l, Error (Printexc.to_string e)))
        lines
    in
    let failures = List.filter (fun (_, _, _, r) -> Result.is_error r) parsed in
    let last_lineno =
      match List.rev lines with (lineno, _, _) :: _ -> lineno | [] -> 0
    in
    match failures with
    | [] ->
        {
          records = List.filter_map (fun (_, _, _, r) -> Result.to_option r) parsed;
          recovered_records = 0;
        }
    | [ (lineno, off, l, Error _) ] when lineno = last_lineno ->
        let preview = if String.length l <= 40 then l else String.sub l 0 40 ^ "..." in
        warn
          (Printf.sprintf "%s:%d: %s torn tail record: %s" path lineno
             (if repair then "truncating" else "ignoring")
             preview);
        if repair then (try Unix.truncate path off with Unix.Unix_error _ -> ());
        {
          records = List.filter_map (fun (_, _, _, r) -> Result.to_option r) parsed;
          recovered_records = 1;
        }
    | (lineno, _, _, Error detail) :: _ -> raise (Corrupt { path; lineno; detail })
    | _ -> assert false
  end

let completed records =
  List.filter_map
    (function
      | Instance o ->
          Some (Campaign.instance_id ~program:o.Campaign.o_program ~xform:o.o_xform o.o_site, o)
      | _ -> None)
    records

let header_of records =
  List.find_map (function Header h -> Some h | _ -> None) records
