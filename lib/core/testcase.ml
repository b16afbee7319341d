type t = {
  name : string;
  cutout : Cutout.t;
  symbols : (string * int) list;
  inputs : (string * float array) list;
  failure : Difftest.failure_kind;
  step_limit : int;
}

let site_slug = Transforms.Xform.site_slug

(* Reconstruct the fault-inducing inputs: re-draw the deterministic trial
   sequence up to the failing trial. *)
let of_report ?(config = Difftest.default_config) ~original (report : Difftest.report) =
  match report.verdict with
  | Difftest.Pass -> None
  | Difftest.Fail f ->
      let symbols, inputs =
        if f.first_trial <= 0 then ([], [])
        else
          let constraints =
            Constraints.derive ~max_size:config.max_size ~custom:config.custom_constraints
              ~original report.cutout
          in
          let rng = Sampler.create config.seed in
          let rec draw k =
            let trial = Sampler.trial rng constraints report.cutout in
            if k = f.first_trial then trial else draw (k + 1)
          in
          draw 1
      in
      Some
        {
          name = report.xform_name ^ "." ^ site_slug report.site;
          cutout = report.cutout;
          symbols;
          inputs;
          failure = f.kind;
          step_limit = config.step_limit;
        }

let render tc =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "=== FuzzyFlow test case: %s ===\n" tc.name);
  Buffer.add_string buf (Format.asprintf "%a@." Cutout.pp tc.cutout);
  Buffer.add_string buf (Format.asprintf "failure: %a@." Difftest.pp_failure tc.failure);
  Buffer.add_string buf "symbols:\n";
  List.iter (fun (s, v) -> Buffer.add_string buf (Printf.sprintf "  %s = %d\n" s v)) tc.symbols;
  Buffer.add_string buf "inputs:\n";
  List.iter
    (fun (c, arr) ->
      let n = Array.length arr in
      let preview = Array.to_list (Array.sub arr 0 (min 8 n)) in
      Buffer.add_string buf
        (Printf.sprintf "  %s: %d elements [%s%s]\n" c n
           (String.concat ", " (List.map (Printf.sprintf "%g") preview))
           (if n > 8 then ", ..." else "")))
    tc.inputs;
  Buffer.contents buf

(* ------------- machine-readable bundle (.case.dat) ------------- *)

(* One key per line; strings that may contain whitespace (fault contexts,
   error messages) are escaped so every record stays line-oriented. Floats
   are stored as IEEE-754 bit patterns for a bit-exact round trip. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | ' ' -> Buffer.add_string buf "\\s"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char buf '\\'
       | 's' -> Buffer.add_char buf ' '
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let float_bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let bits_float s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))
let ints l = String.concat "," (List.map string_of_int l)

let of_ints s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

let fault_words = function
  | None -> [ "none" ]
  | Some (Interp.Exec.Out_of_bounds { container; index; shape; context }) ->
      [
        "oob";
        container;
        ints (Array.to_list index);
        ints (Array.to_list shape);
        escape context;
      ]
  | Some (Interp.Exec.Hang { steps }) -> [ "hang"; string_of_int steps ]
  | Some (Interp.Exec.Invalid_graph msg) -> [ "invalidg"; escape msg ]
  | Some (Interp.Exec.Runtime_error msg) -> [ "runtime"; escape msg ]

let fault_of_words = function
  | [ "none" ] -> None
  | [ "oob"; container; index; shape; context ] ->
      Some
        (Interp.Exec.Out_of_bounds
           {
             container;
             index = Array.of_list (of_ints index);
             shape = Array.of_list (of_ints shape);
             context = unescape context;
           })
  | [ "hang"; steps ] -> Some (Interp.Exec.Hang { steps = int_of_string steps })
  | [ "invalidg"; msg ] -> Some (Interp.Exec.Invalid_graph (unescape msg))
  | [ "runtime"; msg ] -> Some (Interp.Exec.Runtime_error (unescape msg))
  | ws -> failwith ("testcase: bad fault encoding: " ^ String.concat " " ws)

let failure_line = function
  | Difftest.Numerical { container; flat_index; original; transformed } ->
      Printf.sprintf "numerical %s %d %s %s" container flat_index (float_bits original)
        (float_bits transformed)
  | Difftest.Fault_divergence { original; transformed } ->
      Printf.sprintf "fault %s | %s"
        (String.concat " " (fault_words original))
        (String.concat " " (fault_words transformed))
  | Difftest.Invalid_transformed msg -> Printf.sprintf "invalid %s" (escape msg)

let failure_of_line line =
  match String.split_on_char ' ' line with
  | "numerical" :: container :: flat_index :: original :: [ transformed ] ->
      Difftest.Numerical
        {
          container;
          flat_index = int_of_string flat_index;
          original = bits_float original;
          transformed = bits_float transformed;
        }
  | "fault" :: rest ->
      let rec split_bar acc = function
        | "|" :: r -> (List.rev acc, r)
        | w :: r -> split_bar (w :: acc) r
        | [] -> failwith "testcase: fault encoding missing separator"
      in
      let l, r = split_bar [] rest in
      Difftest.Fault_divergence { original = fault_of_words l; transformed = fault_of_words r }
  | "invalid" :: rest -> Difftest.Invalid_transformed (unescape (String.concat " " rest))
  | _ -> failwith ("testcase: bad failure line: " ^ line)

let to_dat tc =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "fuzzyflow-case 1";
  line "name %s" tc.name;
  (match tc.cutout.kind with
  | Cutout.Dataflow { state; nodes } -> line "kind dataflow %d %s" state (ints nodes)
  | Cutout.Multistate { states } -> line "kind multistate %s" (ints states));
  line "inputcfg %s" (String.concat " " tc.cutout.input_config);
  line "sysstate %s" (String.concat " " tc.cutout.system_state);
  line "freesyms %s" (String.concat " " tc.cutout.free_symbols);
  List.iter (fun (s, v) -> line "symbol %s %d" s v) tc.symbols;
  List.iter
    (fun (c, arr) ->
      line "input %s %d" c (Array.length arr);
      line "%s" (String.concat " " (List.map float_bits (Array.to_list arr))))
    tc.inputs;
  line "failure %s" (failure_line tc.failure);
  line "steplimit %d" tc.step_limit;
  Buffer.contents buf

let of_dat ~program content =
  let lines =
    String.split_on_char '\n' content |> List.filter (fun l -> String.trim l <> "")
  in
  let rest s prefix = String.sub s (String.length prefix) (String.length s - String.length prefix) in
  let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "") in
  match lines with
  | magic :: lines when String.length magic >= 15 && String.sub magic 0 15 = "fuzzyflow-case " ->
      let name = ref "" in
      let kind = ref None in
      let input_config = ref [] in
      let system_state = ref [] in
      let free_symbols = ref [] in
      let symbols = ref [] in
      let inputs = ref [] in
      let failure = ref None in
      (* bundles written before the step limit was recorded replay at the
         interpreter's default *)
      let step_limit = ref Interp.Exec.default_config.Interp.Exec.step_limit in
      let rec go = function
        | [] -> ()
        | l :: ls when String.length l >= 5 && String.sub l 0 5 = "name " ->
            name := rest l "name ";
            go ls
        | l :: ls when String.length l >= 5 && String.sub l 0 5 = "kind " ->
            (match words (rest l "kind ") with
            | "dataflow" :: state :: nodes ->
                kind :=
                  Some
                    (Cutout.Dataflow
                       {
                         state = int_of_string state;
                         nodes = of_ints (String.concat "" nodes);
                       })
            | [ "multistate"; states ] -> kind := Some (Cutout.Multistate { states = of_ints states })
            | [ "multistate" ] -> kind := Some (Cutout.Multistate { states = [] })
            | _ -> failwith ("testcase: bad kind line: " ^ l));
            go ls
        | l :: ls when String.length l >= 9 && String.sub l 0 9 = "inputcfg " ->
            input_config := words (rest l "inputcfg ");
            go ls
        | l :: ls when l = "inputcfg" -> input_config := []; go ls
        | l :: ls when String.length l >= 9 && String.sub l 0 9 = "sysstate " ->
            system_state := words (rest l "sysstate ");
            go ls
        | l :: ls when l = "sysstate" -> system_state := []; go ls
        | l :: ls when String.length l >= 9 && String.sub l 0 9 = "freesyms " ->
            free_symbols := words (rest l "freesyms ");
            go ls
        | l :: ls when l = "freesyms" -> free_symbols := []; go ls
        | l :: ls when String.length l >= 7 && String.sub l 0 7 = "symbol " -> (
            match words (rest l "symbol ") with
            | [ s; v ] ->
                symbols := (s, int_of_string v) :: !symbols;
                go ls
            | _ -> failwith ("testcase: bad symbol line: " ^ l))
        | l :: ls when String.length l >= 6 && String.sub l 0 6 = "input " -> (
            match (words (rest l "input "), ls) with
            | [ c; n ], data :: ls ->
                let n = int_of_string n in
                let vals = words data in
                if List.length vals <> n then
                  failwith (Printf.sprintf "testcase: input %s: expected %d values" c n);
                inputs := (c, Array.of_list (List.map bits_float vals)) :: !inputs;
                go ls
            | _ -> failwith ("testcase: bad input line: " ^ l))
        | l :: ls when String.length l >= 8 && String.sub l 0 8 = "failure " ->
            failure := Some (failure_of_line (rest l "failure "));
            go ls
        | l :: ls when String.length l >= 10 && String.sub l 0 10 = "steplimit " -> (
            match int_of_string_opt (rest l "steplimit ") with
            | Some v when v > 0 ->
                step_limit := v;
                go ls
            | _ -> failwith ("testcase: bad step limit line: " ^ l))
        | l :: _ -> failwith ("testcase: unknown line: " ^ l)
      in
      go lines;
      let kind = match !kind with Some k -> k | None -> failwith "testcase: missing kind" in
      let failure =
        match !failure with Some f -> f | None -> failwith "testcase: missing failure"
      in
      {
        name = !name;
        cutout =
          {
            Cutout.program;
            kind;
            input_config = !input_config;
            system_state = !system_state;
            free_symbols = !free_symbols;
          };
        symbols = List.rev !symbols;
        inputs = List.rev !inputs;
        failure;
        step_limit = !step_limit;
      }
  | _ -> failwith "testcase: not a fuzzyflow-case file"

let save dir tc =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let safe c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
    | _ -> '_'
  in
  let base = Filename.concat dir (String.map safe tc.name) in
  let txt = base ^ ".case.txt" in
  let dat = base ^ ".case.dat" in
  let dot = base ^ ".cutout.dot" in
  let sdfg = base ^ ".cutout.sdfg" in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write txt (render tc);
  write dat (to_dat tc);
  write dot (Sdfg.Dot.to_dot tc.cutout.program);
  write sdfg (Sdfg.Serialize.to_string tc.cutout.program);
  [ txt; dat; dot; sdfg ]

let base_of_path path =
  let suffixes = [ ".case.txt"; ".case.dat"; ".cutout.dot"; ".cutout.sdfg" ] in
  match List.find_opt (fun s -> Filename.check_suffix path s) suffixes with
  | Some s -> String.sub path 0 (String.length path - String.length s)
  | None -> path

type load_error = { path : string; reason : string }

(* A saved bundle crosses machines and survives campaigns; by the time it is
   reloaded it may be truncated, bit-rotted, or half-synced. Every parse
   failure — ours or the serializer's — lands as a typed error, never an
   exception. *)
let load path =
  let base = base_of_path path in
  match
    let program = Sdfg.Serialize.load (base ^ ".cutout.sdfg") in
    let ic = open_in (base ^ ".case.dat") in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_dat ~program content
  with
  | tc -> Ok tc
  | exception Failure reason -> Error { path; reason }
  | exception Sys_error reason -> Error { path; reason }
  | exception Sdfg.Serialize.Parse_error reason -> Error { path; reason = "cutout graph: " ^ reason }
  | exception e -> Error { path; reason = Printexc.to_string e }

let replay tc =
  let config = { Interp.Exec.default_config with step_limit = tc.step_limit } in
  Interp.Exec.run ~config tc.cutout.program ~symbols:tc.symbols ~inputs:tc.inputs
