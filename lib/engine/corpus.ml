open Fuzzyflow

type meta = {
  signature : string;
  name : string;
  program : string;
  xform : string;
  klass : string;
  site : Transforms.Xform.site;
}

type save_result = Saved of string | Duplicate of string | Not_reproducing

let class_name = function
  | Difftest.Semantics -> "semantics"
  | Difftest.Input_dependent -> "input-dependent"
  | Difftest.Invalid_code -> "invalid-code"

(* ---------------- signatures ---------------- *)

let fnv_hex parts =
  let h = ref 0xcbf29ce484222325L in
  let mix c =
    h := Int64.logxor !h (Int64.of_int (Char.code c));
    h := Int64.mul !h 0x100000001b3L
  in
  List.iter
    (fun p ->
      String.iter mix p;
      mix '\x1f')
    parts;
  Printf.sprintf "%012Lx" (Int64.logand !h 0xFFFFFFFFFFFFL)

(* the cutout's structural shape: what kind of subgraph was extracted and
   what its data interface looks like — deliberately ignores workload-specific
   node ids so the same bug found in two kernels shares a signature *)
let shape_parts (cut : Cutout.t) =
  let kind =
    match cut.kind with
    | Cutout.Dataflow { nodes; _ } -> Printf.sprintf "dataflow/%d" (List.length nodes)
    | Cutout.Multistate { states } -> Printf.sprintf "multistate/%d" (List.length states)
  in
  let decls =
    Sdfg.Graph.containers cut.program
    |> List.map (fun (c, (d : Sdfg.Graph.datadesc)) ->
           Printf.sprintf "%s:%s:%b" c
             (String.concat "x" (List.map Symbolic.Expr.to_string d.shape))
             d.transient)
    |> List.sort compare
  in
  (kind :: List.sort compare cut.input_config)
  @ List.sort compare cut.system_state @ decls

let signature ~xform ~klass (cut : Cutout.t) =
  fnv_hex ((xform :: class_name klass :: shape_parts cut))

(* ---------------- reproduction check ---------------- *)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let check_reproduces ~catalog (m : meta) (tc : Testcase.t) =
  match Transforms.Registry.by_name catalog m.xform with
  | None -> (false, "unknown transformation " ^ m.xform)
  | Some x -> (
      (* a case read from disk fails to apply on any exception *)
      match (try Transforms.Xform.apply_copy x tc.cutout.program m.site with _ -> Error "") with
      | Error _ ->
          if m.klass = "invalid-code" then (true, "transformation still fails to apply")
          else (false, "transformation no longer applies")
      | Ok (transformed, _) -> (
          match Sdfg.Validate.admit transformed with
          | Error _ ->
              if m.klass = "invalid-code" then (true, "transformed cutout still invalid")
              else (false, "transformed cutout became invalid")
          | Ok transformed -> (
              (* at the step limit that found the case: a hang divergence
                 reproduces within that budget, and a longer one would only
                 burn time, serialized in the campaign process; the admitted
                 copy is compiled directly, not validated again *)
              let config = { Interp.Exec.default_config with step_limit = tc.step_limit } in
              let orig =
                Interp.Exec.run ~config tc.cutout.program ~symbols:tc.symbols ~inputs:tc.inputs
              in
              let xfrm =
                Result.bind (Interp.Plan.compile transformed ~symbols:tc.symbols) (fun p ->
                    Interp.Plan.execute ~config p ~inputs:tc.inputs)
              in
              match
                Difftest.compare_outcomes ~threshold:Difftest.default_config.Difftest.threshold
                  ~system_state:tc.cutout.system_state orig xfrm
              with
              | Some kind -> (true, Format.asprintf "%a" Difftest.pp_failure kind)
              | None -> (false, "runs no longer diverge"))))

(* ---------------- metadata ---------------- *)

let meta_file dir = Filename.concat dir "meta.json"

let meta_to_json (m : meta) =
  Journal.Json.Obj
    [
      ("signature", Journal.Json.Str m.signature);
      ("name", Journal.Json.Str m.name);
      ("program", Journal.Json.Str m.program);
      ("xform", Journal.Json.Str m.xform);
      ("class", Journal.Json.Str m.klass);
      ("site", Journal.json_of_site m.site);
    ]

let meta_of_json j =
  let open Journal.Json in
  {
    signature = str (field j "signature");
    name = str (field j "name");
    program = str (field j "program");
    xform = str (field j "xform");
    klass = str (field j "class");
    site = Journal.site_of_json (field j "site");
  }

let read_meta path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  meta_of_json (Journal.Json.of_string content)

(* ---------------- layout ----------------

   Entries live under [dir/<p>/<signature>/], where [p] is the first two hex
   characters of the signature — so no single directory's entry count grows
   with the corpus. Corpora written by earlier versions used a flat
   [dir/<signature>/] layout; both are readable, and a flat entry is renamed
   into its shard the first time it is touched (lazy migration), so old
   corpora converge to the sharded layout through normal use. *)

let shard_of signature =
  if String.length signature >= 2 then String.sub signature 0 2 else signature

let sharded_dir dir signature =
  Filename.concat (Filename.concat dir (shard_of signature)) signature

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let is_shard_name s = String.length s = 2 && String.for_all is_hex s

(* Where the entry lives, in either layout; migrates a legacy flat entry
   into its shard (best-effort: if the rename fails, the flat path still
   works). [None] when the signature has no entry at all. *)
let find_entry_dir dir signature =
  let sharded = sharded_dir dir signature in
  if Sys.file_exists sharded then Some sharded
  else
    let flat = Filename.concat dir signature in
    if not (Sys.file_exists flat) then None
    else begin
      mkdir_p (Filename.dirname sharded);
      match Unix.rename flat sharded with
      | () -> Some sharded
      | exception Unix.Unix_error _ -> Some flat
    end

(* ---------------- save / load / replay ---------------- *)

let save ~dir ~catalog ~program ~xform ~klass ~site (tc : Testcase.t) =
  let signature = signature ~xform ~klass tc.cutout in
  match find_entry_dir dir signature with
  | Some entry_dir -> Duplicate entry_dir
  | None ->
      let entry_dir = sharded_dir dir signature in
      let m = { signature; name = tc.name; program; xform; klass = class_name klass; site } in
      let ok, _detail = check_reproduces ~catalog m tc in
      if not ok then Not_reproducing
      else begin
        mkdir_p entry_dir;
        ignore (Testcase.save entry_dir tc);
        let oc = open_out (meta_file entry_dir) in
        output_string oc (Journal.Json.to_string (meta_to_json m));
        output_char oc '\n';
        close_out oc;
        Saved entry_dir
      end

let entry_of_dir entry_dir =
  let mf = meta_file entry_dir in
  if Sys.is_directory entry_dir && Sys.file_exists mf then
    match read_meta mf with m -> Some m | exception _ -> None
  else None

let entries dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun sub ->
           let path = Filename.concat dir sub in
           if is_shard_name sub && Sys.is_directory path && not (Sys.file_exists (meta_file path))
           then
             Sys.readdir path |> Array.to_list
             |> List.filter_map (fun e -> entry_of_dir (Filename.concat path e))
           else Option.to_list (entry_of_dir path))
    |> List.sort (fun a b -> compare a.signature b.signature)

type replay_outcome = { meta : meta; reproduced : bool; detail : string }

let replay_entry ~catalog ~dir (m : meta) =
  match find_entry_dir dir m.signature with
  | None -> { meta = m; reproduced = false; detail = "entry directory missing" }
  | Some entry_dir -> (
      let dat =
        Sys.readdir entry_dir |> Array.to_list
        |> List.find_opt (fun f -> Filename.check_suffix f ".case.dat")
      in
      match dat with
      | None -> { meta = m; reproduced = false; detail = "no .case.dat in entry" }
      | Some f -> (
          match Testcase.load (Filename.concat entry_dir f) with
          | Ok tc ->
              let ok, detail = check_reproduces ~catalog m tc in
              { meta = m; reproduced = ok; detail }
          | Error { Testcase.reason; _ } ->
              { meta = m; reproduced = false; detail = "load failed: " ^ reason }))

let replay ~catalog dir =
  List.map (fun m -> replay_entry ~catalog ~dir m) (entries dir)
