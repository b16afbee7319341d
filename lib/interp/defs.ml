(* Shared vocabulary of the interpreter stack. Both execution engines — the
   reference tree-walk (Tree) and the compile-once plan path (Plan) — speak
   in these types, and the Exec facade re-exports them unchanged. *)

type fault =
  | Out_of_bounds of { container : string; index : int array; shape : int array; context : string }
  | Hang of { steps : int }
  | Invalid_graph of string
  | Runtime_error of string

let pp_fault fmt = function
  | Out_of_bounds { container; index; shape; context } ->
      Format.fprintf fmt "out-of-bounds access to %s[%s] (shape [%s]) in %s" container
        (String.concat "," (Array.to_list (Array.map string_of_int index)))
        (String.concat "," (Array.to_list (Array.map string_of_int shape)))
        context
  | Hang { steps } -> Format.fprintf fmt "step limit exceeded after %d steps (hang)" steps
  | Invalid_graph s -> Format.fprintf fmt "invalid graph: %s" s
  | Runtime_error s -> Format.fprintf fmt "runtime error: %s" s

let fault_to_string f = Format.asprintf "%a" pp_fault f

(* A plan names an execution-order site (the nth container write, the nth
   concretized memlet subset, a step count) rather than a graph location, so
   the same plan is meaningful on any program and two runs of the same
   program with the same inputs inject at the same place. *)
type injection =
  | Flip_bit of { nth_write : int; bit : int }
  | Set_nan of { nth_write : int }
  | Set_inf of { nth_write : int }
  | Shift_index of { nth_subset : int; delta : int }
  | Burn_steps of { after : int }

let injection_to_string = function
  | Flip_bit { nth_write; bit } -> Printf.sprintf "flip-bit w%d b%d" nth_write bit
  | Set_nan { nth_write } -> Printf.sprintf "set-nan w%d" nth_write
  | Set_inf { nth_write } -> Printf.sprintf "set-inf w%d" nth_write
  | Shift_index { nth_subset; delta } -> Printf.sprintf "shift-index s%d %+d" nth_subset delta
  | Burn_steps { after } -> Printf.sprintf "burn-steps @%d" after

type config = {
  step_limit : int;
  garbage_seed : int;
  collect_coverage : bool;
  inject : injection option;
}

let default_config =
  { step_limit = 50_000_000; garbage_seed = 0xC0FFEE; collect_coverage = false; inject = None }

type outcome = { memory : Value.t; coverage : int list; steps : int; writes : int; subsets : int }

exception F of fault

(* The fault both tiers give a graph that fails validation: its first
   error. *)
let invalid_graph e = Invalid_graph (Format.asprintf "%a" Sdfg.Validate.pp_error e)

(* ------------------------------------------------------------------ *)
(* Coverage keys                                                       *)
(* ------------------------------------------------------------------ *)

(* Coverage points are structured keys; the stored representative is a
   collision-safe digest of the full structure, not OCaml's Hashtbl.hash
   (which folds a bounded prefix into ~30 bits and silently collides across
   distinct branch keys, under-reporting coverage). *)
type cov_key =
  | Cov_state of int  (** state [sid] executed *)
  | Cov_iedge of int  (** interstate edge [ie_id] taken *)
  | Cov_map of { state : int; node : int; empty : bool }
      (** map entry [node] entered with an empty / non-empty iteration space *)
  | Cov_select of { state : int; node : int; site : int; taken : bool }
      (** the [site]-th Select evaluated in one tasklet invocation *)

(* FNV-1a over an explicit byte serialization of the key, truncated to 62
   bits so the digest is a non-negative OCaml int on 64-bit platforms. *)
let cov_digest key =
  let h = ref 0xcbf29ce484222325L in
  let byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) 0x100000001b3L
  in
  let int64 n =
    let n = ref n in
    for _ = 0 to 7 do
      byte (!n land 0xff);
      n := !n asr 8
    done
  in
  (match key with
  | Cov_state sid ->
      byte 1;
      int64 sid
  | Cov_iedge ie ->
      byte 2;
      int64 ie
  | Cov_map { state; node; empty } ->
      byte 3;
      int64 state;
      int64 node;
      byte (Bool.to_int empty)
  | Cov_select { state; node; site; taken } ->
      byte 4;
      int64 state;
      int64 node;
      int64 site;
      byte (Bool.to_int taken));
  Int64.to_int (Int64.shift_right_logical !h 2)

(* ------------------------------------------------------------------ *)
(* Tasklet scalar operations                                           *)
(* ------------------------------------------------------------------ *)

let apply_bin (op : Sdfg.Tcode.binop) a b =
  match op with
  | Sdfg.Tcode.Add -> a +. b
  | Sdfg.Tcode.Sub -> a -. b
  | Sdfg.Tcode.Mul -> a *. b
  | Sdfg.Tcode.Div -> a /. b
  | Sdfg.Tcode.Pow -> Float.pow a b
  | Sdfg.Tcode.Mod -> Float.rem a b
  | Sdfg.Tcode.Min -> Float.min a b
  | Sdfg.Tcode.Max -> Float.max a b

let apply_un (op : Sdfg.Tcode.unop) a =
  match op with
  | Sdfg.Tcode.Neg -> -.a
  | Sdfg.Tcode.Sqrt -> Float.sqrt a
  | Sdfg.Tcode.Exp -> Float.exp a
  | Sdfg.Tcode.Log -> Float.log a
  | Sdfg.Tcode.Abs -> Float.abs a
  | Sdfg.Tcode.Floor -> Float.floor a
  | Sdfg.Tcode.Sin -> Float.sin a
  | Sdfg.Tcode.Cos -> Float.cos a
  | Sdfg.Tcode.Tanh -> Float.tanh a

(* Float comparisons, not polymorphic ones: the same IEEE results (NaN is
   unequal to everything, -0 equals 0) without a call per comparison. *)
let apply_cmp (op : Sdfg.Tcode.cmpop) (a : float) (b : float) =
  let r =
    match op with
    | Sdfg.Tcode.Lt -> a < b
    | Sdfg.Tcode.Le -> a <= b
    | Sdfg.Tcode.Gt -> a > b
    | Sdfg.Tcode.Ge -> a >= b
    | Sdfg.Tcode.Eq -> a = b
    | Sdfg.Tcode.Ne -> a <> b
  in
  if r then 1. else 0.
