type buffer = {
  name : string;
  desc : Sdfg.Graph.datadesc;
  cshape : int array;
  data : float array;
}

type t = (string, buffer) Hashtbl.t

exception Out_of_bounds of { container : string; index : int array; shape : int array }

(* FNV-1a over the container name, with the same constants and masking as
   Campaign.instance_seed: the per-container stream offset is then a
   specified function of the name, not of the unspecified Hashtbl.hash. *)
let fnv1a_name s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* Deterministic garbage: a simple 64-bit LCG seeded from the run seed and the
   container name, mapped into a "plausible but wrong" value range. *)
let garbage_fill seed name data =
  let state = ref (Int64.of_int (seed lxor fnv1a_name name lxor 0x9e3779b9)) in
  let next () =
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    let bits = Int64.to_int (Int64.shift_right_logical !state 17) land 0xFFFFFF in
    (float_of_int bits /. 16777216.0 *. 2000.0) -. 1000.0
  in
  for i = 0 to Array.length data - 1 do
    data.(i) <- next ()
  done

let num_elements b = Array.fold_left ( * ) 1 b.cshape

let concretize_shape env name (desc : Sdfg.Graph.datadesc) =
  Array.of_list
    (List.map
       (fun e ->
         let d = Symbolic.Expr.eval env e in
         if d <= 0 then
           invalid_arg
             (Printf.sprintf "Value.alloc: container %s has non-positive dimension %d" name d);
         d)
       desc.shape)

let alloc_shaped ~garbage_seed name (desc : Sdfg.Graph.datadesc) cshape =
  let n = Array.fold_left ( * ) 1 cshape in
  let data = Array.make n 0. in
  if desc.storage = Sdfg.Graph.Gpu then garbage_fill garbage_seed name data;
  { name; desc; cshape; data }

let alloc ~garbage_seed env name desc =
  alloc_shaped ~garbage_seed name desc (concretize_shape env name desc)

let cast (dt : Sdfg.Dtype.t) v =
  match dt with
  | Sdfg.Dtype.F64 -> v
  | Sdfg.Dtype.F32 -> Int32.float_of_bits (Int32.bits_of_float v)
  | Sdfg.Dtype.I64 -> if Float.is_nan v then 0. else Float.of_int (Float.to_int (Float.trunc v))
  | Sdfg.Dtype.I32 ->
      if Float.is_nan v then 0.
      else
        let t = Float.to_int (Float.trunc v) in
        (* wrap into 32-bit range like C truncation would *)
        Float.of_int (Int32.to_int (Int32.of_int t))
  | Sdfg.Dtype.Bool -> if v <> 0. then 1. else 0.

(* Element addressing for the subset iteration below. *)
let offset b idx =
  let dims = Array.length b.cshape in
  if Array.length idx <> dims then raise (Out_of_bounds { container = b.name; index = idx; shape = b.cshape });
  let off = ref 0 in
  for d = 0 to dims - 1 do
    let i = idx.(d) in
    if i < 0 || i >= b.cshape.(d) then
      raise (Out_of_bounds { container = b.name; index = idx; shape = b.cshape });
    off := (!off * b.cshape.(d)) + i
  done;
  !off

let get b idx = b.data.(offset b idx)
let set b idx v = b.data.(offset b idx) <- cast b.desc.dtype v

(* Iterate a concrete subset in row-major order, calling [f] with each full
   index. *)
let iter_subset b (cs : Symbolic.Subset.crange list) f =
  let ranges = Array.of_list cs in
  let dims = Array.length ranges in
  if dims = 0 then f [||]
  else begin
    let counts = Array.map Symbolic.Subset.crange_count ranges in
    let total = Array.fold_left ( * ) 1 counts in
    if total > 0 then begin
      let idx = Array.make dims 0 in
      for flat = 0 to total - 1 do
        let rem = ref flat in
        for d = dims - 1 downto 0 do
          let c = counts.(d) in
          let pos = !rem mod c in
          rem := !rem / c;
          idx.(d) <- ranges.(d).clo + (pos * ranges.(d).cstep)
        done;
        f idx
      done
    end
  end;
  ignore b

let subset_volume cs =
  List.fold_left (fun acc r -> acc * Symbolic.Subset.crange_count r) 1 cs

let read_subset b cs =
  let out = Array.make (max 1 (subset_volume cs)) 0. in
  let i = ref 0 in
  iter_subset b cs (fun idx ->
      out.(!i) <- get b idx;
      incr i);
  out

let write_subset b cs values =
  let vol = max 1 (subset_volume cs) in
  if Array.length values <> vol then
    invalid_arg
      (Printf.sprintf "Value.write_subset: %d values for volume-%d subset of %s"
         (Array.length values) vol b.name);
  let i = ref 0 in
  iter_subset b cs (fun idx ->
      set b idx values.(!i);
      incr i)

let accumulate_subset b cs wcr values =
  let vol = max 1 (subset_volume cs) in
  if Array.length values <> vol then
    invalid_arg
      (Printf.sprintf "Value.accumulate_subset: %d values for volume-%d subset of %s"
         (Array.length values) vol b.name);
  let i = ref 0 in
  iter_subset b cs (fun idx ->
      set b idx (Sdfg.Memlet.apply_wcr wcr (get b idx) values.(!i));
      incr i)

let buffer m name = Hashtbl.find m name
let buffer_opt m name = Hashtbl.find_opt m name
