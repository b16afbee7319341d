(* Host speed probes.

   The benchmark shares a few cores of a host with other tenants, and the
   host's speed changes under it: for seconds to minutes at a time the same
   code takes up to 1.7 times as long, in CPU time as in wall-clock time.
   A probe is a fixed piece of work that uses none of the program's code.
   Timed again and again between campaign runs, it tells how fast the host
   is at that moment, and the end-to-end times are divided by the probe's
   slowness around them: they become times at a fixed host speed, the one at
   which the probe takes [nominal] seconds.

   The slowdown depends on the kind of work, so there are two probes.
   [Compute] fills a hash table and a map and sorts a list: it allocates
   and chases pointers like the in-process workloads. [Fork] forks a child
   that exits at once, like the engine, which forks a worker per instance.
   Over runs of two to three minutes, each workload's campaign times
   followed its probe with a slope of 0.8 to 1.2 (see the README). *)

type kind = Compute | Fork

module Int_map = Map.Make (Int)

let compute () =
  let h = Hashtbl.create 16 in
  for i = 0 to 3999 do
    Hashtbl.replace h (i * 7919 land 8191) (float_of_int i)
  done;
  let m = ref Int_map.empty in
  for i = 0 to 3999 do
    m := Int_map.add (i * 31 land 4095) (Hashtbl.find_opt h (i land 8191)) !m
  done;
  let sum = Int_map.fold (fun _ v a -> Option.fold ~none:a ~some:(( +. ) a) v) !m 0. in
  let sorted = List.sort compare (List.init 3000 (fun i -> i * 2654435761 land 0xffff)) in
  ignore (Sys.opaque_identity (sum, sorted))

let rec wait pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let fork () = match Unix.fork () with 0 -> Unix._exit 0 | pid -> wait pid

(* The probe's time on a quiet 2-vCPU Intel Xeon VM, so that the scaled
   times read about as the wall-clock does there. *)
let nominal = function Compute -> 2.0e-3 | Fork -> 1.0e-3

type t = {
  kind : kind;
  mutable samples : (float * float) list;  (** end time, duration; newest first *)
}

let create kind = { kind; samples = [] }

let sample t =
  let t0 = Trace.now () in
  (match t.kind with Compute -> compute () | Fork -> fork ());
  let t1 = Trace.now () in
  t.samples <- (t1, t1 -. t0) :: t.samples

(* A sample unless the last one ended less than [every] seconds ago. At
   about 2 ms a sample, the probe then takes 4 % of the run. *)
let every = 0.05

let sample_now_and_then t =
  match t.samples with
  | (last, _) :: _ when Trace.now () -. last < every -> ()
  | _ -> sample t

(* The probe's slowness over the interval [t0, t1]: the median of the
   samples that ended within a second of it, over [nominal]. There is one
   at least, taken right before the interval. *)
let slowness t ~t0 ~t1 =
  let near =
    List.filter_map
      (fun (at, d) -> if at >= t0 -. 1. && at <= t1 +. 1. then Some d else None)
      t.samples
  in
  Record.median near /. nominal t.kind

(* The probe's slowness over the whole run. *)
let overall t = Record.median (List.map snd t.samples) /. nominal t.kind
