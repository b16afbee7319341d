type level = L_interp | L_transform | L_mpi | L_net

let level_to_string = function
  | L_interp -> "interp"
  | L_transform -> "transform"
  | L_mpi -> "mpi"
  | L_net -> "net"

let level_of_string = function
  | "interp" -> L_interp
  | "transform" -> L_transform
  | "mpi" -> L_mpi
  | "net" -> L_net
  | s -> invalid_arg ("Plan.level_of_string: " ^ s)

type expect = Must_semantics | Must_detect | Must_heal | Must_fault

let expect_to_string = function
  | Must_semantics -> "semantics"
  | Must_detect -> "detect"
  | Must_heal -> "heal"
  | Must_fault -> "fault"

type payload =
  | Interp_fault of { workload : string; inject : Interp.Exec.injection }
  | Transform_fault of {
      workload : string;
      xform : string;
      kind : Mutate.kind;
      mutation_seed : int;
      site : Transforms.Xform.site;
      expected_containers : string list;
    }
  | Mpi_disturbance of { policy : Mpi_sim.Mpi.policy; ranks : int; payload_len : int }
  | Net_disturbance of {
      net : Netfault.policy option;
      kill_worker : bool;
      workloads : string list;
    }

type spec = { id : string; level : level; expect : expect; descr : string; payload : payload }

(* Generated-program names ([gen_<style>_s<seed>_c<idx>]) carry everything
   needed to rebuild the graph; resolving them here means journal entries,
   corpus cases and selfcheck specs over generated workloads replay without
   any side-channel state. *)
let workload_by_name name =
  match Gen.Generate.by_name name with
  | Some c -> c.Gen.Generate.graph
  | None -> (
      match List.assoc_opt name (Workloads.Npbench.all ()) with
      | Some g -> g
      | None -> invalid_arg ("Plan.workload_by_name: unknown workload " ^ name))

(* ---- interpreter-level specs -------------------------------------------- *)

(* Workloads whose first container write is live in the system state, so a
   corrupted write 0 must surface. Verified by the selfcheck suite itself:
   a regression here turns up as a Missed row. *)
let interp_workloads = [ "scale"; "axpy"; "atax" ]

(* Bit 62 is the top exponent bit: flipping it changes the magnitude of any
   float, including 0.0 — unlike the sign bit, where -0.0 = 0.0 would hide
   the corruption from the comparator. *)
let interp_injections =
  [
    (Interp.Exec.Flip_bit { nth_write = 0; bit = 62 }, Must_semantics);
    (Interp.Exec.Set_nan { nth_write = 0 }, Must_semantics);
    (Interp.Exec.Set_inf { nth_write = 0 }, Must_semantics);
    (Interp.Exec.Shift_index { nth_subset = 0; delta = 1 }, Must_detect);
    (Interp.Exec.Burn_steps { after = 0 }, Must_semantics);
  ]

let slug_of_injection i =
  String.map (fun c -> if c = ' ' then '-' else c) (Interp.Exec.injection_to_string i)

let interp_specs () =
  List.concat_map
    (fun w ->
      List.map
        (fun (inject, expect) ->
          {
            id = Printf.sprintf "interp/%s/%s" w (slug_of_injection inject);
            level = L_interp;
            expect;
            descr =
              Printf.sprintf "%s on %s through the identity transform"
                (Interp.Exec.injection_to_string inject)
                w;
            payload = Interp_fault { workload = w; inject };
          })
        interp_injections)
    interp_workloads

(* ---- transform-level specs ---------------------------------------------- *)

let xform_workloads = [ "jacobi_1d"; "atax"; "gemm"; "copy_chain"; "mvt"; "softmax"; "2mm" ]
let max_per_kind = 6

let base_xforms () = Transforms.Registry.all_correct ()

(* Canonical target selection: index 0 picks the first candidate in
   Mutate's writes-first order, so the seeded damage lands on a write edge
   whenever the site has one — the localizable case. *)
let mutation_seed = 0

(* Probe the (workload, transformation) matrix for sites where each mutation
   class arms, and keep the first [max_per_kind] per kind — the catalog only
   contains faults that are actually seeded, so every spec is a real
   detection obligation. *)
let transform_specs ~seed:_ =
  List.concat_map
    (fun kind ->
      let found = ref 0 in
      List.concat_map
        (fun w ->
          let g = workload_by_name w in
          List.filter_map
            (fun (x : Transforms.Xform.t) ->
              if !found >= max_per_kind then None
              else
                match Mutate.probe ~seed:mutation_seed kind x g with
                | None -> None
                | Some (site, corrupted) ->
                    incr found;
                    Some
                      {
                        id =
                          Printf.sprintf "xform/%s/%s/%s" w x.name (Mutate.kind_to_string kind);
                        level = L_transform;
                        expect = Must_detect;
                        descr =
                          Printf.sprintf "%s seeded into %s on %s (corrupts %s)"
                            (Mutate.kind_to_string kind) x.name w
                            (String.concat "," corrupted);
                        payload =
                          Transform_fault
                            {
                              workload = w;
                              xform = x.name;
                              kind;
                              mutation_seed;
                              site;
                              expected_containers = corrupted;
                            };
                      })
            (base_xforms ()))
        xform_workloads)
    [ Mutate.Subset_shift; Mutate.Drop_memlet; Mutate.Wrong_stride ]

(* ---- MPI-level specs ----------------------------------------------------- *)

(* The fixed scenario (see Selfcheck): scatter + allreduce + bcast + gather
   over 4 ranks = 3 + 6 + 3 + 3 = 15 point-to-point messages, so victims
   0..14 cover every collective. *)
let mpi_ranks = 4
let mpi_payload_len = 8

let mpi_specs ~seed =
  let mk name kind victim persistent expect =
    {
      id = "mpi/" ^ name;
      level = L_mpi;
      expect;
      descr =
        Printf.sprintf "%s message %d (%s)"
          (Mpi_sim.Mpi.fault_kind_to_string kind)
          victim
          (if persistent then "persistent" else "transient");
      payload =
        Mpi_disturbance
          {
            policy = { Mpi_sim.Mpi.kind; victim; persistent; seed };
            ranks = mpi_ranks;
            payload_len = mpi_payload_len;
          };
    }
  in
  [
    mk "drop-transient" Mpi_sim.Mpi.Drop 1 false Must_heal;
    mk "duplicate" Mpi_sim.Mpi.Duplicate 4 false Must_heal;
    mk "reorder" Mpi_sim.Mpi.Reorder 7 false Must_heal;
    mk "corrupt-transient" Mpi_sim.Mpi.Corrupt 10 false Must_heal;
    mk "drop-persistent" Mpi_sim.Mpi.Drop 13 true Must_fault;
    mk "corrupt-persistent" Mpi_sim.Mpi.Corrupt 5 true Must_fault;
  ]

(* ---- network / distributed-service specs ---------------------------------- *)

(* Small workloads keep each chaos probe (one reference campaign + one
   chaotic campaign) inside the probe deadline. *)
let net_workloads = [ "scale"; "axpy" ]

(* Every spec is Must_heal: whatever the proxy or the worker's death does,
   the supervised campaign must finish with a journal whose instance lines
   are byte-identical to the same-seed [-j 1] run. Transient faults heal by
   retry; persistent ones by quarantine of the remote worker, after which
   the campaign's local slot finishes the work. *)
let net_specs ~seed =
  let mk name descr ?net ?(kill = false) () =
    {
      id = "net/" ^ name;
      level = L_net;
      expect = Must_heal;
      descr;
      payload = Net_disturbance { net; kill_worker = kill; workloads = net_workloads };
    }
  in
  [
    mk "refuse-first-connect" "first connect refused at the proxy (transient)"
      ~net:{ Netfault.kind = Refuse; victim_conn = 0; victim_chunk = 0; persistent = false; seed }
      ();
    mk "corrupt-result-transient" "one bit of one worker reply flipped (transient)"
      ~net:{ Netfault.kind = Corrupt; victim_conn = 0; victim_chunk = 1; persistent = false; seed }
      ();
    mk "disconnect-mid-result" "connection dropped at the first worker reply (transient)"
      ~net:
        { Netfault.kind = Disconnect; victim_conn = 0; victim_chunk = 1; persistent = false; seed }
      ();
    mk "stall-persistent" "all traffic black-holed from the first reply on, every connection"
      ~net:{ Netfault.kind = Stall; victim_conn = 0; victim_chunk = 0; persistent = true; seed }
      ();
    mk "kill-worker-mid-campaign" "the remote worker SIGKILLed inside its first instance"
      ~kill:true ();
  ]

(* ---- generated-workload specs -------------------------------------------- *)

(* Same probing discipline as [transform_specs], but over an admitted batch
   of generated programs: the generator is a selfcheck subject — known-bad
   mutations seeded into its output must still be detected at the floor.
   Specs reuse the per-kind cap so a big batch cannot flood the catalog. *)
let generated_specs ~seed ~style ~n =
  match Gen.Styles.by_name style with
  | None -> invalid_arg ("Plan.generated_specs: unknown style " ^ style)
  | Some s ->
      let admitted, _ = Gen.Admit.batch ~style:s ~seed ~n () in
      List.concat_map
        (fun kind ->
          let found = ref 0 in
          List.concat_map
            (fun (c : Gen.Generate.t) ->
              let g = c.Gen.Generate.graph in
              List.filter_map
                (fun (x : Transforms.Xform.t) ->
                  if !found >= max_per_kind then None
                  else
                    match Mutate.probe ~seed:mutation_seed kind x g with
                    | None -> None
                    | Some (site, corrupted) ->
                        incr found;
                        Some
                          {
                            id =
                              Printf.sprintf "xform/%s/%s/%s" c.Gen.Generate.name x.name
                                (Mutate.kind_to_string kind);
                            level = L_transform;
                            expect = Must_detect;
                            descr =
                              Printf.sprintf "%s seeded into %s on generated %s (corrupts %s)"
                                (Mutate.kind_to_string kind) x.name c.Gen.Generate.name
                                (String.concat "," corrupted);
                            payload =
                              Transform_fault
                                {
                                  workload = c.Gen.Generate.name;
                                  xform = x.name;
                                  kind;
                                  mutation_seed;
                                  site;
                                  expected_containers = corrupted;
                                };
                          })
                (base_xforms ()))
            admitted)
        [ Mutate.Subset_shift; Mutate.Drop_memlet; Mutate.Wrong_stride ]

let catalog ?level ?generated ~seed () =
  let gen_specs =
    match generated with
    | None -> []
    | Some (style, n) -> generated_specs ~seed ~style ~n
  in
  let all =
    interp_specs () @ transform_specs ~seed @ gen_specs @ mpi_specs ~seed @ net_specs ~seed
  in
  match level with None -> all | Some l -> List.filter (fun s -> s.level = l) all
