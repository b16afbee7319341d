(** The fault-injection catalog: which fault to seed where, and what the
    oracles owe us for it.

    Specs are generated deterministically from a campaign seed; every spec in
    the catalog is an armed fault (transform mutations are probed for
    applicability before inclusion), so each one is a concrete detection
    obligation the selfcheck campaign scores. *)

type level = L_interp | L_transform | L_mpi | L_net

val level_to_string : level -> string

(** @raise Invalid_argument on an unknown name. *)
val level_of_string : string -> level

(** What the stack owes for a spec: [Must_semantics] — the differential
    tester must fail every trial (Semantics class); [Must_detect] — any
    failing verdict counts; [Must_heal] — the MPI delivery layer must recover
    bit-identically with nonzero heal stats; [Must_fault] — a typed
    [Mpi_fault] must surface. *)
type expect = Must_semantics | Must_detect | Must_heal | Must_fault

val expect_to_string : expect -> string

type payload =
  | Interp_fault of { workload : string; inject : Interp.Exec.injection }
  | Transform_fault of {
      workload : string;
      xform : string;  (** registry name of the correct base transformation *)
      kind : Mutate.kind;
      mutation_seed : int;
      site : Transforms.Xform.site;  (** probed site where the mutation arms *)
      expected_containers : string list;  (** localization ground truth *)
    }
  | Mpi_disturbance of { policy : Mpi_sim.Mpi.policy; ranks : int; payload_len : int }
  | Net_disturbance of {
      net : Netfault.policy option;  (** proxy fault between supervisor and worker *)
      kill_worker : bool;  (** the worker SIGKILLs itself inside its first instance *)
      workloads : string list;  (** the campaign both runs execute *)
    }  (** chaos probe for the distributed campaign service; always [Must_heal] *)

type spec = { id : string; level : level; expect : expect; descr : string; payload : payload }

(** Resolve a workload name: generated-program names
    ([gen_<style>_s<seed>_c<idx>]) are rebuilt deterministically via
    {!Gen.Generate.by_name}; anything else is looked up in the NPBench set.
    @raise Invalid_argument for an unknown name. *)
val workload_by_name : string -> Sdfg.Graph.t

(** The full deterministic catalog for a campaign seed, optionally filtered
    to one level. Spec order is stable: interp, transform, generated, mpi,
    net.
    [generated:(style, n)] additionally probes transform mutations over the
    first [n] admitted generated programs of [(style, seed)] — the generator
    as a selfcheck subject; those specs carry level [L_transform]. *)
val catalog : ?level:level -> ?generated:string * int -> seed:int -> unit -> spec list
