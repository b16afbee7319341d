(** Persistent test-case corpus (Sec. 6.4: extracted test cases are kept and
    replayed as regression tests).

    Every failing instance's {!Fuzzyflow.Testcase.t} is saved under
    [dir/<prefix>/<signature>/], where [prefix] is the first two hex
    characters of the signature (so no directory's entry count grows with
    the corpus) and the signature hashes (transformation, failure class,
    cutout shape) — structurally identical findings from different
    workloads deduplicate to one entry. Corpora written by earlier versions
    used a flat [dir/<signature>/] layout; {!entries} and {!replay} read
    both, and a flat entry is renamed into its shard the first time it is
    touched. A case is only admitted if it reproduces at save time under
    the same replay procedure [replay] uses, making the corpus a
    self-consistent regression gate. *)

type meta = {
  signature : string;
  name : string;  (** testcase name (base of the saved files) *)
  program : string;
  xform : string;
  klass : string;  (** journal failure-class name *)
  site : Transforms.Xform.site;  (** valid on the saved cutout (ids preserved) *)
}

(** [mkdir_p dir] creates [dir] and any missing parents. *)
val mkdir_p : string -> unit

type save_result =
  | Saved of string  (** entry directory *)
  | Duplicate of string  (** an entry with the same signature exists *)
  | Not_reproducing  (** replay at save time did not reproduce the failure *)

(** Signature of a finding: FNV-1a hex over the transformation name, failure
    class and cutout shape (kind, container declarations, input/system
    interface). *)
val signature :
  xform:string -> klass:Fuzzyflow.Difftest.failure_class -> Fuzzyflow.Cutout.t -> string

val save :
  dir:string ->
  catalog:Transforms.Xform.t list ->
  program:string ->
  xform:string ->
  klass:Fuzzyflow.Difftest.failure_class ->
  site:Transforms.Xform.site ->
  Fuzzyflow.Testcase.t ->
  save_result

(** Corpus entries on disk, sorted by signature. *)
val entries : string -> meta list

type replay_outcome = { meta : meta; reproduced : bool; detail : string }

(** Reload an entry and re-run the differential check: apply the recorded
    transformation to the saved cutout and compare both runs under the stored
    fault-inducing inputs, at the step limit the failure was found at. *)
val replay_entry : catalog:Transforms.Xform.t list -> dir:string -> meta -> replay_outcome

(** Replay the whole corpus. *)
val replay : catalog:Transforms.Xform.t list -> string -> replay_outcome list
