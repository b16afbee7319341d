(** Exact hang proofs for the compiled tiers ({!Plan}, {!Kernel}).

    A hybrid check, as in Futhark's hybrid bounds checking: a static
    precondition computed once per compiled program, plus a cheap dynamic
    check per run.

    - Static: nothing a run decides depends on container data. No free
      symbol of an interstate condition or assignment names a container
      ({!interstate_oblivious}), and no tasklet reference that can fault
      sits under a [Select] branch (each tier's lowering records that).
      Memlet subsets and map ranges never read containers, and tick costs
      depend only on shapes and symbols.
    - Run time: no injection is configured. Every injection kind counts
      writes, subsets or steps across the whole run, so skipping periods
      would move where it fires.

    Under both, the run's future from a state entry, its tick costs and
    faults included, is a function of the state's position and the dynamic
    symbol values ([dvals], [dset]). A run that enters the same (position,
    values) twice, at steps [s1 < s2], never ends: from [s2] it replays the
    run from [s1] tick for tick, each period adding [p = s2 - s1] steps.
    The check then adds [(limit - s2) / p * p] steps at once — whole
    periods, so the counter stays at or below the limit and the run goes
    on to cross it at the same tick as the full run, raising the same
    [Hang { steps }]. A proof fires only on a run that cannot finish, so
    every [Ok] outcome is computed exactly as without it.

    The check keeps one snapshot and re-takes it after 1, 2, 4, ... state
    entries (Brent's cycle detection), so its state is O(1) per run: a loop
    whose symbol grows forever never repeats, and a table of every entry
    would grow with the step limit. *)

(** [interstate_oblivious g]: no free symbol of any interstate condition or
    assignment of [g] is a container name, so interstate control never reads
    container data. *)
val interstate_oblivious : Sdfg.Graph.t -> bool

(** Per-run check state. *)
type t

(** [create ~provable config ~dvals ~dset] for one run of a program whose
    static precondition is [provable]; [dvals] and [dset] are the run's
    dynamic symbol registers, read at each {!enter}. The check is off unless
    [provable] and [config.inject = None]. *)
val create : provable:bool -> Defs.config -> dvals:int array -> dset:bool array -> t

(** [enter t ~pos ~steps] at each state entry, before the state's tick: the
    step count to continue from. That is [steps], unless this entry repeats
    the snapshot; then it is [steps] plus the whole periods that fit below
    the step limit, and the check stops. *)
val enter : t -> pos:int -> steps:int -> int
