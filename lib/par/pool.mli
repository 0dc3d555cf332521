(** A fixed-size domain pool for embarrassingly parallel maps.

    Hand-rolled on stdlib [Domain]/[Mutex]/[Condition] — no external
    dependencies, no work stealing.  A pool owns [domains - 1] worker
    domains; the caller participates in every batch, so [domains] is the
    total parallelism.  With [domains = 1] no domain is ever spawned and
    {!map} degenerates to [List.map], guaranteeing byte-identical
    behavior on the sequential path.

    Determinism: {!map} returns results in submission order regardless
    of completion order, and tasks must not communicate through shared
    mutable state.  Every parallel call site in this codebase is
    required to produce output identical to [~domains:1]. *)

type t

val create : domains:int -> t
(** Spawn a pool of total parallelism [max 1 domains].  The pool stays
    alive (workers block on a condition variable between batches) until
    {!shutdown}. *)

val domains : t -> int
(** Total parallelism, including the calling domain. *)

exception
  Task_failed of {
    index : int;  (** submission index of the failing task *)
    label : string;  (** [?label] rendering, or ["#<index>"] *)
    elapsed_ns : int64;  (** time the task ran before failing *)
    cause : exn;  (** the task's own exception *)
  }
(** Wrapper for any exception escaping a pooled task, so a failure is
    attributable (which task, how long it ran) without re-running the
    batch.  Match on [cause] for the underlying exception. *)

val map : ?label:('a -> string) -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], possibly in
    parallel, and returns the results in the order of [xs].

    If one or more tasks raise, the exception of the {e earliest} such
    task (in submission order) is re-raised in the caller — wrapped as
    {!Task_failed} with the task's submission index, label and elapsed
    time — after every task of the batch has finished, so the pool
    remains usable afterwards.  At most one batch runs at a time per
    pool; concurrent {!map} calls on the same pool are serialized.
    [label] names tasks for {!Task_failed} (defaults to ["#<index>"]). *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool must not be used
    afterwards. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8 — the default for
    the [--domains] command-line flags. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)
