(** The scenario catalogue for {!Explore}.

    Deque scenarios share one oracle: every pushed value is delivered
    exactly once (owner pop, thief steal, or final drain) — the multiset
    identity that double delivery or loss breaks.  Pool scenarios run a
    real fork-join computation on a detached pool
    ({!Dfd_runtime.Pool.For_testing}) whose workers are played by
    controlled threads, checking the computed result, the task-count
    accounting and the absence of leaked tasks. *)

val lfdeque_ops : Explore.scenario
(** The pool's CAS-only deque ({!Dfd_structures.Lfdeque}): seeded owner
    push/pop mix against two concurrent thieves, exactly-once delivery. *)

val lfdeque_grow : Explore.scenario
(** Tiny initial buffer; pushes force grows under a concurrent thief. *)

val lfdeque_wrap : Explore.scenario
(** Deque started at [max_int - 3]: churn across the overflow boundary. *)

val lfdeque_abandon : Explore.scenario
(** Owner abandonment (sticky give-up) and reap racing two thieves:
    exactly-once delivery, one-winner reap, and a reap only ever unlinks
    a deque whose death certificate held. *)

val lfdeque_reap : Explore.scenario
(** The reap-decision window: a pre-abandoned deque, a reaper looping
    [is_dead]-then-remove against a draining thief. *)

val multiq_ops : Explore.scenario
(** Relaxed R-list ({!Dfd_structures.Multiq}): concurrent CAS inserts
    against two racing removers; oracle checks one-winner removal and
    untorn membership. *)

val multiq_two_choice : Explore.scenario
(** Two-choice sampling under membership churn: every sampled victim
    must be a live member and the leftmost of both sampled shards. *)

val pool_ws : Explore.scenario
(** Fork-join fib on the work-stealing pool, two helping workers. *)

val pool_dfd : Explore.scenario
(** Same computation under DFDeques(K) with a quota small enough that
    every leaf allocation forces a give-up through the R-list. *)

val pool_crash_ws : Explore.scenario
(** Fork-join fib with a one-shot [worker_crash] armed on the
    work-stealing pool: the victim dies holding one unstarted task,
    survivors quarantine it and steal its leftovers back; the oracle
    audits the lineage ledger (no task lost, none run twice) and the
    degraded worker count. *)

val pool_crash_dfd : Explore.scenario
(** Same crash injection under DFDeques(K), triggered after the victim
    has usually run a task — quarantine must also abandon and reap the
    dead owner's R-list deque via the death-certificate protocol. *)

val multiq_buggy : Explore.scenario
(** Drives {!Buggy_multiq} (torn membership on remove); the explorer is
    expected to {e fail} this one.  Excluded from {!all}. *)

val lfdeque_buggy : Explore.scenario
(** Drives {!Buggy_lfdeque} (check-then-store steal commit); the explorer
    is expected to {e fail} this one.  Excluded from {!all}. *)

val lfdeque_publish_buggy : Explore.scenario
(** Drives {!Buggy_lfdeque} with its publish-first push ([bottom] stored
    before the cell) against a stealing thief; the explorer is expected
    to {e fail} this one with a lost element.  Excluded from {!all}. *)

val park : Explore.scenario
(** The native pool's park/wake handshake: a pusher (publish, then read
    the parked count) against a parker (announce, then scan); a parker
    that decides to sleep while a task stays queued and no wake-up was
    signalled is a lost wake-up. *)

val park_buggy : Explore.scenario
(** Drives {!Buggy_park} (scan, then announce); the explorer is expected
    to {e fail} this one with a lost wake-up.  Excluded from {!all}. *)

val buggy : Explore.scenario
(** Alias for {!lfdeque_buggy}. *)

val all : Explore.scenario list
(** Every correct scenario, the default set for [repro check]. *)

val find : string -> Explore.scenario option
(** Look up any scenario (including the buggy one) by name. *)
