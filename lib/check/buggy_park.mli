(** A deliberately broken park decision ({b checker demonstration
    only}).

    The native pool's parker announces itself (increments the parked
    count) and only then scans for queued work, while a pusher publishes
    its task and only then reads the parked count: a Dekker pair, so
    one of the two always sees the other.  This variant scans first and
    announces afterwards.  In the window between the two (marked by the
    {!Dfd_structures.Schedpoint.pool_park_scan} yield point) a pusher
    can publish a task, read a parked count of zero and skip the
    wake-up, and the parker then sleeps with the task queued — a lost
    wake-up.  The [park_buggy] scenario drives this through the
    explorer, and the test suite asserts it is found, shrunk and
    replayed; the same scenario over the real order ([park]) passes. *)

val park_check : Dfd_runtime.Pool.t -> bool
(** Scan, yield, then announce.  [true] when the caller would sleep;
    the announcement stands until [Pool.For_testing.unpark]. *)
