(** A deliberately broken lock-free DFDeques deque ({b checker
    demonstration only}).

    Laid out like {!Dfd_structures.Lfdeque} — plain cells holding the
    elements, a private empty-slot marker, the sticky ownership
    certificate and the death-certificate reap test — with two planted
    bugs:

    - {!steal} replaces the correct deque's single compare-and-set on
      [top] with a non-atomic check-then-store, opening a window (marked
      by the {!Dfd_structures.Schedpoint.lfdeque_steal_commit} yield
      point) in which two thieves can both take the same element and
      advance [top] twice — double delivery plus element loss.  The
      [lfdeque_buggy] scenario drives it.
    - {!push_publish_first} stores [bottom] before it writes the cell, so
      a thief can win an index whose slot is not written yet (the
      {!Dfd_structures.Schedpoint.lfdeque_push_publish} window) — the
      element is lost.  The [lfdeque_publish_buggy] scenario drives it
      with a single thief, against which {!steal} behaves as the CAS
      would.

    The test suite asserts both bugs are found, shrunk and replayed
    within the default budget; the identical scenario shapes over the
    real {!Dfd_structures.Lfdeque} pass.  A won slot that still holds the
    empty marker is reported as a failed steal or pop, so the marker
    never escapes. *)

type 'a t

val create : ?capacity:int -> ?owner:int -> unit -> 'a t
(** Fixed capacity (default 64, rounded to a power of two); no resizing. *)

val push : 'a t -> 'a -> unit
(** Owner only (implemented correctly). *)

val push_publish_first : 'a t -> 'a -> unit
(** Owner only — {b racy by design}: stores [bottom] before the cell. *)

val pop : 'a t -> 'a option
(** Owner only (this end is implemented correctly). *)

val steal : 'a t -> 'a option
(** Any thread — {b racy by design}, see above. *)

val owner : 'a t -> int option

val abandon : 'a t -> unit
(** Sticky owner give-up (implemented correctly). *)

val is_dead : 'a t -> bool
(** Unowned and empty (implemented correctly). *)

val length : 'a t -> int
