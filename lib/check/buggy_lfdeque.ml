(* A deliberately broken lock-free DFDeques deque, used to demonstrate
   that the explorer finds real ordering bugs in the lfdeque discipline
   within its default budget.

   Identical in layout to Dfd_structures.Lfdeque — plain cells holding
   the elements themselves, a private block marking an empty slot, and
   the sticky [owner] certificate with [is_dead], so the abandonment
   scenarios can run over it unchanged — except for two planted bugs:

   - [steal] replaces the single compare-and-set on [top] with a
     non-atomic check-then-store.  Two thieves can both observe
     [top = t], both pass the check, and both take element [t] (double
     delivery), after which the second store pushes [top] past an element
     nobody took (loss).  The window between the check and the store
     carries its own yield point ([Schedpoint.lfdeque_steal_commit]) — in
     the correct deque that window does not exist, because the CAS is one
     atomic step.  With a single thief [top] has one writer, and the
     check-then-store behaves as the CAS would.
   - [push_publish_first] stores [bottom] before it writes the cell, so
     the SC [bottom] store no longer publishes the plain cell write.  A
     thief that runs in the window between the two (the
     [lfdeque_push_publish] yield point) wins index [b] while the slot
     still holds the empty marker or an older element: it takes nothing
     (or a stale duplicate), and the element written afterwards sits
     below [top], lost.  [push] itself is correct.

   Fixed capacity (no grow): the seeded scenarios never exceed it, and
   resizing is irrelevant to the bugs being planted. *)

module Schedpoint = Dfd_structures.Schedpoint

let empty : Obj.t = Obj.repr (ref ())

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  mask : int;
  cells : Obj.t array;
  owner : int option Atomic.t;
}

let create ?(capacity = 64) ?owner () =
  let cap = max 2 capacity in
  let rec pow2 c = if c >= cap then c else pow2 (c * 2) in
  let cap = pow2 1 in
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    mask = cap - 1;
    cells = Array.make cap empty;
    owner = Atomic.make owner;
  }

let get q i = q.cells.(i land q.mask)

let set q i x = q.cells.(i land q.mask) <- x

let owner q = Atomic.get q.owner

let abandon q =
  Schedpoint.point Schedpoint.lfdeque_abandon;
  Atomic.set q.owner None

let is_dead q =
  let unowned = Atomic.get q.owner = None in
  Schedpoint.point Schedpoint.lfdeque_reap;
  unowned && Atomic.get q.bottom - Atomic.get q.top <= 0

let push q x =
  let b = Atomic.get q.bottom in
  Schedpoint.point Schedpoint.lfdeque_push_cell;
  set q b (Obj.repr x);
  Schedpoint.point Schedpoint.lfdeque_push_publish;
  Atomic.set q.bottom (b + 1)

(* THE BUG: the cell is written after the store that publishes it. *)
let push_publish_first q x =
  let b = Atomic.get q.bottom in
  Schedpoint.point Schedpoint.lfdeque_push_cell;
  Atomic.set q.bottom (b + 1);
  Schedpoint.point Schedpoint.lfdeque_push_publish;
  set q b (Obj.repr x)

(* A won index whose slot still holds the marker yields nothing: the
   marker is not an ['a], so it must not escape even from this deque. *)
let won x = if x == empty then None else Some (Obj.obj x)

let take q i =
  let x = get q i in
  set q i empty;
  won x

let pop q =
  let b = Atomic.get q.bottom - 1 in
  Atomic.set q.bottom b;
  Schedpoint.point Schedpoint.lfdeque_pop_reserve;
  let t = Atomic.get q.top in
  let d = b - t in
  if d < 0 then begin
    Atomic.set q.bottom t;
    None
  end
  else if d = 0 then begin
    Schedpoint.point Schedpoint.lfdeque_pop_race;
    let ok = Atomic.compare_and_set q.top t (t + 1) in
    Atomic.set q.bottom (t + 1);
    if ok then take q b else None
  end
  else take q b

(* THE BUG: check-then-store instead of compare-and-set. *)
let steal q =
  let t = Atomic.get q.top in
  Schedpoint.point Schedpoint.lfdeque_steal_read;
  let b = Atomic.get q.bottom in
  if b - t <= 0 then None
  else begin
    let x = get q t in
    Schedpoint.point Schedpoint.lfdeque_steal_cell;
    if Atomic.get q.top = t then begin
      Schedpoint.point Schedpoint.lfdeque_steal_commit;
      Atomic.set q.top (t + 1);
      won x
    end
    else None
  end

let length q = max 0 (Atomic.get q.bottom - Atomic.get q.top)
