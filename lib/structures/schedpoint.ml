(* Injectable yield points for the systematic concurrency checker.

   Concurrency-sensitive code (the Chase–Lev deque, the native pool's hot
   paths) calls [point id] at the instants where an adversarial scheduler
   could preempt it.  In production no handler is installed and a point is
   a single sequentially-consistent load of [None] — no allocation, no
   branch beyond the match.  The checker (lib/check) installs a handler
   for the duration of an exploration run; the handler itself decides
   whether the calling thread is one of the controlled threads (via
   domain-local state) and blocks it until the explorer schedules it. *)

let handler : (int -> unit) option Atomic.t = Atomic.make None

let install f = Atomic.set handler (Some f)

let uninstall () = Atomic.set handler None

let active () = Atomic.get handler <> None

let point id = match Atomic.get handler with None -> () | Some f -> f id

(* Yield-point ids.  Stable small ints so replay files stay readable and
   diffable; [name] renders them for traces. *)

let start = 0

let clev_push_cell = 1

let clev_push_publish = 2

let clev_pop_reserve = 3

let clev_pop_race = 4

let clev_steal_read = 5

let clev_steal_cell = 6

let clev_grow_publish = 7

let pool_push = 8

let pool_get = 9

let pool_pop_exact = 10

let pool_await = 11

let pool_fulfill = 12

let clev_steal_commit = 13

let multiq_insert = 14

let multiq_remove = 15

let multiq_sample = 16

let multiq_remove_commit = 17

let lfdeque_push_cell = 18

let lfdeque_push_publish = 19

let lfdeque_pop_reserve = 20

let lfdeque_pop_race = 21

let lfdeque_steal_read = 22

let lfdeque_steal_cell = 23

let lfdeque_grow_publish = 24

let lfdeque_abandon = 25

let lfdeque_reap = 26

let lfdeque_steal_commit = 27

let pool_crash_flag = 28

let pool_quarantine = 29

let pool_orphan_push = 30

let pool_orphan_pop = 31

let pool_push_signal = 32

let pool_park_scan = 33

let names =
  [|
    "start";
    "clev_push_cell";
    "clev_push_publish";
    "clev_pop_reserve";
    "clev_pop_race";
    "clev_steal_read";
    "clev_steal_cell";
    "clev_grow_publish";
    "pool_push";
    "pool_get";
    "pool_pop_exact";
    "pool_await";
    "pool_fulfill";
    "clev_steal_commit";
    "multiq_insert";
    "multiq_remove";
    "multiq_sample";
    "multiq_remove_commit";
    "lfdeque_push_cell";
    "lfdeque_push_publish";
    "lfdeque_pop_reserve";
    "lfdeque_pop_race";
    "lfdeque_steal_read";
    "lfdeque_steal_cell";
    "lfdeque_grow_publish";
    "lfdeque_abandon";
    "lfdeque_reap";
    "lfdeque_steal_commit";
    "pool_crash_flag";
    "pool_quarantine";
    "pool_orphan_push";
    "pool_orphan_pop";
    "pool_push_signal";
    "pool_park_scan";
  |]

let name id = if id >= 0 && id < Array.length names then names.(id) else Printf.sprintf "p%d" id

let of_name s =
  let found = ref None in
  Array.iteri (fun i n -> if n = s then found := Some i) names;
  !found
