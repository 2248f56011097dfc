(* Tests for the real Domains-based fork-join pool: correctness of results
   under both deque disciplines, exception propagation, the quota
   mechanism, and determinism-independent invariants.  These are
   correctness tests, not speedup tests — timings live in perfbench/ —
   but the pool runs real concurrent domains. *)

module Pool = Dfd_runtime.Pool
module Watchdog = Dfd_fault.Watchdog
module Stats = Dfd_structures.Stats
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Extra worker domains derived from the machine but capped at 4 workers
   total: oversubscribing a small CI container is the main source of
   flaky slow runs, and these are correctness tests — beyond a handful
   of workers they exercise nothing new. *)
let default_domains = min 4 (max 2 (Domain.recommended_domain_count ())) - 1

let with_pool ?(domains = default_domains) ?tracer policy f =
  let pool = Pool.create ~domains ?tracer policy in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Bounded spin-wait: poll [cond] under a wall-clock no-progress watchdog
   instead of looping forever — if the pool wedges, the test fails with
   its diagnostic snapshot rather than hanging the whole suite. *)
let spin_until ?(limit_ms = 20_000) ~snapshot cond =
  let wd = Watchdog.create ~limit:limit_ms ~snapshot () in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (cond ()) then begin
      Watchdog.check wd ~now:(int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let policies = [ (Pool.Work_stealing, "WS"); (Pool.Dfdeques { quota = 4096 }, "DFD") ]

let rec fib n =
  if n < 2 then n
  else begin
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b
  end

let test_fib () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " fib 20") 6765 (Pool.run pool (fun () -> fib 20))))
    policies

let test_fork_join_order () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let a, b =
             Pool.run pool (fun () -> Pool.fork_join (fun () -> "left") (fun () -> "right"))
           in
           Alcotest.(check string) (name ^ " left") "left" a;
           Alcotest.(check string) (name ^ " right") "right" b))
    policies

let test_parallel_for_sum () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let n = 10_000 in
           let acc = Array.make n 0 in
           Pool.run pool (fun () -> Pool.parallel_for ~lo:0 ~hi:n (fun i -> acc.(i) <- i));
           let total = Array.fold_left ( + ) 0 acc in
           checki (name ^ " sum") (n * (n - 1) / 2) total))
    policies

let test_parallel_map () =
  with_pool Pool.Work_stealing (fun pool ->
      let input = Array.init 1000 (fun i -> i) in
      let out = Pool.run pool (fun () -> Pool.parallel_map (fun x -> x * x) input) in
      checkb "squares" true (Array.for_all (fun _ -> true) out);
      checki "spot" (37 * 37) out.(37);
      checki "len" 1000 (Array.length out))

let test_empty_ranges () =
  with_pool Pool.Work_stealing (fun pool ->
      Pool.run pool (fun () -> Pool.parallel_for ~lo:5 ~hi:5 (fun _ -> assert false));
      checki "empty map" 0 (Array.length (Pool.run pool (fun () -> Pool.parallel_map succ [||]))))

let test_parallel_reduce () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let n = 5000 in
           let total =
             Pool.run pool (fun () ->
                 Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i -> i))
           in
           checki (name ^ " reduce") (n * (n - 1) / 2) total;
           let mx =
             Pool.run pool (fun () ->
                 Pool.parallel_reduce ~zero:min_int ~op:max ~lo:0 ~hi:n (fun i ->
                     (i * 7919) mod 1000))
           in
           checki (name ^ " max reduce") 999 mx))
    policies

let test_parallel_prefix_sum () =
  with_pool Pool.Work_stealing (fun pool ->
      let arr = Array.init 4000 (fun i -> i + 1) in
      let out = Pool.run pool (fun () -> Pool.parallel_prefix_sum ~zero:0 ~op:( + ) arr) in
      checki "first is zero" 0 out.(0);
      checki "exclusive prefix" (1 + 2 + 3) out.(3);
      checki "last" (3999 * 4000 / 2) out.(3999);
      (* reference check at random points *)
      List.iter
        (fun i ->
           let expect = i * (i + 1) / 2 in
           checki (Printf.sprintf "prefix %d" i) expect out.(i))
        [ 1; 17; 1023; 1024; 1025; 2500 ];
      checki "empty" 0 (Array.length (Pool.run pool (fun () -> Pool.parallel_prefix_sum ~zero:0 ~op:( + ) [||]))))

let test_psort_correct () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let rng = Dfd_structures.Prng.create 31 in
           List.iter
             (fun n ->
                let arr = Array.init n (fun _ -> Dfd_structures.Prng.int rng 10_000) in
                let expect = Array.copy arr in
                Array.sort compare expect;
                Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:64 ~cmp:compare arr);
                checkb
                  (Printf.sprintf "%s psort n=%d" name n)
                  true (arr = expect))
             [ 0; 1; 2; 63; 64; 65; 1000; 10_000 ]))
    policies

let test_psort_already_sorted_and_reverse () =
  with_pool Pool.Work_stealing (fun pool ->
      let n = 5000 in
      let asc = Array.init n (fun i -> i) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:128 ~cmp:compare asc);
      checkb "ascending stays sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare asc);
      let desc = Array.init n (fun i -> n - i) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:128 ~cmp:compare desc);
      checkb "descending gets sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare desc);
      checki "still a permutation" (n * (n + 1) / 2) (Array.fold_left ( + ) 0 desc))

let test_psort_duplicates_and_custom_cmp () =
  with_pool (Pool.Dfdeques { quota = 8192 }) (fun pool ->
      let arr = Array.init 3000 (fun i -> i mod 7) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:100 ~cmp:compare arr);
      checkb "duplicates sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare arr);
      (* descending comparator *)
      let arr2 = Array.init 2000 (fun i -> (i * 7919) mod 500) in
      let cmp a b = compare b a in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:100 ~cmp arr2);
      checkb "descending order" true (Dfd_runtime.Psort.sorted ~cmp arr2))

exception Boom

let test_exception_propagation () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checkb (name ^ " child exn") true
             (try
                ignore
                  (Pool.run pool (fun () ->
                       Pool.fork_join (fun () -> raise Boom) (fun () -> 1)));
                false
              with Boom -> true);
           checkb (name ^ " parent exn") true
             (try
                ignore
                  (Pool.run pool (fun () ->
                       Pool.fork_join (fun () -> 1) (fun () -> raise Boom)));
                false
              with Boom -> true);
           (* the pool survives exceptions *)
           checki (name ^ " still works") 55 (Pool.run pool (fun () -> fib 10))))
    policies

(* [fork_join]'s exception contract, on the inline path (a pool with no
   extra domains never has a thief, so the forked branch always runs
   inline): a raise from the forked branch reaches the caller and counts
   once; if both branches raise, the forked branch's exception wins; if
   only the inline branch raises, the forked branch still ran and
   nothing stays queued. *)
exception Boom_a

exception Boom_b

let test_fork_join_exn_contract () =
  List.iter
    (fun (policy, name) ->
       with_pool ~domains:0 policy (fun pool ->
           let raises f = match Pool.run pool f with _ -> None | exception e -> Some e in
           let exns () = (Pool.counters pool).Pool.task_exns in
           let e0 = exns () in
           checkb (name ^ " forked raise reaches caller") true
             (raises (fun () -> Pool.fork_join (fun () -> raise Boom_a) (fun () -> 1))
              = Some Boom_a);
           checki (name ^ " counted exactly once") 1 (exns () - e0);
           checkb (name ^ " both raise: forked branch wins") true
             (raises (fun () ->
                  Pool.fork_join (fun () -> raise Boom_a) (fun () -> raise Boom_b))
              = Some Boom_a);
           let ran = ref false in
           checkb (name ^ " inline raise reaches caller") true
             (raises (fun () -> Pool.fork_join (fun () -> ran := true) (fun () -> raise Boom_b))
              = Some Boom_b);
           checkb (name ^ " forked branch joined first") true !ran;
           checki (name ^ " nothing left queued") 0 (Pool.For_testing.live_tasks pool)))
    policies

let test_nested_run_rejected () =
  with_pool Pool.Work_stealing (fun pool ->
      checkb "nested run fails" true
        (try
           Pool.run pool (fun () -> Pool.run pool (fun () -> ()));
           false
         with Pool.Nested_run -> true);
      (* the failed nested call must not poison the outer context *)
      checki "outer run still works" 55 (Pool.run pool (fun () -> fib 10)))

let test_fork_join_outside_run_rejected () =
  checkb "fork_join outside run" true
    (try
       ignore (Pool.fork_join (fun () -> 1) (fun () -> 2));
       false
     with Pool.Not_in_pool -> true)

let test_alloc_hint_quota () =
  with_pool (Pool.Dfdeques { quota = 100 }) (fun pool ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~lo:0 ~hi:64 (fun _ -> Pool.alloc_hint 64));
      let giveups = (Pool.counters pool).Pool.quota_giveups in
      checkb "quota giveups occur under DFDeques" true (giveups >= 0))

let test_rank_error_instrumented () =
  with_pool (Pool.Dfdeques { quota = 2048 }) (fun pool ->
      ignore (Pool.run pool (fun () -> fib 16));
      let c = Pool.counters pool in
      let h = Pool.rank_error pool in
      (* one rank-error sample per successful steal, and the membership
         counters reconcile: every reaped deque was first inserted *)
      checki "rank samples = steals" c.Pool.steals (Stats.Histogram.count h);
      checkb "inserts cover removes" true (c.Pool.r_inserts >= c.Pool.r_removes);
      checkb "removes non-negative" true (c.Pool.r_removes >= 0));
  with_pool Pool.Work_stealing (fun pool ->
      ignore (Pool.run pool (fun () -> fib 12));
      checkb "WS records no rank error" true
        (Stats.Histogram.is_empty (Pool.rank_error pool)))

let test_stats_counters () =
  with_pool Pool.Work_stealing (fun pool ->
      ignore (Pool.run pool (fun () -> fib 15));
      let c = Pool.counters pool in
      checkb "tasks ran" true (c.Pool.tasks_run > 0);
      checki "WS runs zero sync ops" 0 c.Pool.sync_ops)

(* The traced pool's lock-free lanes lose nothing: every task start and
   every successful steal lands in the tracer exactly once, and no lane
   holds a torn (never-written) slot inside its live range.  The tracer
   is read only after shutdown has joined the workers: an idle worker
   keeps emitting steal attempts after [run] returns, so a read of a
   live pool races those emits. *)
let test_tracer_lossless () =
  List.iter
    (fun (policy, name) ->
      let tracer = Tracer.create () in
      let c =
        with_pool ~domains:1 ~tracer policy (fun pool ->
            checki (name ^ " fib 20") 6765 (Pool.run pool (fun () -> fib 20));
            Pool.counters pool)
      in
      checki (name ^ " one Action_batch per task") c.Pool.tasks_run
        (Tracer.count tracer (Event.Action_batch { units = 0 }));
      checki (name ^ " one Steal_success per steal") c.Pool.steals
        (Tracer.count tracer (Event.Steal_success { victim = 0; latency = 0 }));
      let events = List.length (Tracer.events tracer) in
      checki (name ^ " no torn slot") (Tracer.length tracer) events)
    policies

let test_heartbeat_monotonic () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " heartbeat starts at 0") 0 (Pool.heartbeat pool);
           ignore (Pool.run pool (fun () -> fib 12));
           let h1 = Pool.heartbeat pool in
           checkb (name ^ " heartbeat advanced") true (h1 > 0);
           ignore (Pool.run pool (fun () -> fib 12));
           let h2 = Pool.heartbeat pool in
           checkb (name ^ " heartbeat monotonic") true (h2 > h1);
           checki (name ^ " heartbeat = tasks_run") (Pool.counters pool).Pool.tasks_run h2))
    policies

let test_many_sequential_runs () =
  with_pool (Pool.Dfdeques { quota = 512 }) (fun pool ->
      for i = 1 to 20 do
        checki "repeat" (i * 10) (Pool.run pool (fun () -> i * 10))
      done)

let test_deep_nesting () =
  (* a fork chain deeper than any deque fast path *)
  let rec chain d = if d = 0 then 1 else fst (Pool.fork_join (fun () -> chain (d - 1)) (fun () -> 0)) + 0 in
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " deep chain") 1 (Pool.run pool (fun () -> chain 500))))
    policies

let test_zero_extra_domains () =
  (* degenerate pool: caller is the only worker; everything runs inline *)
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> checki "fib on 1 worker" 610 (Pool.run pool (fun () -> fib 15)))

(* ------------------------------------------------------------------ *)
(* Fault injection, timeouts, graceful degradation                     *)
(* ------------------------------------------------------------------ *)

module Fault = Dfd_fault.Fault

(* Property (per seed, both policies): an injected task exception always
   reaches the caller of [run], and the same pool then completes a clean
   run — injected failures never wedge workers or poison pool state. *)
let qcheck_injected_exn_propagates =
  QCheck.Test.make ~count:30 ~name:"injected task exn reaches run caller; pool reusable"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, use_dfd) ->
       let policy = if use_dfd then Pool.Dfdeques { quota = 4096 } else Pool.Work_stealing in
       let rates = { Fault.zero_rates with Fault.task_exn_prob = 1.0 } in
       let fault = Fault.create ~rates ~seed () in
       let pool = Pool.create ~domains:default_domains ~fault policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            let propagated =
              try
                ignore (Pool.run pool (fun () -> Pool.fork_join (fun () -> 1) (fun () -> 2)));
                false
              with Fault.Injected_failure _ -> true
            in
            Fault.set_enabled fault false;
            let clean = Pool.run pool (fun () -> fib 12) = 144 in
            propagated && clean && (Pool.counters pool).Pool.task_exns > 0))

let test_injected_steal_failures_degrade_gracefully () =
  List.iter
    (fun (policy, name) ->
       let rates = { Fault.zero_rates with Fault.steal_fail_prob = 0.5 } in
       let fault = Fault.create ~rates ~seed:99 () in
       let pool = Pool.create ~domains:default_domains ~fault policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            let n = 5000 in
            let total =
              Pool.run pool (fun () ->
                  Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i -> i))
            in
            checki (name ^ " correct under steal failures") (n * (n - 1) / 2) total))
    policies

(* E2E crash domain: a seeded one-shot worker crash fires mid-psort (the
   victim dies on its first top-of-loop take, holding one unstarted
   task).  The surviving workers quarantine it, requeue the held task
   exactly once, and the sort still returns fully ordered at p-1; the
   lineage ledger audits clean, and a respawn under budget (raced by a
   second one, which must lose) restores full strength for a subsequent
   clean run. *)
let test_worker_crash_mid_psort () =
  List.iter
    (fun (policy, name) ->
       let rates = { Fault.zero_rates with Fault.worker_crash = Some 1 } in
       let fault = Fault.create ~rates ~seed:17 () in
       let pool = Pool.create ~domains:3 ~fault ~respawn_budget:1 policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            let n = 20_000 in
            let arr = Array.init n (fun i -> i * 7919 land 0xffff) in
            let expect = Array.copy arr in
            Array.sort compare expect;
            Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:64 ~cmp:compare arr);
            checkb (name ^ " sorted at p-1") true (arr = expect);
            checki (name ^ " crash fired once") 1
              (List.assoc "worker_crash" (Fault.counts fault));
            checki (name ^ " exactly one quarantine") 1 (Pool.quarantines pool);
            checki (name ^ " degraded to p-1") 3 (Pool.degraded_p pool);
            checki (name ^ " held task requeued exactly once") 1
              (List.length (List.filter (fun e -> e.Pool.requeued) (Pool.lineage pool)));
            (match Pool.verify_lineage pool with
             | Ok () -> ()
             | Error m -> Alcotest.failf "%s lineage audit: %s" name m);
            let victim = match Pool.lineage pool with e :: _ -> e.Pool.worker | [] -> 0 in
            (* two supervisors race to respawn the slot: one CAS claim wins *)
            let racer = Domain.spawn (fun () -> Pool.respawn_worker pool victim) in
            let mine = Pool.respawn_worker pool victim in
            let theirs = Domain.join racer in
            checki (name ^ " one of two racing respawns wins") 1
              (Bool.to_int mine + Bool.to_int theirs);
            checkb (name ^ " budget exhausted after one respawn") false
              (Pool.respawn_worker pool victim);
            checki (name ^ " full strength restored") 4 (Pool.degraded_p pool);
            checki (name ^ " clean run after respawn") 6765 (Pool.run pool (fun () -> fib 20));
            (match Pool.verify_lineage pool with
             | Ok () -> ()
             | Error m -> Alcotest.failf "%s lineage after respawn: %s" name m)))
    policies

let test_timeout_fires_and_pool_reusable () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checkb (name ^ " timeout fires") true
             (match
                Pool.run ~timeout:0.05 pool (fun () ->
                    let rec loop () =
                      ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
                      loop ()
                    in
                    loop ())
              with
              | () -> false
              | exception Pool.Timeout -> true);
           (* drained and reusable *)
           checki (name ^ " clean run after timeout") 55 (Pool.run pool (fun () -> fib 10))))
    policies

(* Regression: a pool must survive *consecutive* timeouts (the drain
   after the first must leave no stale cancellation state), and the
   internal cooperative-cancellation signal must never escape [run] —
   the caller sees [Timeout], nothing else. *)
let test_two_consecutive_timeouts () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let endless () =
             let rec loop () =
               ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
               loop ()
             in
             loop ()
           in
           let observe () =
             match Pool.run ~timeout:0.05 pool endless with
             | () -> "returned"
             | exception Pool.Timeout -> "timeout"
             | exception Pool.Cancelled -> "cancelled-leaked"
             | exception e -> Printexc.to_string e
           in
           Alcotest.(check string) (name ^ " first timeout") "timeout" (observe ());
           Alcotest.(check string) (name ^ " second timeout") "timeout" (observe ());
           checki (name ^ " reusable after two timeouts") 55 (Pool.run pool (fun () -> fib 10))))
    policies

let test_alloc_hint_outside_run () =
  checkb "alloc_hint outside run raises Not_in_pool" true
    (try
       Pool.alloc_hint 64;
       false
     with Pool.Not_in_pool -> true)

let test_dynamic_quota () =
  with_pool (Pool.Dfdeques { quota = 10_000 }) (fun pool ->
      Alcotest.(check (option int)) "initial quota" (Some 10_000) (Pool.quota pool);
      Pool.set_quota pool 2_500;
      Alcotest.(check (option int)) "adjusted quota" (Some 2_500) (Pool.quota pool);
      checki "still correct after shrink" 6765 (Pool.run pool (fun () -> fib 20));
      checkb "set_quota rejects non-positive" true
        (try
           Pool.set_quota pool 0;
           false
         with Invalid_argument _ -> true));
  with_pool Pool.Work_stealing (fun pool ->
      Alcotest.(check (option int)) "WS pool has no quota" None (Pool.quota pool);
      checkb "set_quota rejects WS pools" true
        (try
           Pool.set_quota pool 100;
           false
         with Invalid_argument _ -> true))

let test_alloc_bytes_counter () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           Pool.run pool (fun () ->
               Pool.parallel_for ~lo:0 ~hi:32 (fun _ -> Pool.alloc_hint 100));
           checki (name ^ " alloc_bytes counts hints") 3200
             (Pool.counters pool).Pool.alloc_bytes))
    policies

let test_timeout_not_spurious () =
  with_pool Pool.Work_stealing (fun pool ->
      (* generous deadline, short computation: must not raise *)
      checki "no spurious timeout" 6765 (Pool.run ~timeout:60.0 pool (fun () -> fib 20)))

let test_background_run_observed () =
  (* a run driven from another domain, observed by watchdog-bounded
     polling: completion must become visible without unbounded waiting *)
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let res = Atomic.make 0 in
           let d = Domain.spawn (fun () -> Atomic.set res (Pool.run pool (fun () -> fib 16))) in
           spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () -> Atomic.get res <> 0);
           Domain.join d;
           checki (name ^ " background fib") 987 (Atomic.get res);
           checkb (name ^ " heartbeat advanced") true (Pool.heartbeat pool > 0)))
    policies

let test_snapshot_mentions_state () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           ignore (Pool.run pool (fun () -> fib 10));
           let s = Pool.snapshot pool in
           let has sub =
             let n = String.length s and m = String.length sub in
             let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
             go 0
           in
           checkb (name ^ " snapshot has counters") true (has "tasks_run");
           checkb (name ^ " snapshot has live state") true (has "queued=0")))
    policies

(* ------------------------------------------------------------------ *)
(* Worker domains, the domain cache and park/wake                      *)
(* ------------------------------------------------------------------ *)

module Domain_cache = Dfd_runtime.Domain_cache

let major_heap_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.heap_words

(* Pool churn: every create takes its worker domains from the cache and
   every shutdown gives them back, so no renewal after the warm-up spawns
   a domain and the major heap stays flat.  (Spawning and joining fresh
   domains leaves exited domains' heap pools behind on OCaml 5.1.) *)
let test_pool_churn_heap_flat () =
  let cycle () =
    let pool = Pool.create ~domains:1 Pool.Work_stealing in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> checki "churn fib" 6765 (Pool.run pool (fun () -> fib 20)))
  in
  for _ = 1 to 20 do
    cycle ()
  done;
  let warm = major_heap_words () in
  let spawned = Domain_cache.domains_spawned () in
  for _ = 1 to 200 do
    cycle ()
  done;
  let after = major_heap_words () in
  (* back-to-back renewals reuse the domain; a few may expire while the
     host is too busy to run the next create within the linger time *)
  let fresh = Domain_cache.domains_spawned () - spawned in
  if fresh > 20 then Alcotest.failf "200 renewals spawned %d fresh domains" fresh;
  if after > 2 * warm then
    Alcotest.failf "major heap grew from %d to %d words over 200 pool renewals" warm after

(* [kill] returns without waiting; a later [shutdown] still reaps every
   worker, and the reaped domains are parked in the cache. *)
let test_kill_then_shutdown_reaps () =
  List.iter
    (fun (policy, name) ->
       let pool = Pool.create ~domains:2 policy in
       checki (name ^ " fib before kill") 6765 (Pool.run pool (fun () -> fib 20));
       Pool.kill pool;
       Pool.shutdown pool;
       checkb (name ^ " reaped domains are cached") true (Domain_cache.idle_domains () >= 2);
       (* the next pool runs on them *)
       let spawned = Domain_cache.domains_spawned () in
       with_pool ~domains:2 policy (fun pool ->
           checki (name ^ " fib on cached domains") 6765 (Pool.run pool (fun () -> fib 20)));
       checki (name ^ " no new domain spawned") spawned (Domain_cache.domains_spawned ()))
    policies

(* [respawn_worker] refills a quarantined slot from the cache: a pool
   shut down just before leaves its domain idle there, so the respawn
   spawns nothing. *)
let test_respawn_draws_from_cache () =
  let rates = { Fault.zero_rates with Fault.worker_crash = Some 1 } in
  let fault = Fault.create ~rates ~seed:5 () in
  let pool = Pool.create ~domains:1 ~fault ~respawn_budget:1 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       (* worker 1 crashes on its first take; keep running until it has
          taken one (on a busy host it may sleep through a short run) *)
       let rec until_crashed k =
         checki "fib while crashing" 6765 (Pool.run pool (fun () -> fib 20));
         if Pool.quarantines pool = 0 && k > 0 then until_crashed (k - 1)
       in
       until_crashed 200;
       checki "one quarantine" 1 (Pool.quarantines pool);
       Pool.shutdown (Pool.create ~domains:1 Pool.Work_stealing);
       let spawned = Domain_cache.domains_spawned () in
       checkb "respawn under budget" true (Pool.respawn_worker pool 1);
       checki "respawn spawned no domain" spawned (Domain_cache.domains_spawned ());
       checki "full strength" 2 (Pool.degraded_p pool);
       checki "fib after respawn" 6765 (Pool.run pool (fun () -> fib 20)))

(* Park/wake: between runs the worker parks; each run then forks a task
   that only the parked worker can run — the caller's own branch waits
   for it — so a lost wake-up hangs the run, which the watchdog turns
   into a failure.  Every result is checked. *)
let test_park_wake_no_lost_wakeups () =
  List.iter
    (fun (policy, name) ->
       with_pool ~domains:1 policy (fun pool ->
           let snapshot () = Pool.snapshot pool in
           let parks () = (Pool.counters pool).Pool.parks in
           (* the worker is awake during every run (it runs the forked
              task), so a park counted after the previous run's start is
              a park it entered after that run *)
           let before_last_run = ref 0 in
           for i = 1 to 25 do
             spin_until ~snapshot (fun () -> parks () > !before_last_run);
             Unix.sleepf 0.001;
             before_last_run := parks ();
             let ran = Atomic.make false in
             let a, b =
               Pool.run pool (fun () ->
                   Pool.fork_join
                     (fun () ->
                        Atomic.set ran true;
                        fib 15)
                     (fun () ->
                        spin_until ~snapshot (fun () -> Atomic.get ran);
                        i))
             in
             checki (name ^ " woken worker's result") 610 a;
             checki (name ^ " caller's result") i b
           done))
    policies

(* The idle scan runs on every miss of an idle worker: it must not
   allocate. *)
let test_queued_scan_allocation_free () =
  List.iter
    (fun (policy, name) ->
       let pool = Pool.For_testing.create_detached ~workers:2 policy in
       Pool.For_testing.as_worker pool 0 (fun () ->
           for _ = 1 to 3 do
             Pool.For_testing.push pool 0 ignore
           done);
       checki (name ^ " scan counts the pushes") 3 (Pool.For_testing.live_tasks pool);
       let w0 = Gc.minor_words () in
       for _ = 1 to 1000 do
         ignore (Sys.opaque_identity (Pool.For_testing.live_tasks pool))
       done;
       let words = Gc.minor_words () -. w0 in
       if words > 64. then Alcotest.failf "%s: 1000 scans allocated %.0f words" name words)
    policies

(* The fork/join fast path's allocation, counted rather than timed: on a
   pool with no extra domains every fork is joined inline.  A task of
   [fib] allocates fib's own words — its two branch closures and the
   result pair, measured here through a serial [fork_join] of the same
   shape (13 words with OCaml 5.1 ocamlopt, dev and release profiles
   alike) — plus the pool's: the forked task's closure (6 words) and its
   promise (2), with no per-fork option, [Ok] or [Done] box (the
   unboxed-cell fork path took 14).  The gate is on the pool's words
   only, so a compiler that lays out fib's closures differently moves
   neither side of it.  The words of a [run] that forks nothing are
   subtracted: they are [run]'s own, paid once per call. *)
let serial_fork_join = Sys.opaque_identity (fun fa fb ->
    let b = fb () in
    (fa (), b))

let rec serial_fib n =
  if n < 2 then n
  else begin
    let a, b = serial_fork_join (fun () -> serial_fib (n - 1)) (fun () -> serial_fib (n - 2)) in
    a + b
  end

let test_fork_allocation () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    let v = f () in
    (v, Gc.minor_words () -. w0)
  in
  let v, serial = minor_words (fun () -> serial_fib 20) in
  checki "serial fib 20" 6765 v;
  (* fib 20 forks once per call with n >= 2 *)
  let forks = 10945 in
  let own = serial /. float_of_int forks in
  List.iter
    (fun (policy, name) ->
       with_pool ~domains:0 policy (fun pool ->
           ignore (Pool.run pool (fun () -> fib 10));
           let _, base = minor_words (fun () -> Pool.run pool (fun () -> fib 1)) in
           let t0 = (Pool.counters pool).Pool.tasks_run in
           let v, words = minor_words (fun () -> Pool.run pool (fun () -> fib 20)) in
           checki (name ^ " fib 20") 6765 v;
           let tasks = (Pool.counters pool).Pool.tasks_run - t0 in
           checki (name ^ " one task per fork") forks tasks;
           let per_task = (words -. base) /. float_of_int tasks in
           if per_task -. own > 8. then
             Alcotest.failf "%s: %.2f minor words per task, %.2f of them fib's own" name per_task
               own))
    policies

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "fib" `Quick test_fib;
          Alcotest.test_case "fork_join order" `Quick test_fork_join_order;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for_sum;
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "prefix sum" `Quick test_parallel_prefix_sum;
          Alcotest.test_case "parallel sort" `Quick test_psort_correct;
          Alcotest.test_case "sort edge orders" `Quick test_psort_already_sorted_and_reverse;
          Alcotest.test_case "sort duplicates" `Quick test_psort_duplicates_and_custom_cmp;
          Alcotest.test_case "empty ranges" `Quick test_empty_ranges;
          Alcotest.test_case "exceptions" `Quick test_exception_propagation;
          Alcotest.test_case "fork_join exception contract" `Quick test_fork_join_exn_contract;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "fork_join outside run" `Quick test_fork_join_outside_run_rejected;
          Alcotest.test_case "alloc_hint quota" `Quick test_alloc_hint_quota;
          Alcotest.test_case "stats" `Quick test_stats_counters;
          Alcotest.test_case "traced pool loses no events" `Quick test_tracer_lossless;
          Alcotest.test_case "rank error instrumented" `Quick test_rank_error_instrumented;
          Alcotest.test_case "heartbeat" `Quick test_heartbeat_monotonic;
          Alcotest.test_case "sequential runs" `Quick test_many_sequential_runs;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "zero extra domains" `Quick test_zero_extra_domains;
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_injected_exn_propagates;
          Alcotest.test_case "steal failures degrade gracefully" `Quick
            test_injected_steal_failures_degrade_gracefully;
          Alcotest.test_case "worker crash mid-psort recovers at p-1" `Quick
            test_worker_crash_mid_psort;
          Alcotest.test_case "timeout fires, pool reusable" `Quick
            test_timeout_fires_and_pool_reusable;
          Alcotest.test_case "two consecutive timeouts" `Quick test_two_consecutive_timeouts;
          Alcotest.test_case "alloc_hint outside run" `Quick test_alloc_hint_outside_run;
          Alcotest.test_case "dynamic quota" `Quick test_dynamic_quota;
          Alcotest.test_case "alloc_bytes counter" `Quick test_alloc_bytes_counter;
          Alcotest.test_case "timeout not spurious" `Quick test_timeout_not_spurious;
          Alcotest.test_case "background run observed" `Quick test_background_run_observed;
          Alcotest.test_case "snapshot" `Quick test_snapshot_mentions_state;
        ] );
      ( "domains",
        [
          Alcotest.test_case "pool churn keeps the heap flat" `Quick test_pool_churn_heap_flat;
          Alcotest.test_case "kill then shutdown reaps" `Quick test_kill_then_shutdown_reaps;
          Alcotest.test_case "respawn draws from the cache" `Quick test_respawn_draws_from_cache;
          Alcotest.test_case "park/wake loses no wake-up" `Quick test_park_wake_no_lost_wakeups;
          Alcotest.test_case "idle scan allocation-free" `Quick test_queued_scan_allocation_free;
          Alcotest.test_case "fork allocation per task" `Quick test_fork_allocation;
        ] );
    ]
