(* Microbenchmarks of single layers, run only in the traced run: the
   CAS deque and the MultiQueue R-list (structures), the simulated cache
   (machine), and Pool.run entry and wake latency (runtime).  Each loop
   is one span named "micro.<what>"; each figure is the median of
   [reps] timed batches. *)

open Common
module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
module Prng = Dfd_structures.Prng
module Cache = Dfd_machine.Cache
module Config = Dfd_machine.Config
module Pool = Dfd_runtime.Pool

let reps = 7

(* Median over [reps] batches of the time per operation, where one
   batch runs [batch ()] and reports how many operations it did. *)
let per_op_ns spans name batch =
  Spans.with_span spans ("micro." ^ name) (fun _ ->
      Stat.median
        (List.init reps (fun _ ->
             let t0 = now_ns () in
             let ops = batch () in
             Stat.ratio (float_of_int (now_ns () - t0)) (float_of_int ops))))

(* Owner push/pop on one domain: 32 pushes then 32 pops per round, so
   the deque stays short and the fast paths are what is timed. *)
let lfdeque_push_pop spans =
  let d = Lfdeque.create ~owner:0 () in
  let ops = ref 0 in
  let rounds = 20_000 in
  let batch () =
    for _ = 1 to rounds do
      for i = 1 to 32 do
        Lfdeque.push ~ops d i
      done;
      for _ = 1 to 32 do
        ignore (Sys.opaque_identity (Lfdeque.pop ~ops d))
      done
    done;
    rounds * 32
  in
  let ns = per_op_ns spans "lfdeque.push_pop" batch in
  let per_op = Stat.iratio !ops (2 * 32 * rounds * reps) in
  [
    ("structures.lfdeque.push_pop_ns", ns, "ns");
    ("structures.lfdeque.sync_ops_per_op", per_op, "count");
  ]

(* A thief on this domain steals while the owner, on another domain,
   keeps the deque topped up.  Time per steal attempt that succeeded
   (failed attempts count toward the time). *)
let lfdeque_steal spans =
  let d = Lfdeque.create ~owner:1 () in
  let stop = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if Lfdeque.length d < 64 then Lfdeque.push d 1 else Domain.cpu_relax ()
        done)
  in
  let steals = 50_000 in
  let batch () =
    let got = ref 0 in
    while !got < steals do
      match Lfdeque.steal d with Some _ -> incr got | None -> Domain.cpu_relax ()
    done;
    steals
  in
  let ns = Fun.protect ~finally:(fun () -> Atomic.set stop true; Domain.join owner) (fun () ->
      per_op_ns spans "lfdeque.steal" batch)
  in
  [ ("structures.lfdeque.steal_ns", ns, "ns") ]

let multiq spans =
  let q = Multiq.create ~shards:4 () in
  let n = 100_000 in
  let insert_remove () =
    for i = 1 to n do
      ignore (Multiq.remove q (Multiq.insert_front q i))
    done;
    n
  in
  let ir = per_op_ns spans "multiq.insert_remove" insert_remove in
  for i = 1 to 64 do
    ignore (Multiq.insert_front q i)
  done;
  let sample () =
    for i = 1 to n do
      ignore (Sys.opaque_identity (Multiq.sample q i (i * 7)))
    done;
    n
  in
  let s = per_op_ns spans "multiq.sample" sample in
  [ ("structures.multiq.insert_remove_ns", ir, "ns"); ("structures.multiq.sample_ns", s, "ns") ]

(* Cache.access over a seeded address stream twice the cache's size, so
   hits and misses both occur. *)
let cache_access spans ~seed =
  let cfg = Config.default_cache in
  let c = Cache.create cfg ~p:1 in
  let rng = Prng.create seed in
  let span_words = 2 * Config.cache_bytes cfg / 8 in
  let addrs = Array.init 4096 (fun _ -> Prng.int rng span_words) in
  let rounds = 100 in
  let batch () =
    for _ = 1 to rounds do
      Array.iter (fun a -> ignore (Sys.opaque_identity (Cache.access c ~proc:0 ~addr:a))) addrs
    done;
    rounds * Array.length addrs
  in
  [ ("machine.cache.access_ns", per_op_ns spans "cache.access" batch, "ns") ]

(* Pool.run latency on the p=2 DFDeques pool: a no-op (entry and exit
   only) and fib 15 (~2k forks, so waking the second worker and parking
   it again dominate). *)
let pool_run spans =
  let pool = Pool.create ~domains:1 (Pool.Dfdeques { quota = Native.dfd_k }) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let per_run_us name n f =
        per_op_ns spans name (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Pool.run pool f))
            done;
            n)
        /. 1e3
      in
      let noop = per_run_us "pool.run_noop" 2000 (fun () -> 0) in
      let fib15 = per_run_us "pool.run_fib15" 100 (fun () -> Native.fib 15) in
      [ ("runtime.run_noop_us", noop, "us"); ("runtime.run_fib15_us", fib15, "us") ])

let all spans ~seed =
  lfdeque_push_pop spans @ lfdeque_steal spans @ multiq spans @ cache_access spans ~seed
  @ pool_run spans
