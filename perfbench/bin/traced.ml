(* The traced run: every per-layer metric, whatever the workload.

   The run times the microbenchmarks, then one section per layer stack:
   runtime (the workload's own unit of work for [forkjoin] and [sort],
   fib for the others), service and simulate.  The section of the
   workload named on the command line runs for the whole [seconds] with
   spans on and again with spans off; the traced/untraced ratio of the
   two medians is trace.span_overhead_ratio.  Other sections run just
   long enough for their medians.  Counters are read from the layers'
   own APIs (Pool.counters, Pool.rank_error, Service.counters and
   pool_counters, Engine.result) at the same boundaries as the spans. *)

open Common
module Pool = Dfd_runtime.Pool
module Histogram = Dfd_structures.Stats.Histogram
module Tracer = Dfd_trace.Tracer
module Service = Dfd_service.Service
module Engine = Dfdeques_core.Engine
module Analysis = Dfd_dag.Analysis

let short_samples = 20

let off () = Spans.create ~enabled:false

let span_median_ms spans name =
  match Spans.durations_us (Spans.spans spans) name with
  | [] -> invalid_arg ("no spans named " ^ name)
  | xs -> Stat.median xs /. 1e3

(* ------------------------------------------------------------------ *)
(* runtime                                                              *)
(* ------------------------------------------------------------------ *)

let p1_runs = 20

(* A p=1 pool runs everything on the calling domain, so its per-task
   overhead over the serial code and its allocation (Gc.minor_words of
   this domain) are exact. *)
let p1 tally (w : Native.unit_of_work) pol =
  let name = Native.policy_name pol in
  let pool = Pool.create ~domains:0 pol in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      ignore (Native.run_once (off ()) tally (name, pool) w);
      let c0 = Pool.counters pool and mw0 = Gc.minor_words () in
      let times =
        List.filter_map
          (fun _ -> Option.map ms_of_ns (Native.run_once (off ()) tally (name, pool) w))
          (List.init p1_runs Fun.id)
      in
      let mw1 = Gc.minor_words () and c1 = Pool.counters pool in
      let tasks = c1.Pool.tasks_run - c0.Pool.tasks_run in
      (name, Stat.median times, Stat.iratio tasks p1_runs, Stat.ratio (mw1 -. mw0) (float_of_int tasks)))

let counters_of st = List.map (fun (n, pool) -> (n, Pool.counters pool)) st.Native.pools

(* The p=2 section: per-policy medians and counter deltas over the
   pass, plus (when [twin]) the span overhead against an untraced pass
   of the same length on the same pools. *)
let runtime spans tally ~seed ~seconds ~twin workload =
  let st = Native.setup ~seed workload () in
  Fun.protect ~finally:(fun () -> Native.teardown st) (fun () ->
      let w = st.Native.w in
      let serial_ms =
        Stat.median
          (List.init 7 (fun _ ->
               Spans.with_span spans "serial" (fun _ ->
                   let t0 = now_ns () in
                   w.Native.serial ();
                   ms_of_ns (now_ns () - t0))))
      in
      let p1s = List.map (p1 tally w) Native.policies in
      let c0 = counters_of st in
      let samples, _ =
        Native.alternate spans tally ~seed ~seconds ~min_samples:short_samples ~renew:false st
      in
      let c1 = counters_of st in
      let overhead =
        if not twin then []
        else
          let untraced, _ =
            Native.alternate (off ()) tally ~seed ~seconds ~min_samples:short_samples
              ~renew:false st
          in
          [ ( "trace.span_overhead_ratio",
              span_median_ms spans "Pool.run.dfd" /. Stat.median (List.assoc "dfd" untraced),
              "x" ) ]
      in
      let per pol =
        let p1_ms, p1_tasks, p1_words =
          let _, ms, tasks, words = List.find (fun (n, _, _, _) -> n = pol) p1s in
          (ms, tasks, words)
        in
        let runs = List.length (List.assoc pol samples) in
        let d f = f (List.assoc pol c1) - f (List.assoc pol c0) in
        let per_run f = Stat.iratio (d f) runs in
        let p2_ms = Stat.median (List.assoc pol samples) in
        let m name v unit_ = (Printf.sprintf "runtime.%s.%s" pol name, v, unit_) in
        [
          m "speedup_p2" (Stat.ratio p1_ms p2_ms) "x";
          m "ns_per_task" (Stat.ratio ((p1_ms -. serial_ms) *. 1e6) p1_tasks) "ns";
          m "minor_words_per_task" p1_words "words";
          m "parks_per_run" (per_run (fun c -> c.Pool.parks)) "count";
          m "steals_per_run" (per_run (fun c -> c.Pool.steals)) "count";
          m "steal_success_frac"
            (Stat.iratio (d (fun c -> c.Pool.steals))
               (d (fun c -> c.Pool.steals) + d (fun c -> c.Pool.steal_failures)))
            "fraction";
        ]
        @
        if pol <> "dfd" then []
        else
          [
            m "sync_ops_per_task"
              (Stat.iratio (d (fun c -> c.Pool.sync_ops)) (d (fun c -> c.Pool.tasks_run)))
              "count";
            m "quota_giveups_per_run" (per_run (fun c -> c.Pool.quota_giveups)) "count";
            m "rank_error_p99"
              (Option.value ~default:0.0
                 (Histogram.quantile (Pool.rank_error (List.assoc "dfd" st.Native.pools)) 0.99))
              "positions";
          ]
      in
      (("runtime.serial_ms", serial_ms, "ms") :: per "ws") @ per "dfd" @ overhead)

(* Forkjoin on a p=2 DFDeques pool with the pool's own event tracer on,
   against the same pool type with it off. *)
let pool_tracer_ratio tally =
  let w = Native.forkjoin_work () in
  let make tracer =
    ("dfd", Pool.create ~domains:1 ?tracer (Pool.Dfdeques { quota = Native.dfd_k }))
  in
  let on = make (Some (Tracer.create ~capacity:65536 ())) and plain = make None in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, p) -> Pool.shutdown p) [ on; plain ])
    (fun () ->
       let time pool = Option.map ms_of_ns (Native.run_once (off ()) tally pool w) in
       List.iter (fun p -> ignore (time p)) [ on; plain ];
       let pairs = List.init short_samples (fun _ -> (time on, time plain)) in
       let ons = List.filter_map fst pairs and plains = List.filter_map snd pairs in
       [ ("trace.pool_tracer_ratio", Stat.median ons /. Stat.median plains, "x") ])

(* ------------------------------------------------------------------ *)
(* service                                                              *)
(* ------------------------------------------------------------------ *)

let min_service_jobs = 1000

(* submit -> on_done of each job, from its submit and on_done spans. *)
let job_latencies_ms spans =
  let submits = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.Spans.name = "Service.submit" then Hashtbl.replace submits s.Spans.job s.Spans.t0)
    spans;
  List.filter_map
    (fun s ->
       if s.Spans.name <> "on_done" then None
       else Option.map (fun t0 -> ms_of_ns (s.Spans.t1 - t0)) (Hashtbl.find_opt submits s.Spans.job))
    spans

let service spans tally ~seed ~seconds ~twin =
  let st = Svc.setup ~seed ~which:[ "dfd" ] () in
  Fun.protect ~finally:(fun () -> Svc.teardown st) (fun () ->
      let svc = List.assoc "dfd" st.Svc.services in
      let parks0 = (Service.pool_counters svc).Pool.parks in
      let obs, _ = Svc.measure spans tally ~seconds ~min_jobs:min_service_jobs st in
      let parks = (Service.pool_counters svc).Pool.parks - parks0 in
      let o = List.assoc "dfd" obs in
      let jobs = o.Svc.jobs in
      let n = List.length jobs in
      let recorded = Spans.spans spans in
      let self = Spans.self_times recorded in
      let of_jobs f = List.map f jobs in
      let tenant name =
        List.filter_map
          (fun j -> if j.Svc.s_tenant = name then Some (Svc.latency_ms j) else None)
          jobs
      in
      let p50 name xs = pct name ~q:0.5 xs in
      let c = Service.counters svc in
      let latencies = job_latencies_ms recorded in
      let overhead =
        if not twin then []
        else
          let untraced, _ = Svc.measure (off ()) tally ~seconds ~min_jobs:min_service_jobs st in
          let u = List.map Svc.latency_ms (List.assoc "dfd" untraced).Svc.jobs in
          [ ("trace.span_overhead_ratio", Stat.median latencies /. Stat.median u, "x") ]
      in
      [
        ( "service.submit_us_p50",
          p50 "service.submit_us_p50" (of_jobs (fun j -> us_of_ns (j.Svc.submit_t1 - j.Svc.submit_t0))),
          "us" );
        ( "service.queue_wait_ms_p50",
          p50 "service.queue_wait_ms_p50"
            (of_jobs (fun j -> ms_of_ns (j.Svc.start - j.Svc.submit_t0))),
          "ms" );
        ( "service.job_run_ms_p50",
          p50 "service.job_run_ms_p50"
            (of_jobs (fun j -> ms_of_ns (j.Svc.stop - j.Svc.start))),
          "ms" );
        ( "service.settle_us_p50",
          p50 "service.settle_us_p50" (of_jobs (fun j -> us_of_ns (j.Svc.done_t - j.Svc.stop))),
          "us" );
        ("service.step_us_p50", p50 "service.step_us_p50" (Spans.durations_us recorded "Service.step"), "us");
        ( "service.step_self_us_p50",
          p50 "service.step_self_us_p50" (Spans.durations_us ~self recorded "Service.step"),
          "us" );
        ("service.steps_per_job", Stat.iratio o.Svc.steps n, "count");
        ("service.pool_parks_per_job", Stat.iratio parks n, "count");
        ( "service.tenant.interactive.latency_ms_p50",
          p50 "service.tenant.interactive.latency_ms_p50" (tenant "interactive"),
          "ms" );
        ("service.tenant.batch.latency_ms_p50", p50 "service.tenant.batch.latency_ms_p50" (tenant "batch"), "ms");
        ("job_latency_ms_p50", p50 "job_latency_ms_p50" latencies, "ms");
        ("job_latency_ms_p99", pct "job_latency_ms_p99" ~q:0.99 latencies, "ms");
        ("service.retries", float_of_int c.Service.retries, "count");
        ("service.timeouts", float_of_int c.Service.timeouts, "count");
        ( "service.rejected",
          float_of_int
            (c.Service.rejected_queue_full + c.Service.rejected_breaker_open
           + c.Service.rejected_memory_pressure + c.Service.rejected_overloaded),
          "count" );
        ("service.wedges", float_of_int c.Service.wedges, "count");
        ("service.duplicate_acks", float_of_int c.Service.duplicate_acks, "count");
      ]
      @ overhead)

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)
(* ------------------------------------------------------------------ *)

let simulate spans tally ~seed ~seconds ~twin =
  let st = Sim.setup ~spans ~seed () in
  let samples, _ = Sim.measure spans tally ~seconds ~min_samples:short_samples st in
  let results n = List.assoc n st.Sim.reference in
  let sum n f = List.fold_left (fun a r -> a + f r) 0 (results n) in
  let serial = List.fold_left (fun a pr -> a + pr.Sim.summary.Analysis.serial_space) 0 st.Sim.programs in
  let space n = Stat.iratio (sum n (fun r -> r.Engine.heap_peak)) serial in
  let passes = List.concat_map (fun (n, xs) -> List.map (fun ms -> (n, ms)) xs) samples in
  let actions =
    List.fold_left (fun a (n, _) -> a +. float_of_int (sum n (fun r -> r.Engine.work))) 0.0 passes
  in
  let wall_s = List.fold_left (fun a (_, ms) -> a +. (ms /. 1e3)) 0.0 passes in
  let count n name f = (Printf.sprintf "core.%s.%s" n name, float_of_int (sum n f), "count") in
  let overhead =
    if not twin then []
    else
      let untraced, _ = Sim.measure (off ()) tally ~seconds ~min_samples:short_samples st in
      [ ( "trace.span_overhead_ratio",
          span_median_ms spans "pass.dfd" /. Stat.median (List.assoc "dfd" untraced),
          "x" ) ]
  in
  [
    ("dag.build_ms", st.Sim.build_ms, "ms");
    ("dag.analyze_ms", st.Sim.analyze_ms, "ms");
  ]
  @ List.map (fun (n, xs) -> (Printf.sprintf "core.%s.run_ms" n, Stat.median xs, "ms")) samples
  @ [
    count "dfd" "steals" (fun r -> r.Engine.steals);
    count "dfd" "quota_exhaustions" (fun r -> r.Engine.quota_exhaustions);
    count "dfd" "dummy_threads" (fun r -> r.Engine.dummy_threads);
    count "dfd" "heavy_premature" (fun r -> r.Engine.heavy_premature);
    ( "core.dfd.deque_peak",
      float_of_int (List.fold_left (fun a r -> max a r.Engine.deque_peak) 0 (results "dfd")),
      "count" );
    ("core.ws.space_ratio", space "ws", "x");
    ("core.adf.space_ratio", space "adf", "x");
  ]
  @ List.map
    (fun (n, _) -> (Printf.sprintf "machine.%s.cache_misses" n, float_of_int (sum n (fun r -> r.Engine.cache_misses)), "count"))
    Sim.scheds
  @ [
    ("sim_actions_per_s", Stat.ratio actions wall_s, "1/s");
    ("sim_space_ratio", space "dfd", "x");
    ( "sim_miss_rate_pct",
      100.0 *. Stat.iratio (sum "dfd" (fun r -> r.Engine.cache_misses)) (sum "dfd" (fun r -> r.Engine.cache_accesses)),
      "%" );
  ]
  @ overhead

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~tally workload =
  let spans = Spans.create ~enabled:true in
  let section name = if name = workload then (seconds /. 2.0, true) else (0.0, false) in
  let micro = Micro.all spans ~seed in
  let rt =
    let w = if workload = "sort" then "sort" else "forkjoin" in
    let seconds, twin = section w in
    runtime spans tally ~seed ~seconds ~twin w
  in
  let svc =
    let seconds, twin = section "service" in
    service spans tally ~seed ~seconds ~twin
  in
  let sim =
    let seconds, twin = section "simulate" in
    simulate spans tally ~seed ~seconds ~twin
  in
  let tracer = pool_tracer_ratio tally in
  (micro @ rt @ svc @ sim @ tracer, Spans.spans spans)
