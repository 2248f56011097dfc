(* The [service] workload: a closed loop of 8 callers driving the
   multi-tenant service from one thread.  Each caller submits its
   next job only after on_done fired for the previous one.  Two tenants:
   [interactive] (tiny fork-join jobs, weight 3) and [batch] (small
   parallel sorts that report their merge buffers through Pool.alloc_hint,
   weight 1).  The job mix is drawn from the seed.

   End to end the loop alternates, in blocks of [block] jobs, between a
   service on a DFDeques pool with the per-tenant quota controller on
   and the same service on a work-stealing pool; each job's latency is
   submit -> on_done.  Pool width is 1 ([domains = 0]): the stepping
   thread plus the executor domain then fit the 2 cores the benchmark was sized on. *)

open Common
module Pool = Dfd_runtime.Pool
module Psort = Dfd_runtime.Psort
module Prng = Dfd_structures.Prng
module Service = Dfd_service.Service
module Tenant = Dfd_service.Tenant
module Quota_ctl = Dfd_service.Quota_ctl

let callers = 8

let interactive_fib = 12

let batch_len = 2048

let batch_cutoff = 256

(* Out of 4 jobs, 3 are interactive. *)
let interactive_in_4 = 3

let block = 100

(* The per-tenant quota controller runs its interval on every step.  Its
   watermarks sit above the batch tenant's pressure (one 2048-int sort
   hints well under 1 MB), so K never reaches its floor and no job is
   shed for memory pressure: no operation of this workload may fail. *)
let quota =
  {
    Quota_ctl.default_config with
    Quota_ctl.high_watermark = 4_000_000;
    low_watermark = 1_000_000;
  }

let sizes =
  [
    ("callers", Json.Int callers);
    ("interactive_fib_n", Json.Int interactive_fib);
    ("batch_sort_len", Json.Int batch_len);
    ("batch_cutoff", Json.Int batch_cutoff);
    ("interactive_share", Json.Float (float_of_int interactive_in_4 /. 4.0));
    ("block", Json.Int block);
    ("pool_domains", Json.Int 0);
    ("quota_high_watermark", Json.Int quota.Quota_ctl.high_watermark);
  ]

(* One job.  [stamps] is written by the job closure on the executor
   domain; the stepping thread reads it only after on_done, which the service
   fires once the executor handed the attempt back. *)
type stamps = { mutable start : int; mutable stop : int }

type job = {
  caller : int;
  tenant : string;
  stamps : stamps;
  work : unit -> unit;
  check : unit -> bool;
  mutable id : int;
  mutable submit_t0 : int;
  mutable submit_t1 : int;
  mutable done_t : int;
  mutable outcome : Service.outcome option;
}

let interactive_expect = Native.sfib interactive_fib

let make_job rng caller =
  let interactive = Prng.int rng 4 < interactive_in_4 in
  let stamps = { start = 0; stop = 0 } in
  let timed f () =
    stamps.start <- now_ns ();
    f ();
    stamps.stop <- now_ns ()
  in
  let work, check =
    if interactive then
      let result = ref 0 in
      ( timed (fun () -> result := Native.fib interactive_fib),
        fun () -> !result = interactive_expect )
    else
      let data = Array.init batch_len (fun _ -> Prng.int rng (1 lsl 30)) in
      let sum = Native.checksum data in
      ( timed (fun () -> Psort.sort ~cutoff:batch_cutoff ~cmp:Int.compare data),
        fun () -> Native.is_sorted data && Native.checksum data = sum )
  in
  {
    caller;
    tenant = (if interactive then "interactive" else "batch");
    stamps;
    work;
    check;
    id = -1;
    submit_t0 = 0;
    submit_t1 = 0;
    done_t = 0;
    outcome = None;
  }

let outcome_name = function
  | Service.Completed -> "completed"
  | Service.Failed m -> "failed: " ^ m
  | Service.Rejected r -> "rejected: " ^ Service.reject_reason_name r
  | Service.Cancelled -> "cancelled"

let config ~seed =
  {
    Service.default_config with
    seed;
    tenants = [ Tenant.make ~weight:3 "interactive"; Tenant.make ~weight:1 "batch" ];
    quota_ctl = Some quota;
    domains = 0;
  }

(* The clock readings of a job that completed and passed its check.
   The job itself (closure and data) is dropped once settled. *)
type settled = {
  s_tenant : string;
  submit_t0 : int;
  submit_t1 : int;
  start : int;
  stop : int;
  done_t : int;
}

let settle_record (j : job) =
  {
    s_tenant = j.tenant;
    submit_t0 = j.submit_t0;
    submit_t1 = j.submit_t1;
    start = j.stamps.start;
    stop = j.stamps.stop;
    done_t = j.done_t;
  }

(* What the closed loop observed on one service. *)
type observed = {
  mutable jobs : settled list;  (** newest first *)
  mutable steps : int;
}

let observed () = { jobs = []; steps = 0 }

(* Run the closed loop on [svc] until [n_jobs] jobs have been submitted
   and all of them settled. *)
let closed_loop spans tally rng svc ~n_jobs obs =
  let ready = Queue.create () in
  let submitted = ref 0 and settled = ref 0 in
  let submit caller =
    let job = make_job rng caller in
    incr submitted;
    job.submit_t0 <- now_ns ();
    let h =
      Service.submit svc ~tenant:job.tenant
        ~on_done:(fun o ->
            job.done_t <- now_ns ();
            job.outcome <- Some o;
            Queue.push job ready)
        job.work
    in
    job.submit_t1 <- now_ns ();
    job.id <- Dfd_service.Handle.id h;
    ignore (Spans.record spans ~job:job.id "Service.submit" ~t0:job.submit_t0 ~t1:job.submit_t1)
  in
  for c = 0 to callers - 1 do
    submit c
  done;
  while !settled < !submitted do
    let step = Spans.enter spans "Service.step" in
    Service.step svc;
    Spans.leave spans step;
    obs.steps <- obs.steps + 1;
    while not (Queue.is_empty ready) do
      let job = Queue.pop ready in
      incr settled;
      tally.attempted <- tally.attempted + 1;
      (match job.outcome with
       | Some Service.Completed when job.check () -> obs.jobs <- settle_record job :: obs.jobs
       | Some Service.Completed -> fail tally (job.tenant ^ " job: wrong result")
       | Some o -> fail tally (job.tenant ^ " job: " ^ outcome_name o)
       | None -> fail tally "job settled without an outcome");
      ignore
        (Spans.record spans ~parent:step ~job:job.id "job" ~t0:job.stamps.start
           ~t1:job.stamps.stop);
      ignore (Spans.record spans ~parent:step ~job:job.id "on_done" ~t0:job.done_t ~t1:job.done_t);
      if !submitted < n_jobs then submit job.caller
    done
  done

let latency_ms (j : settled) = ms_of_ns (j.done_t - j.submit_t0)

let check_ledger tally svc =
  match Service.verify_ledger svc with
  | Ok () -> ()
  | Error e ->
    tally.attempted <- tally.attempted + 1;
    fail tally ("ledger: " ^ e)

type state = { services : (string * Service.t) list; rng : Prng.t }

let policies = [ ("ws", Pool.Work_stealing); ("dfd", Pool.Dfdeques { quota = Native.dfd_k }) ]

let setup ~seed ~which () =
  let rng = Prng.create seed in
  let services =
    List.map (fun (name, pol) -> (name, Service.create ~config:(config ~seed) pol))
      (List.filter (fun (name, _) -> List.mem name which) policies)
  in
  let dummy = tally () in
  List.iter
    (fun (_, svc) ->
       closed_loop (Spans.create ~enabled:false) dummy rng svc ~n_jobs:(2 * callers) (observed ()))
    services;
  if dummy.failed > 0 then failwith (Option.get dummy.first_error);
  { services; rng }

let teardown st = List.iter (fun (_, svc) -> Service.shutdown svc) st.services

(* Alternate blocks of the closed loop across the services for
   [seconds]; each service gets at least [min_jobs] checked jobs.
   Returns what each service observed and the median round throughput
   in jobs per second. *)
let measure spans tally ~seconds ~min_jobs st =
  let obs = List.map (fun (name, _) -> (name, observed ())) st.services in
  let rate =
    run_rounds ~seconds ~min_samples:min_jobs
      ~counts:(List.map (fun (_, o) () -> List.length o.jobs) obs)
      (fun () ->
         let t0 = now_ns () in
         let done0 = List.fold_left (fun n (_, o) -> n + List.length o.jobs) 0 obs in
         List.iter
           (fun (name, svc) ->
              closed_loop spans tally st.rng svc ~n_jobs:block (List.assoc name obs))
           st.services;
         let done1 = List.fold_left (fun n (_, o) -> n + List.length o.jobs) 0 obs in
         (done1 - done0, now_ns () - t0))
  in
  List.iter (fun (_, svc) -> check_ledger tally svc) st.services;
  (obs, rate)

let end_to_end ~seed ~seconds ~tally =
  let st, setup_s =
    set_up ~setup:(setup ~seed ~which:[ "ws"; "dfd" ]) ~teardown
  in
  let obs, rate = measure (Spans.create ~enabled:false) tally ~seconds ~min_jobs:100 st in
  teardown st;
  let lat name = List.map latency_ms (List.assoc name obs).jobs in
  [
    ("setup_s", setup_s, "s");
    ("ws_run_ms_p50", pct "ws_run_ms_p50" ~q:0.5 (lat "ws"), "ms");
    ("dfd_run_ms_p50", pct "dfd_run_ms_p50" ~q:0.5 (lat "dfd"), "ms");
    ("jobs_per_s", rate, "1/s");
  ]
