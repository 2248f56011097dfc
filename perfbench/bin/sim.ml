(* The [simulate] workload: repeated Engine.run of the seven Section 5
   benchmarks (fine grain) under DFDeques (K = 50k), work stealing and
   ADF on the costed 8-processor machine with the cache model on.  The
   programs are built and analysed once in set-up.  One pass is the
   seven runs under one scheduler; passes rotate through the schedulers.

   Checks: every DFDeques heap peak stays within the Theorem 4.4 bound
   as Oracle.thm44 computes it (c = 8), and every pass repeats the
   result its scheduler gave in set-up exactly (same seed, same run). *)

open Common
module Engine = Dfdeques_core.Engine
module Config = Dfd_machine.Config
module Analysis = Dfd_dag.Analysis
module Prog = Dfd_dag.Prog
module Workload = Dfd_benchmarks.Workload
module Registry = Dfd_benchmarks.Registry
module Oracle = Dfd_check.Oracle

let p = 8

let k = 50_000

let thm44_c = 8

let scheds : (string * Engine.sched) list = [ ("dfd", `Dfdeques); ("ws", `Ws); ("adf", `Adf) ]

let config ~seed = function
  | "ws" -> Config.costed ~p ~mem_threshold:None ~seed ()
  | _ -> Config.costed ~p ~mem_threshold:(Some k) ~seed ()

type program = {
  prog : Prog.t;
  summary : Analysis.summary;
  bound : int;  (** Theorem 4.4 space bound for DFDeques(K) on p processors *)
}

(* The part of a result that must repeat exactly for one seed. *)
let fingerprint (r : Engine.result) =
  [
    r.time; r.work; r.heap_peak; r.threads_peak; r.steals; r.steal_attempts;
    r.quota_exhaustions; r.dummy_threads; r.heavy_premature; r.deque_peak;
    r.cache_accesses; r.cache_misses;
  ]

type state = {
  seed : int;
  programs : program list;
  reference : (string * Engine.result list) list;  (** per scheduler, from set-up *)
  build_ms : float;
  analyze_ms : float;
}

let sizes =
  [
    ("programs", Json.List (List.map (fun (w : Workload.t) -> Json.String w.Workload.name) (Registry.table_benchmarks Workload.Fine)));
    ("grain", Json.String "fine");
    ("p", Json.Int p);
    ("k", Json.Int k);
    ("schedulers", Json.List (List.map (fun (n, _) -> Json.String n) scheds));
  ]

let run_pass ?(spans = Spans.create ~enabled:false) ?parent st sched =
  let cfg = config ~seed:st.seed sched in
  let s = List.assoc sched scheds in
  List.map
    (fun pr ->
       Spans.with_span spans ?parent "Engine.run" (fun _ -> Engine.run ~sched:s cfg pr.prog))
    st.programs

(* A pass is correct when it repeats the set-up results and, under
   DFDeques, stays within the Theorem 4.4 bound. *)
let check_pass st sched results =
  List.for_all2
    (fun (pr, r) r0 ->
       fingerprint r = fingerprint r0 && (sched <> "dfd" || r.Engine.heap_peak <= pr.bound))
    (List.combine st.programs results)
    (List.assoc sched st.reference)

let setup ?(spans = Spans.create ~enabled:false) ~seed () =
  let build = ref 0 and analyze = ref 0 in
  let programs =
    List.map
      (fun (w : Workload.t) ->
         let t0 = now_ns () in
         let prog = Spans.with_span spans "Workload.prog" (fun _ -> w.Workload.prog ()) in
         let t1 = now_ns () in
         let summary = Spans.with_span spans "Analysis.analyze" (fun _ -> Analysis.analyze prog) in
         build := !build + (t1 - t0);
         analyze := !analyze + (now_ns () - t1);
         let bound = (Oracle.thm44 ~c:thm44_c ~seed ~p ~k prog).Oracle.bound in
         { prog; summary; bound })
      (Registry.table_benchmarks Workload.Fine)
  in
  let st0 = { seed; programs; reference = []; build_ms = ms_of_ns !build; analyze_ms = ms_of_ns !analyze } in
  let reference = List.map (fun (n, _) -> (n, run_pass st0 n)) scheds in
  let st = { st0 with reference } in
  List.iter
    (fun (n, _) -> if not (check_pass st n (List.assoc n reference)) then failwith ("simulate: set-up pass failed its check under " ^ n))
    scheds;
  st

(* One timed pass per scheduler, in rotation, for [seconds].  Returns
   per-scheduler samples in ms and the median round throughput. *)
let measure spans tally ~seconds ~min_samples st =
  rotate ~seconds ~min_samples (List.map fst scheds) (fun n ->
      timed_op tally ~what:("simulate/" ^ n) ~check:(check_pass st n) (fun () ->
          Spans.with_span spans ("pass." ^ n) (fun parent -> run_pass ~spans ~parent st n)))

let end_to_end ~seed ~seconds ~tally =
  let st, setup_s = set_up ~setup:(setup ~seed) ~teardown:ignore in
  let samples, rate = measure (Spans.create ~enabled:false) tally ~seconds ~min_samples:20 st in
  let per n = List.assoc n samples in
  [
    ("setup_s", setup_s, "s");
    ("ws_run_ms_p50", pct "ws_run_ms_p50" ~q:0.5 (per "ws"), "ms");
    ("dfd_run_ms_p50", pct "dfd_run_ms_p50" ~q:0.5 (per "dfd"), "ms");
    ("jobs_per_s", rate, "1/s");
  ]
