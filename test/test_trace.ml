(* Tests for the tracing subsystem: JSON round-trips, ring-buffer
   behaviour, engine determinism at the event-stream level, and the Chrome
   trace export. *)

module Json = Dfd_trace.Json
module Event = Dfd_trace.Event
module Tracer = Dfd_trace.Tracer
module Chrome = Dfd_trace.Chrome
module Engine = Dfdeques_core.Engine
module Config = Dfd_machine.Config

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Json.Assoc
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("c", Json.String "he\"llo\n\t\\");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("nested", Json.Assoc [ ("x", Json.Int (-7)) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Assoc []);
      ]
  in
  checkb "roundtrip" true (Json.of_string (Json.to_string j) = j)

let test_json_rejects () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  checkb "trailing garbage" true (bad "{} x");
  checkb "unterminated string" true (bad "\"abc");
  checkb "bare word" true (bad "frue");
  checkb "missing colon" true (bad "{\"a\" 1}");
  checkb "trailing comma" true (bad "[1,]")

let test_json_nonfinite () =
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

(* ------------------------------------------------------------------ *)
(* Event round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let all_kinds =
  [
    Event.Fork { child = 3 };
    Event.Join { child = 9 };
    Event.Steal_attempt { victim = 2 };
    Event.Steal_success { victim = 2; latency = 17 };
    Event.Quota_exhausted { used = 50_001; quota = 50_000 };
    Event.Dummy_exec;
    Event.Deque_created { did = 11 };
    Event.Deque_deleted { did = 11; residency = 400 };
    Event.Cache_miss_stall { misses = 3; stall = 24 };
    Event.Lock_wait { mutex = 5 };
    Event.Action_batch { units = 8 };
    Event.Counter { deques = 4; heap = 123_456; threads = 78 };
    Event.Fault_injected { fault = "steal_fail" };
    Event.Quota_adjusted { from_quota = 50_000; to_quota = 25_000; pressure = 80_000 };
    Event.Ladder_shift { from_level = 0; to_level = 2; occupancy = 81; pressure = 40 };
    Event.Steal_rank { victim = 11; rank = 5; err = 2 };
    Event.Worker_quarantined { worker = 2; cause = "crash" };
    Event.Task_requeued { worker = 2 };
    Event.Worker_respawned { worker = 2 };
  ]

let test_event_roundtrip () =
  checki "vocabulary covered" Event.n_kinds (List.length all_kinds);
  List.iteri
    (fun i kind ->
       let e = { Event.ts = 100 + i; proc = i mod 4; tid = i - 1; kind } in
       let e' = Event.of_json (Json.of_string (Json.to_string (Event.to_json e))) in
       checkb (Event.kind_name kind) true (Event.equal e e'))
    all_kinds

let event_gen =
  let open QCheck.Gen in
  let small = 0 -- 1_000_000 in
  let kind =
    oneof
      [
        map (fun child -> Event.Fork { child }) small;
        map (fun child -> Event.Join { child }) small;
        map (fun victim -> Event.Steal_attempt { victim }) (-1 -- 64);
        map2 (fun victim latency -> Event.Steal_success { victim; latency }) (-1 -- 64) small;
        map2 (fun used quota -> Event.Quota_exhausted { used; quota }) small small;
        return Event.Dummy_exec;
        map (fun did -> Event.Deque_created { did }) small;
        map2 (fun did residency -> Event.Deque_deleted { did; residency }) small small;
        map2 (fun misses stall -> Event.Cache_miss_stall { misses; stall }) small small;
        map (fun mutex -> Event.Lock_wait { mutex }) small;
        map (fun units -> Event.Action_batch { units }) small;
        map3 (fun deques heap threads -> Event.Counter { deques; heap; threads }) small small small;
        map
          (fun fault -> Event.Fault_injected { fault })
          (oneofl [ "stall"; "steal_fail"; "task_exn"; "alloc_spike"; "lock_delay" ]);
        map3
          (fun from_quota to_quota pressure ->
             Event.Quota_adjusted { from_quota; to_quota; pressure })
          small small small;
        map3
          (fun from_level to_level occupancy ->
             Event.Ladder_shift { from_level; to_level; occupancy; pressure = occupancy / 2 })
          (0 -- 3) (0 -- 3) (0 -- 150);
        map3 (fun victim rank err -> Event.Steal_rank { victim; rank; err }) small (0 -- 64)
          (0 -- 64);
        map2
          (fun worker cause -> Event.Worker_quarantined { worker; cause })
          (0 -- 64)
          (oneofl [ "crash"; "wedge" ]);
        map (fun worker -> Event.Task_requeued { worker }) (0 -- 64);
        map (fun worker -> Event.Worker_respawned { worker }) (0 -- 64);
      ]
  in
  map2
    (fun (ts, proc) kind -> { Event.ts; proc; tid = proc - 1; kind })
    (pair small (0 -- 64))
    kind

let event_roundtrip_prop =
  QCheck.Test.make ~name:"event json roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Event.pp) event_gen)
    (fun e -> Event.equal e (Event.of_json (Json.of_string (Json.to_string (Event.to_json e)))))

(* ------------------------------------------------------------------ *)
(* Tracer ring buffer                                                  *)
(* ------------------------------------------------------------------ *)

let test_tracer_disabled () =
  checkb "disabled" false (Tracer.enabled Tracer.disabled);
  Tracer.emit Tracer.disabled ~ts:1 ~proc:0 ~tid:0 Event.Dummy_exec;
  checki "no events" 0 (Tracer.length Tracer.disabled);
  checki "no totals" 0 (Tracer.total Tracer.disabled)

let test_tracer_ring () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 1 to 10 do
    Tracer.emit tr ~ts:i ~proc:0 ~tid:0 (Event.Action_batch { units = i })
  done;
  checki "length capped" 4 (Tracer.length tr);
  checki "dropped" 6 (Tracer.dropped tr);
  checki "total" 10 (Tracer.total tr);
  (* retained events are the newest, oldest first *)
  check
    Alcotest.(list int)
    "newest kept" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Event.ts) (Tracer.events tr));
  (* per-kind counts survive the overwrites *)
  checki "count exact" 10 (Tracer.count tr (Event.Action_batch { units = 0 }));
  Tracer.clear tr;
  checki "cleared" 0 (Tracer.length tr);
  checki "cleared totals" 0 (Tracer.total tr)

(* Each lane wraps on its own: a busy lane overwrites only its own
   oldest events, never a quiet lane's. *)
let test_tracer_capacity_per_lane () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 1 to 10 do
    Tracer.emit tr ~ts:i ~proc:0 ~tid:0 Event.Dummy_exec
  done;
  List.iter (fun ts -> Tracer.emit tr ~ts ~proc:1 ~tid:0 Event.Dummy_exec) [ 2; 4 ];
  Tracer.emit tr ~ts:3 ~proc:(-1) ~tid:0 Event.Dummy_exec;
  checki "length sums the lanes" 7 (Tracer.length tr);
  checki "only the busy lane dropped" 6 (Tracer.dropped tr);
  checki "total" 13 (Tracer.total tr);
  check
    Alcotest.(list (pair int int))
    "quiet lanes intact, busy lane keeps its newest"
    [ (2, 1); (3, -1); (4, 1); (7, 0); (8, 0); (9, 0); (10, 0) ]
    (List.map (fun e -> (e.Event.ts, e.Event.proc)) (Tracer.events tr))

(* Per-kind counts live in each lane and are summed when read, across
   lanes that never emitted too. *)
let test_tracer_counts_sum_lanes () =
  let tr = Tracer.create () in
  List.iter
    (fun proc -> Tracer.emit tr ~ts:1 ~proc ~tid:0 (Event.Action_batch { units = 1 }))
    [ 0; 2; 2; -1 ];
  Tracer.emit tr ~ts:2 ~proc:3 ~tid:0 (Event.Fork { child = 7 });
  checki "action batches over three lanes" 4
    (Tracer.count tr (Event.Action_batch { units = 0 }));
  checki "forks" 1 (Tracer.count tr (Event.Fork { child = 0 }));
  checki "kinds never emitted count 0" 0 (Tracer.count tr Event.Dummy_exec);
  let counts = Tracer.counts tr in
  checki "one entry per kind" Event.n_kinds (List.length counts);
  checki "counts add up to the total" (Tracer.total tr)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts);
  checki "named entry" 4
    (List.assoc (Event.kind_name (Event.Action_batch { units = 0 })) counts)

let test_tracer_clear_all_lanes () =
  let tr = Tracer.create ~capacity:2 () in
  List.iter (fun proc -> Tracer.emit tr ~ts:1 ~proc ~tid:0 Event.Dummy_exec) [ 0; 5; 5; 5; -1 ];
  checki "before clear" 1 (Tracer.dropped tr);
  Tracer.clear tr;
  checki "no events" 0 (Tracer.length tr);
  checki "no drops" 0 (Tracer.dropped tr);
  checki "no count" 0 (Tracer.count tr Event.Dummy_exec);
  checkb "empty merge" true (Tracer.events tr = []);
  (* lanes come back on the next emit *)
  List.iter (fun proc -> Tracer.emit tr ~ts:2 ~proc ~tid:0 Event.Dummy_exec) [ 5; -1 ];
  checki "usable after clear" 2 (List.length (Tracer.events tr))

(* Equal stamps order by lane (proc lanes by index, the external lane
   last) and, within a lane, by arrival. *)
let test_tracer_equal_stamps () =
  let tr = Tracer.create () in
  List.iter
    (fun (proc, tid) -> Tracer.emit tr ~ts:5 ~proc ~tid Event.Dummy_exec)
    [ (-1, 0); (1, 0); (0, 0); (1, 1); (0, 1); (-1, 1); (0, 2) ];
  check
    Alcotest.(list (pair int int))
    "(lane, arrival)"
    [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (-1, 0); (-1, 1) ]
    (List.map (fun e -> (e.Event.proc, e.Event.tid)) (Tracer.events tr))

(* Lanes appear on first emit by extending the lane table with a CAS.
   Writers that create lanes at the same time, each on procs of its own,
   must keep every lane and every event: a lost extension would drop a
   lane, a replaced lane record would lose the events written into it. *)
let test_tracer_concurrent_lanes () =
  let tr = Tracer.create () in
  let writers = 3 and lanes_each = 300 and n = 10 in
  let write k () =
    for j = 0 to lanes_each - 1 do
      let proc = (j * writers) + k in
      for i = 1 to n do
        Tracer.emit tr ~ts:i ~proc ~tid:k Event.Dummy_exec
      done
    done
  in
  let ds = List.init (writers - 1) (fun k -> Domain.spawn (write (k + 1))) in
  write 0 ();
  List.iter Domain.join ds;
  let expect = writers * lanes_each * n in
  checki "every event counted" expect (Tracer.total tr);
  let evs = Tracer.events tr in
  checki "every event retained" expect (List.length evs);
  let per_proc = Array.make (writers * lanes_each) 0 in
  List.iter (fun e -> per_proc.(e.Event.proc) <- per_proc.(e.Event.proc) + 1) evs;
  checkb "every lane holds its writer's events" true (Array.for_all (( = ) n) per_proc);
  checkb "no lane holds another writer's events" true
    (List.for_all (fun e -> e.Event.proc mod writers = e.Event.tid) evs)

(* ------------------------------------------------------------------ *)
(* Engine determinism at event granularity                             *)
(* ------------------------------------------------------------------ *)

let run_traced ~sched ~seed () =
  let b = Dfd_benchmarks.Registry.find "SparseMVM" Dfd_benchmarks.Workload.Fine in
  let tr = Tracer.create () in
  let cfg = Config.costed ~p:4 ~mem_threshold:(Some 50_000) ~seed () in
  ignore (Engine.run ~sched ~tracer:tr cfg (b.Dfd_benchmarks.Workload.prog ()));
  tr

let test_determinism () =
  List.iter
    (fun sched ->
       let a = run_traced ~sched ~seed:42 () in
       let b = run_traced ~sched ~seed:42 () in
       checki "same count" (Tracer.total a) (Tracer.total b);
       checkb "identical event streams" true
         (List.for_all2 Event.equal (Tracer.events a) (Tracer.events b)))
    [ `Dfdeques; `Ws; `Adf; `Fifo ]

let test_seed_sensitivity () =
  let a = run_traced ~sched:`Dfdeques ~seed:1 () in
  let b = run_traced ~sched:`Dfdeques ~seed:2 () in
  checkb "different seeds -> different streams" false
    (Tracer.total a = Tracer.total b
     && List.for_all2 Event.equal (Tracer.events a) (Tracer.events b))

let test_vocabulary_exercised () =
  (* A DFD run must produce the paper-relevant event families. *)
  let tr = run_traced ~sched:`Dfdeques ~seed:42 () in
  List.iter
    (fun kind ->
       checkb (Event.kind_name kind) true (Tracer.count tr kind > 0))
    [
      Event.Fork { child = 0 };
      Event.Steal_attempt { victim = 0 };
      Event.Steal_success { victim = 0; latency = 0 };
      Event.Deque_created { did = 0 };
      Event.Deque_deleted { did = 0; residency = 0 };
      Event.Action_batch { units = 0 };
      Event.Counter { deques = 0; heap = 0; threads = 0 };
    ]

let test_counter_convention () =
  (* Counter samples are machine-wide: both proc and tid must be -1, and
     every processor-attributed event must carry proc >= 0 (event.mli's
     documented convention). *)
  let tr = run_traced ~sched:`Dfdeques ~seed:42 () in
  List.iter
    (fun (e : Event.t) ->
       match e.Event.kind with
       | Event.Counter _ ->
         checki "counter proc" (-1) e.Event.proc;
         checki "counter tid" (-1) e.Event.tid
       | Event.Action_batch _ | Event.Fork _ | Event.Steal_attempt _ | Event.Steal_success _ ->
         checkb "attributed proc" true (e.Event.proc >= 0)
       | _ -> ())
    (Tracer.events tr)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  let tr = run_traced ~sched:`Dfdeques ~seed:42 () in
  let j = Chrome.to_json ~p:4 (Tracer.events tr) in
  (* the export must survive a print/parse cycle *)
  let j' = Json.of_string (Json.to_string j) in
  let events = Json.to_list_exn (Json.member "traceEvents" j') in
  checkb "nonempty" true (events <> []);
  let has_cat c =
    List.exists (fun e -> match Json.member "cat" e with
      | Json.String s -> s = c
      | _ -> false)
      events
  in
  List.iter (fun c -> checkb ("cat " ^ c) true (has_cat c)) [ "steal"; "deque"; "action"; "counter" ];
  (* one thread_name metadata record per processor *)
  let tracks =
    List.filter
      (fun e ->
         match (Json.member "ph" e, Json.member "name" e) with
         | Json.String "M", Json.String "thread_name" -> true
         | _ -> false)
      events
  in
  checki "per-processor tracks" 4 (List.length tracks)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        ] );
      ( "event",
        [ Alcotest.test_case "roundtrip all kinds" `Quick test_event_roundtrip ]
        @ qsuite [ event_roundtrip_prop ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is inert" `Quick test_tracer_disabled;
          Alcotest.test_case "ring overflow" `Quick test_tracer_ring;
          Alcotest.test_case "capacity is per lane" `Quick test_tracer_capacity_per_lane;
          Alcotest.test_case "counts sum across lanes" `Quick test_tracer_counts_sum_lanes;
          Alcotest.test_case "clear empties every lane" `Quick test_tracer_clear_all_lanes;
          Alcotest.test_case "equal stamps: lane, then arrival" `Quick test_tracer_equal_stamps;
          Alcotest.test_case "concurrent lane creation loses nothing" `Quick
            test_tracer_concurrent_lanes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "vocabulary exercised" `Quick test_vocabulary_exercised;
          Alcotest.test_case "counter proc/tid convention" `Quick test_counter_convention;
        ] );
      ( "chrome", [ Alcotest.test_case "export" `Quick test_chrome_export ] );
    ]
