(* Tests for the benchmark's own arithmetic: the percentile sample
   rule, medians, the base of every ratio, and span self times. *)

open Perfbench_kit

let floats = Alcotest.(float 1e-9)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_sample_rule () =
  let open Alcotest in
  check (option floats) "p50 at 19 samples" None (Stat.percentile ~q:0.5 (samples 19));
  check (option floats) "p50 at 20 samples" (Some 10.0) (Stat.percentile ~q:0.5 (samples 20));
  check (option floats) "p90 at 99 samples" None (Stat.percentile ~q:0.9 (samples 99));
  check (option floats) "p90 at 100 samples" (Some 90.0) (Stat.percentile ~q:0.9 (samples 100));
  check (option floats) "p99 at 999 samples" None (Stat.percentile ~q:0.99 (samples 999));
  check (option floats) "p99 at 1000 samples" (Some 990.0) (Stat.percentile ~q:0.99 (samples 1000));
  check (option floats) "no samples" None (Stat.percentile ~q:0.5 [])

let test_percentile_order () =
  let shuffled = List.rev (samples 200) @ [] in
  Alcotest.(check (option floats)) "input order is irrelevant" (Some 180.0)
    (Stat.percentile ~q:0.9 shuffled)

let test_median () =
  Alcotest.(check floats) "odd" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check floats) "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check floats) "single" 7.0 (Stat.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stat.median: no samples") (fun () ->
      ignore (Stat.median []))

let test_ratio_bases () =
  (* steal_success_frac with no steal attempted, ns_per_task with no
     task run: the base is zero, and the ratio reads 0. *)
  Alcotest.(check floats) "steal_success_frac, 0 attempts" 0.0 (Stat.iratio 0 (0 + 0));
  Alcotest.(check floats) "ns_per_task, 0 tasks" 0.0 (Stat.ratio 1.5e6 0.0);
  Alcotest.(check floats) "ordinary" 0.25 (Stat.iratio 1 4)

let span ?(parent = Spans.root) id t0 t1 = { Spans.id; name = "s"; parent; job = -1; t0; t1 }

let self_of spans id = Hashtbl.find (Spans.self_times spans) id

let test_self_nested () =
  (* 0..100 contains a child 10..60, which contains a grandchild
     20..50: the parent loses only its direct child's 50. *)
  let spans = [ span 0 0 100; span ~parent:0 1 10 60; span ~parent:1 2 20 50 ] in
  Alcotest.(check int) "parent" 50 (self_of spans 0);
  Alcotest.(check int) "child" 20 (self_of spans 1);
  Alcotest.(check int) "leaf" 30 (self_of spans 2)

let test_self_back_to_back () =
  let spans = [ span 0 0 100; span ~parent:0 1 10 40; span ~parent:0 2 40 70 ] in
  Alcotest.(check int) "back-to-back children" 40 (self_of spans 0)

let test_self_overlap_and_clip () =
  (* Overlapping children count once; a child spilling past the
     parent's end counts only inside it. *)
  let spans =
    [ span 0 0 100; span ~parent:0 1 10 50; span ~parent:0 2 30 60; span ~parent:0 3 90 130 ]
  in
  Alcotest.(check int) "merged and clipped" 40 (self_of spans 0)

let test_self_no_children () =
  Alcotest.(check int) "leaf keeps its duration" 25 (self_of [ span 0 5 30 ] 0)

let test_recorder () =
  let off = Spans.create ~enabled:false in
  let id = Spans.enter off "x" in
  Spans.leave off id;
  Alcotest.(check int) "disabled keeps nothing" 0 (List.length (Spans.spans off));
  let on = Spans.create ~enabled:true in
  let outer = Spans.enter on "outer" in
  let inner = Spans.with_span on ~parent:outer ~job:7 "inner" Fun.id in
  Spans.leave on outer;
  match Spans.spans on with
  | [ i; o ] ->
    Alcotest.(check string) "inner first" "inner" i.Spans.name;
    Alcotest.(check int) "parent" outer i.Spans.parent;
    Alcotest.(check int) "job" 7 i.Spans.job;
    Alcotest.(check int) "id" inner i.Spans.id;
    Alcotest.(check bool) "nested in time" true (o.Spans.t0 <= i.Spans.t0 && i.Spans.t1 <= o.Spans.t1)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "percentile sample rule" `Quick test_percentile_sample_rule;
          Alcotest.test_case "percentile order" `Quick test_percentile_order;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "ratio bases" `Quick test_ratio_bases;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time, nested" `Quick test_self_nested;
          Alcotest.test_case "self time, back-to-back" `Quick test_self_back_to_back;
          Alcotest.test_case "self time, overlap and clip" `Quick test_self_overlap_and_clip;
          Alcotest.test_case "self time, no children" `Quick test_self_no_children;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
    ]
