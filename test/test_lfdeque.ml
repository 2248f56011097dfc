(* Tests for the CAS-only DFDeques deque (Dfd_structures.Lfdeque).

   Sequential deque laws, a concurrent multiset property under real
   Domains, and wraparound regressions via the biased-start
   constructor.  On top of those, the DFDeques-specific
   surface: the sticky ownership certificate, the stability of the
   [is_dead] death certificate, the sync-op accounting cells, and a
   multi-deque stress group (N owners x M thieves, capped at 4 domains)
   where thieves roam across deques — the pool's actual usage pattern. *)

module Lfdeque = Dfd_structures.Lfdeque

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sequential laws                                                     *)
(* ------------------------------------------------------------------ *)

let test_lifo_owner () =
  let q = Lfdeque.create () in
  for i = 1 to 100 do
    Lfdeque.push q i
  done;
  for i = 100 downto 1 do
    checki "LIFO pop" i (Option.get (Lfdeque.pop q))
  done;
  checkb "empty after" true (Lfdeque.pop q = None)

let test_fifo_steal () =
  let q = Lfdeque.create () in
  for i = 1 to 100 do
    Lfdeque.push q i
  done;
  for i = 1 to 100 do
    checki "FIFO steal" i (Option.get (Lfdeque.steal q))
  done;
  checkb "empty after" true (Lfdeque.steal q = None)

let test_resize_sequential () =
  let q = Lfdeque.create ~min_capacity:2 () in
  checki "initial capacity" 2 (Lfdeque.capacity q);
  for i = 0 to 999 do
    Lfdeque.push q i
  done;
  checkb "grew" true (Lfdeque.capacity q >= 1024);
  checki "length" 1000 (Lfdeque.length q);
  checki "steal oldest" 0 (Option.get (Lfdeque.steal q));
  checki "pop newest" 999 (Option.get (Lfdeque.pop q));
  checki "length after" 998 (Lfdeque.length q)

(* Push/pop churn that wraps the circular buffer many times: 50 rounds
   of 7 pushes and 5 pops leave 100 elements, popped newest first. *)
let test_interleaved_push_pop () =
  let q = Lfdeque.create ~min_capacity:2 ~owner:0 () in
  let next = ref 0 in
  for _ = 1 to 50 do
    for _ = 1 to 7 do
      Lfdeque.push q !next;
      incr next
    done;
    for _ = 1 to 5 do
      ignore (Lfdeque.pop q)
    done
  done;
  checki "residual length" 100 (Lfdeque.length q);
  let rec drain last =
    match Lfdeque.pop q with None -> true | Some v -> v < last && drain v
  in
  checkb "pop order strictly decreasing" true (drain max_int)

(* Cells hold elements unboxed, with a private block marking an empty
   slot: values that look like "nothing" — immediates such as [0], [()]
   and [false], and one block pushed twice — must each come back, and the
   marker must never come out.  Each run starts two below [max_int] in a
   2-slot buffer, so the pushes grow it across the index wraparound, and
   the values go out through steal, pop, [pop_exact] and a mixed drain,
   then again after a refill over the cleared slots.  Identity is
   physical: the marker is a block, so it equals none of these. *)
let sentinel_roundtrip name xs =
  let q = Lfdeque.create_at ~min_capacity:2 ~owner:0 ~index:(max_int - 2) () in
  let n = List.length xs in
  let pushed v = List.exists (fun x -> x == v) xs in
  let round () =
    List.iter (Lfdeque.push q) xs;
    checkb (name ^ " buffer grew") true (Lfdeque.capacity q >= n);
    let got = ref [] in
    let keep what = function
      | Some v -> got := v :: !got
      | None -> Alcotest.failf "%s: %s came back empty" name what
    in
    keep "steal" (Lfdeque.steal q);
    keep "pop" (Lfdeque.pop q);
    let top = List.nth xs (n - 2) in
    checkb (name ^ " pop_exact finds the top") true (Lfdeque.pop_exact q top);
    got := top :: !got;
    let rec drain i =
      match if i mod 2 = 0 then Lfdeque.steal q else Lfdeque.pop q with
      | Some v ->
        got := v :: !got;
        drain (i + 1)
      | None -> ()
    in
    drain 0;
    checki (name ^ " every value came back") n (List.length !got);
    checkb (name ^ " nothing but pushed values") true (List.for_all pushed !got);
    checkb (name ^ " empty pop") true (Lfdeque.pop q = None);
    checkb (name ^ " empty steal") true (Lfdeque.steal q = None);
    checkb (name ^ " empty pop_exact") false (Lfdeque.pop_exact q (List.hd xs))
  in
  round ();
  round ()

let test_sentinel_never_escapes () =
  sentinel_roundtrip "int 0" [ 0; 0; 0; 0; 0 ];
  sentinel_roundtrip "unit" [ (); (); (); () ];
  sentinel_roundtrip "false" [ false; false; false ];
  let blk = ref 7 in
  sentinel_roundtrip "shared block" [ blk; blk; ref 8 ];
  (* a block that is not on top is pushed back, not lost *)
  let q = Lfdeque.create ~owner:0 () in
  Lfdeque.push q blk;
  checkb "pop_exact of another block" false (Lfdeque.pop_exact q (ref 7));
  checki "pushed back" 1 (Lfdeque.length q);
  checkb "same block still there" true
    (match Lfdeque.pop q with Some v -> v == blk | None -> false)

(* The fork path's deque work allocates nothing: an owner push followed
   by the [pop_exact] that takes it back, with a sync-op cell. *)
let test_push_pop_exact_allocation_free () =
  let q = Lfdeque.create ~owner:0 () in
  let ops = Some (ref 0) in
  let task = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Lfdeque.push ?ops q task;
    if not (Lfdeque.pop_exact ?ops q task) then Alcotest.fail "pop_exact missed the push"
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 64. then Alcotest.failf "10000 push/pop_exact pairs allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Ownership lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

let test_owner_sticky () =
  let q = Lfdeque.create ~owner:3 () in
  checkb "created owned" true (Lfdeque.owner q = Some 3);
  Lfdeque.push q 1;
  checkb "not dead while owned" false (Lfdeque.is_dead q);
  Lfdeque.abandon q;
  checkb "abandoned" true (Lfdeque.owner q = None);
  checkb "nonempty abandoned deque is not dead" false (Lfdeque.is_dead q);
  checki "thief drains the abandoned deque" 1 (Option.get (Lfdeque.steal q));
  checkb "now dead" true (Lfdeque.is_dead q);
  (* the certificate is one-way: still dead on every later read *)
  checkb "dead is stable" true (Lfdeque.is_dead q)

let test_unowned_empty_is_dead () =
  let q = Lfdeque.create () in
  checkb "never-owned empty deque is dead" true (Lfdeque.is_dead q);
  let q' = Lfdeque.create ~owner:0 () in
  checkb "owned empty deque is not dead" false (Lfdeque.is_dead q')

let test_ops_accounting () =
  let ops = ref 0 in
  let q = Lfdeque.create ~owner:0 () in
  Lfdeque.push ~ops q 1;
  (* the plain cell write is free; the [bottom] publish is one store *)
  checki "push counts its bottom publish" 1 !ops;
  Lfdeque.push ~ops q 2;
  ignore (Lfdeque.pop ~ops q);
  (* two elements: the pop is its [bottom] reservation alone *)
  checki "uncontended pop counts its reservation" 3 !ops;
  checkb "pop_exact finds the push" true (Lfdeque.pop_exact ~ops q 1);
  (* last element: reservation, CAS, bottom restore *)
  checki "last-element pop counts reserve, CAS, restore" 6 !ops;
  Lfdeque.push ~ops q 3;
  ignore (Lfdeque.steal ~ops q);
  checki "steal counts its CAS" 8 !ops;
  ignore (Lfdeque.pop ~ops q);
  (* empty pop still reserves and restores: two stores *)
  checki "empty pop counts the reserve/restore" 10 !ops;
  Lfdeque.abandon ~ops q;
  checki "abandon counts its store" 11 !ops

(* ------------------------------------------------------------------ *)
(* Concurrent multiset property (one owner, roaming thieves)           *)
(* ------------------------------------------------------------------ *)

let concurrent_run ?(min_capacity = 2) ?start_index ~n_stealers ops =
  let q =
    match start_index with
    | None -> Lfdeque.create ~min_capacity ~owner:0 ()
    | Some index -> Lfdeque.create_at ~min_capacity ~owner:0 ~index ()
  in
  let stop = Atomic.make false in
  let stealers =
    List.init n_stealers (fun _ ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Lfdeque.steal q with
              | Some v -> acc := v :: !acc
              | None -> Domain.cpu_relax ()
            done;
            let rec sweep () =
              match Lfdeque.steal q with
              | Some v ->
                acc := v :: !acc;
                sweep ()
              | None -> ()
            in
            sweep ();
            !acc))
  in
  let next = ref 0 in
  let pushed = ref [] in
  let popped = ref [] in
  List.iter
    (fun op ->
       if op then begin
         Lfdeque.push q !next;
         pushed := !next :: !pushed;
         incr next
       end
       else
         match Lfdeque.pop q with
         | Some v -> popped := v :: !popped
         | None -> ())
    ops;
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join stealers in
  let rec drain acc =
    match Lfdeque.pop q with Some v -> drain (v :: acc) | None -> acc
  in
  let rest = drain [] in
  (!pushed, !popped @ stolen @ rest)

let multiset_eq a b = List.sort compare a = List.sort compare b

let qcheck_no_dup_no_loss =
  QCheck.Test.make ~count:40
    ~name:"lfdeque: multiset(popped+stolen+drained) = multiset(pushed), no dups/losses"
    QCheck.(pair (list_of_size Gen.(int_range 0 400) bool) (int_range 1 3))
    (fun (ops, n_stealers) ->
       let pushed, taken = concurrent_run ~n_stealers ops in
       multiset_eq pushed taken)

(* The quarantine-path property: a deque whose owner died mid-stream and
   was abandoned on its behalf (the pool's reaper-side [abandon], the one
   audited relaxation of the owner-only contract) must yield to its
   drainers exactly the multiset it held at the moment of death — no
   element lost inside the dead deque, none delivered twice.  The owner
   phase is sequential (the owner is fenced before anyone else touches
   the deque), the drain is concurrent. *)
let qcheck_dead_owner_drain =
  QCheck.Test.make ~count:40
    ~name:"lfdeque: draining a dead owner's abandoned deque = exact pre-crash multiset"
    QCheck.(pair (list_of_size Gen.(int_range 0 200) bool) (int_range 1 3))
    (fun (ops, n_stealers) ->
       let q = Lfdeque.create ~min_capacity:2 ~owner:1 () in
       let next = ref 0 in
       let live = Hashtbl.create 16 in
       List.iter
         (fun op ->
            if op then begin
              Lfdeque.push q !next;
              Hashtbl.replace live !next ();
              incr next
            end
            else
              match Lfdeque.pop q with
              | Some v -> Hashtbl.remove live v
              | None -> ())
         ops;
       let remaining = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
       (* the owner crashes here; a quarantining peer abandons for it *)
       Lfdeque.abandon q;
       let total = List.length remaining in
       let taken = Atomic.make 0 in
       let thieves =
         List.init n_stealers (fun _ ->
             Domain.spawn (fun () ->
                 let acc = ref [] in
                 let misses = ref 0 in
                 (* a lost element would strand [taken] below [total];
                    the miss bound turns that hang into a failed multiset *)
                 while Atomic.get taken < total && !misses < 1_000_000 do
                   match Lfdeque.steal q with
                   | Some v ->
                     Atomic.incr taken;
                     misses := 0;
                     acc := v :: !acc
                   | None ->
                     incr misses;
                     Domain.cpu_relax ()
                 done;
                 !acc))
       in
       let drained = List.concat_map Domain.join thieves in
       multiset_eq remaining drained && Lfdeque.is_dead q && Lfdeque.steal q = None)

(* One owner against stealing domains: a tiny buffer forces many grows
   under ~9% pops while thieves hammer the top end, so the resize
   publication must never lose or duplicate elements. *)
let test_resize_under_steal_stress () =
  let ops = List.init 20_000 (fun i -> i mod 11 <> 10) in
  let pushed, taken = concurrent_run ~min_capacity:2 ~n_stealers:3 ops in
  checkb "stress multiset equal" true (multiset_eq pushed taken);
  checki "stress taken count" (List.length pushed) (List.length taken)

(* Push-only: every element must surface even when the stealers win
   most races for it. *)
let test_push_only_stealers_drain () =
  let ops = List.init 5_000 (fun _ -> true) in
  let pushed, taken = concurrent_run ~min_capacity:16 ~n_stealers:2 ops in
  checkb "push-only multiset equal" true (multiset_eq pushed taken)

(* The minimal buffer grows on every second push while thieves race the
   republication. *)
let test_grow_tiny_under_steal () =
  let ops = List.init 4_000 (fun i -> i mod 3 <> 2) in
  let pushed, taken = concurrent_run ~min_capacity:1 ~n_stealers:3 ops in
  checkb "tiny-buffer grow multiset equal" true (multiset_eq pushed taken)

(* ------------------------------------------------------------------ *)
(* N owners x M thieves (the pool's usage pattern; <= 4 domains)       *)
(* ------------------------------------------------------------------ *)

(* Two owner domains each drive their own deque through a push/pop/
   abandon cycle; two thief domains roam over both deques, stealing
   wherever they find work.  Values are tagged by owner so the oracle
   can assert, per deque, exactly-once delivery — any double steal
   surfaces as a duplicate, any lost element as a shortfall.  Domain
   count stays at 4 (2 owners + 2 thieves) to keep CI deflaked. *)
let test_owners_vs_roaming_thieves () =
  let n_owners = 2 and n_thieves = 2 in
  let per_owner = 4_000 in
  let deques = Array.init n_owners (fun w -> Lfdeque.create ~min_capacity:2 ~owner:w ()) in
  let stop = Atomic.make false in
  let thieves =
    List.init n_thieves (fun t ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            let k = ref t in
            while not (Atomic.get stop) do
              (match Lfdeque.steal deques.(!k mod n_owners) with
               | Some v -> acc := v :: !acc
               | None -> Domain.cpu_relax ());
              incr k
            done;
            (* final sweep over every deque so stopping strands nothing *)
            Array.iter
              (fun q ->
                 let rec sweep () =
                   match Lfdeque.steal q with
                   | Some v ->
                     acc := v :: !acc;
                     sweep ()
                   | None -> ()
                 in
                 sweep ())
              deques;
            !acc))
  in
  let owners =
    List.init n_owners (fun w ->
        Domain.spawn (fun () ->
            let q = deques.(w) in
            let got = ref [] in
            for i = 0 to per_owner - 1 do
              (* tag: owner id in the low bits keeps the streams disjoint *)
              Lfdeque.push q ((i * n_owners) + w);
              if i mod 7 = 6 then
                match Lfdeque.pop q with
                | Some v -> got := v :: !got
                | None -> ()
            done;
            (* quota exhausted: the owner walks away; thieves drain *)
            Lfdeque.abandon q;
            !got))
  in
  let popped = List.concat_map Domain.join owners in
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join thieves in
  (* the thieves' sweeps can stop early on a lost CAS race against each
     other; with every domain joined this drain is single-threaded and
     definitive *)
  let rest =
    Array.fold_left
      (fun acc q ->
         let rec d acc =
           match Lfdeque.steal q with Some v -> d (v :: acc) | None -> acc
         in
         d acc)
      [] deques
  in
  let taken = popped @ stolen @ rest in
  let pushed =
    List.concat
      (List.init n_owners (fun w -> List.init per_owner (fun i -> (i * n_owners) + w)))
  in
  checkb "owners x thieves multiset equal (no duplicate steal, no loss)" true
    (multiset_eq pushed taken);
  Array.iter
    (fun q ->
       checkb "every abandoned deque drained to death" true (Lfdeque.is_dead q))
    deques

(* ------------------------------------------------------------------ *)
(* Wraparound regressions (create_at biased start)                     *)
(* ------------------------------------------------------------------ *)

let test_wrap_sequential () =
  let q = Lfdeque.create_at ~min_capacity:2 ~owner:0 ~index:(max_int - 2) () in
  for i = 0 to 5 do
    Lfdeque.push q i
  done;
  checki "length across boundary" 6 (Lfdeque.length q);
  checki "steal oldest" 0 (Option.get (Lfdeque.steal q));
  checki "pop newest" 5 (Option.get (Lfdeque.pop q));
  for i = 4 downto 1 do
    checki "pop order" i (Option.get (Lfdeque.pop q))
  done;
  checkb "empty after" true (Lfdeque.pop q = None);
  (* single-element churn exactly on the boundary drives the d=0 race
     path and the empty-reset path with wrapped indices *)
  for i = 0 to 9 do
    Lfdeque.push q i;
    checki "immediate pop" i (Option.get (Lfdeque.pop q))
  done;
  checkb "still empty" true (Lfdeque.steal q = None);
  checkb "length never negative across boundary" true (Lfdeque.length q = 0)

let test_wrap_grow_steal () =
  let q = Lfdeque.create_at ~min_capacity:1 ~owner:0 ~index:(max_int - 1) () in
  checki "tiny initial capacity" 2 (Lfdeque.capacity q);
  for i = 0 to 7 do
    Lfdeque.push q i
  done;
  checkb "grew across boundary" true (Lfdeque.capacity q >= 8);
  for i = 0 to 7 do
    checki "FIFO across boundary" i (Option.get (Lfdeque.steal q))
  done;
  checkb "empty after" true (Lfdeque.steal q = None);
  (* the death certificate must also survive wrapped indices *)
  Lfdeque.abandon q;
  checkb "dead across boundary" true (Lfdeque.is_dead q)

let test_wrap_concurrent () =
  let ops = List.init 8_000 (fun i -> i mod 5 <> 4) in
  let pushed, taken =
    concurrent_run ~min_capacity:2 ~start_index:(max_int - 1_000) ~n_stealers:3 ops
  in
  checkb "wraparound multiset equal" true (multiset_eq pushed taken)

let () =
  Alcotest.run "lfdeque"
    [
      ( "sequential",
        [
          Alcotest.test_case "owner LIFO" `Quick test_lifo_owner;
          Alcotest.test_case "thief FIFO" `Quick test_fifo_steal;
          Alcotest.test_case "resize" `Quick test_resize_sequential;
          Alcotest.test_case "wraparound churn" `Quick test_interleaved_push_pop;
          Alcotest.test_case "sentinel never escapes" `Quick test_sentinel_never_escapes;
          Alcotest.test_case "push + pop_exact allocation-free" `Quick
            test_push_pop_exact_allocation_free;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "abandon is sticky, death is stable" `Quick test_owner_sticky;
          Alcotest.test_case "dead = unowned and empty" `Quick test_unowned_empty_is_dead;
          Alcotest.test_case "sync-op cells count RMWs" `Quick test_ops_accounting;
        ] );
      ( "concurrent",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_no_dup_no_loss;
          QCheck_alcotest.to_alcotest ~long:false qcheck_dead_owner_drain;
          Alcotest.test_case "resize under steal stress" `Quick test_resize_under_steal_stress;
          Alcotest.test_case "push-only, stealers drain" `Quick test_push_only_stealers_drain;
          Alcotest.test_case "tiny buffer grows under steal" `Quick test_grow_tiny_under_steal;
          Alcotest.test_case "2 owners x 2 roaming thieves" `Quick
            test_owners_vs_roaming_thieves;
        ] );
      ( "wraparound",
        [
          Alcotest.test_case "sequential laws across max_int" `Quick test_wrap_sequential;
          Alcotest.test_case "grow + FIFO steal across max_int" `Quick test_wrap_grow_steal;
          Alcotest.test_case "concurrent churn across max_int" `Quick test_wrap_concurrent;
        ] );
    ]
