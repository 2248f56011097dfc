(* The native pool workloads, [forkjoin] and [sort]: repeated Pool.run
   on a p=2 work-stealing pool and a p=2 DFDeques pool, alternating run
   by run.  See perfbench/README.md for why each was chosen. *)

open Common
module Pool = Dfd_runtime.Pool
module Psort = Dfd_runtime.Psort
module Prng = Dfd_structures.Prng

let fib_n = 26

let dfd_k = 32768

(* 540k ints = 4.1 MiB: larger than one core's 4 MiB L2. *)
let sort_len = 540_000

let sort_cutoff = 512

let rec fib n =
  if n < 2 then n
  else
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b

let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

(* Order-independent checksum of a multiset of ints: a permutation of
   the input has the same sum and the same sum of mixed values. *)
let checksum a =
  let mix x =
    let x = x * 0x1E3779B97F4A7C15 in
    x lxor (x lsr 29)
  in
  Array.fold_left (fun (s, m) x -> (s + x, m + mix x)) (0, 0) a

let is_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

(* One workload's unit of work: [prepare] resets its input outside the
   timing, [body] is what one Pool.run runs, [check] validates what it
   returned or left behind. *)
type unit_of_work = {
  label : string;
  prepare : unit -> unit;
  body : unit -> int;
  check : int -> bool;
  serial : unit -> unit;  (** the sequential reference, for runtime.serial_ms *)
}

let sizes = function
  | "forkjoin" -> [ ("fib_n", Json.Int fib_n); ("dfd_k", Json.Int dfd_k); ("p", Json.Int 2) ]
  | _ ->
    [
      ("array_len", Json.Int sort_len);
      ("cutoff", Json.Int sort_cutoff);
      ("dfd_k", Json.Int dfd_k);
      ("p", Json.Int 2);
    ]

let forkjoin_work () =
  let expect = sfib fib_n in
  {
    label = "forkjoin";
    prepare = ignore;
    body = (fun () -> fib fib_n);
    check = (fun v -> v = expect);
    serial = (fun () -> ignore (Sys.opaque_identity (sfib fib_n)));
  }

let sort_work ~seed =
  let rng = Prng.create seed in
  let input = Array.init sort_len (fun _ -> Prng.int rng (1 lsl 30)) in
  let sum = checksum input in
  let work = Array.make sort_len 0 in
  {
    label = "sort";
    prepare = (fun () -> Array.blit input 0 work 0 sort_len);
    body =
      (fun () ->
         Psort.sort ~cutoff:sort_cutoff ~cmp:Int.compare work;
         0);
    check = (fun _ -> is_sorted work && checksum work = sum);
    serial =
      (fun () ->
         Array.blit input 0 work 0 sort_len;
         Array.stable_sort Int.compare work);
  }

let work_of ~seed = function
  | "forkjoin" -> forkjoin_work ()
  | "sort" -> sort_work ~seed
  | w -> invalid_arg ("Native.work_of: " ^ w)

let policy_name = function Pool.Work_stealing -> "ws" | Pool.Dfdeques _ -> "dfd"

let policies = [ Pool.Work_stealing; Pool.Dfdeques { quota = dfd_k } ]

(* One timed Pool.run of [w] on the pool of policy [pol]; when tracing,
   a span named "Pool.run.<pol>" around the call itself. *)
let run_once spans tally (pol, pool) w =
  w.prepare ();
  timed_op tally ~what:w.label ~check:w.check (fun () ->
      Spans.with_span spans ("Pool.run." ^ pol) (fun _ -> Pool.run pool w.body))

type state = { w : unit_of_work; mutable pools : (string * Pool.t) list }

(* Fresh p=2 pools, each warmed by one checked but untimed run. *)
let fresh_pools tally w =
  let pools = List.map (fun pol -> (policy_name pol, Pool.create ~domains:1 pol)) policies in
  List.iter (fun pool -> ignore (run_once (Spans.create ~enabled:false) tally pool w)) pools;
  pools

let setup ~seed workload () =
  let w = work_of ~seed workload in
  let warm = tally () in
  let pools = fresh_pools warm w in
  if warm.failed > 0 then failwith (Option.get warm.first_error);
  { w; pools }

let teardown st = List.iter (fun (_, p) -> Pool.shutdown p) st.pools

(* How many rounds one set of pools serves before fresh ones replace
   it.  A pool's speed varies from instance to instance, probably with
   where its per-worker state landed in memory: the median of fib 26 on
   one DFDeques pool ranges from 38 to 60 ms across instances.  Sampling many instances in a run keeps
   that lottery out of the run-to-run spread. *)
let rounds_per_pools = 4

(* Alternate the pools run by run for [seconds]; the seed only picks
   which pool goes first.  With [renew], the pools are replaced every
   [rounds_per_pools] rounds.  Returns per-policy samples in ms and the
   median round throughput. *)
let alternate spans tally ~seed ~seconds ~min_samples ~renew st =
  let names = List.map policy_name policies in
  let names = if seed land 1 = 0 then names else List.rev names in
  let rounds = ref 0 in
  let before_round () =
    if renew && !rounds > 0 && !rounds mod rounds_per_pools = 0 then begin
      teardown st;
      st.pools <- fresh_pools tally st.w
    end;
    incr rounds
  in
  rotate ~seconds ~min_samples ~before_round names (fun pol ->
      run_once spans tally (pol, List.assoc pol st.pools) st.w)

let end_to_end ~seed ~seconds ~tally workload =
  let st, setup_s = set_up ~setup:(setup ~seed workload) ~teardown in
  let spans = Spans.create ~enabled:false in
  let samples, rate = alternate spans tally ~seed ~seconds ~min_samples:20 ~renew:true st in
  teardown st;
  let per pol = List.assoc pol samples in
  [
    ("setup_s", setup_s, "s");
    ("ws_run_ms_p50", pct "ws_run_ms_p50" ~q:0.5 (per "ws"), "ms");
    ("dfd_run_ms_p50", pct "dfd_run_ms_p50" ~q:0.5 (per "dfd"), "ms");
    ("jobs_per_s", rate, "1/s");
  ]
