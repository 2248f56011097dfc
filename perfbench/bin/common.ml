(* Shared plumbing of the benchmark executable: the clock, the
   operation tally, set-up timing, peak RSS and the result line. *)

module Json = Dfd_trace.Json
module Stat = Perfbench_kit.Stat
module Spans = Perfbench_kit.Spans

let now_ns = Spans.now_ns

(* Read as early as the program can: module initialisation of the
   executable, just after the runtime and the linked libraries. *)
let process_start_ns = now_ns ()

let ms_of_ns ns = float_of_int ns /. 1e6

let us_of_ns ns = float_of_int ns /. 1e3

(* Every Pool.run, service job and Engine.run pass is one operation
   attempted.  A wrong result, an exception or a job that did not
   complete counts as failed, and its timing is never reported. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_error : string option }

let tally () = { attempted = 0; failed = 0; first_error = None }

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first_error = None then t.first_error <- Some msg

(* Time [f ()] as one operation: [Some ns] when it returned a value
   that passes [check], [None] (counted as failed) otherwise. *)
let timed_op t ~what ~check f =
  t.attempted <- t.attempted + 1;
  let t0 = now_ns () in
  match f () with
  | v ->
    let dt = now_ns () - t0 in
    if check v then Some dt
    else begin
      fail t (what ^ ": wrong result");
      None
    end
  | exception e ->
    fail t (what ^ ": " ^ Printexc.to_string e);
    None

let setup_reps = 7

(* Set the workload up [setup_reps] times, tearing the previous copy
   down before each new one, and return the last copy with the median
   set-up time.  The first set-up is timed from process start. *)
let set_up ~setup ~teardown =
  let rec go i prev times =
    if i > setup_reps then (Option.get prev, Stat.median times)
    else begin
      Option.iter teardown prev;
      let t0 = if i = 1 then process_start_ns else now_ns () in
      let st = setup () in
      go (i + 1) (Some st) ((float_of_int (now_ns () - t0) /. 1e9) :: times)
    end
  in
  go 1 None []

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let rec scan () =
         match input_line ic with
         | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
           Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
               float_of_int kb /. 1024.0)
         | _ -> scan ()
         | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
       in
       scan ())

exception Too_few_samples of string

(* The [q] percentile of [xs], or an error naming the metric when the
   run collected too few samples to report it. *)
let pct name ~q xs =
  match Stat.percentile ~q xs with Some v -> v | None -> raise (Too_few_samples name)

(* Run rounds — one operation per policy, or one block of jobs per
   service — until [seconds] have passed and every sample list has at
   least [min_samples] entries, giving up on the sample floor at three
   times the run length or a minute, whichever is longer (then [pct]
   reports the shortfall).  [round ()] returns the operations it
   completed and the nanoseconds they took.  Returns the median round
   throughput in operations per second: a median, so that a burst of
   interference from outside the process moves it only once it covers
   half the run. *)
let run_rounds ~seconds ~min_samples ~counts round =
  let t0 = now_ns () in
  let limit = int_of_float (seconds *. 1e9) in
  let cap = max (3 * limit) 60_000_000_000 in
  let elapsed () = now_ns () - t0 in
  let rates = ref [] in
  while
    elapsed () < limit
    || (List.exists (fun n -> n () < min_samples) counts && elapsed () < cap)
  do
    let ops, ns = round () in
    if ops > 0 then rates := (float_of_int ops /. (float_of_int ns /. 1e9)) :: !rates
  done;
  match !rates with [] -> 0.0 | rs -> Stat.median rs

(* Rounds of named operations: each round runs [op name] once for every
   name, in the order given, after [before_round ()].  [op] returns the
   nanoseconds of an operation that passed its check.  Returns per-name
   samples in ms and the median round throughput. *)
let rotate ~seconds ~min_samples ?(before_round = ignore) names op =
  let samples = List.map (fun n -> (n, ref [])) names in
  let rate =
    run_rounds ~seconds ~min_samples
      ~counts:(List.map (fun (_, r) () -> List.length !r) samples)
      (fun () ->
         before_round ();
         List.fold_left
           (fun (ops, ns) (n, r) ->
              match op n with
              | Some t ->
                r := ms_of_ns t :: !r;
                (ops + 1, ns + t)
              | None -> (ops, ns))
           (0, 0) samples)
  in
  (List.map (fun (n, r) -> (n, !r)) samples, rate)

let metric_json (name, value, unit_) =
  (name, Json.Assoc [ ("value", Json.Float value); ("unit", Json.String unit_) ])

let result_json t metrics =
  Json.Assoc
    [
      ("correct", Json.Bool (t.failed = 0 && t.attempted > 0));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("metrics", Json.Assoc (List.map metric_json metrics));
    ]
