(* A process-wide cache of idle domains.

   Pools used to [Domain.spawn] their workers at creation and
   [Domain.join] them at shutdown.  On OCaml 5.1 that grows the heap
   with every renewal: a domain that promoted data and then terminates
   leaves part of its major heap behind, unreused by later domains (the
   perfbench forkjoin workload, which renews its two p=2 pools every few
   runs, peaked at 21-25 MiB that way against 14-15 MiB with reuse, on a
   2-vCPU Xeon VM).  Here a
   job runs on an idle domain when there is one, and the domain waits for
   the next job when it returns.

   Idle domains are not free either: every domain takes part in every
   stop-the-world minor collection, so each one parked here slows the
   allocation of every running domain (on the same VM, two idle domains
   doubled the time of an allocation-bound loop in the main domain).  So an idle domain
   waits at most [linger] seconds for a job and then terminates: a pool
   renewed back to back reuses its domains, and a process that stops
   using pools is rid of them shortly after.

   The wait is a [select] on a pipe rather than a condition variable,
   because OCaml 5.1's [Condition] has no timed wait.  Each job handed to
   a waiting domain writes one byte; any waiter may consume it, and the
   job queue itself is only touched under [lock], so stray or stolen
   bytes only cause spurious wake-ups.  Everything runs at pool creation
   and shutdown, never on a scheduling path. *)

type handle = { mutable outcome : (unit, exn) result option  (** under [lock] *) }

let linger = 0.1

let lock = Mutex.create ()

let job_done = Condition.create ()  (* joiners wait here *)

let jobs : ((unit -> unit) * handle) Queue.t = Queue.create ()

(* Domains waiting for a job that no job has been handed to yet: every
   queued job is matched by one of them, so a queued job never waits for
   a domain to free up.  A waiter only gives up (and leaves this count)
   with the queue empty. *)
let idle = ref 0

let spawned = ref 0

(* Both ends non-blocking: a waiter that finds no byte and a hand-off
   that finds the pipe full (bytes enough to wake every waiter) both just
   carry on. *)
let wake_r, wake_w =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let byte = Bytes.create 1

(* Wait for a queued job until [deadline]; [None] means give up, having
   left [idle]. *)
let rec next_job deadline =
  let left = deadline -. Unix.gettimeofday () in
  (if left > 0. then
     match Unix.select [ wake_r ] [] [] left with
     | _ :: _, _, _ -> ( try ignore (Unix.read wake_r byte 0 1) with Unix.Unix_error _ -> ())
     | [], _, _ -> ()
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  Mutex.lock lock;
  if not (Queue.is_empty jobs) then begin
    let job = Queue.pop jobs in
    Mutex.unlock lock;
    Some job
  end
  else if Unix.gettimeofday () >= deadline then begin
    decr idle;
    Mutex.unlock lock;
    None
  end
  else begin
    Mutex.unlock lock;
    next_job deadline
  end

let rec serve (f, h) =
  let r = match f () with () -> Ok () | exception e -> Error e in
  Mutex.lock lock;
  h.outcome <- Some r;
  Condition.broadcast job_done;
  incr idle;
  Mutex.unlock lock;
  match next_job (Unix.gettimeofday () +. linger) with
  | Some job -> serve job
  | None -> ()

let spawn f =
  let h = { outcome = None } in
  Mutex.lock lock;
  if !idle > 0 then begin
    decr idle;
    Queue.push (f, h) jobs;
    Mutex.unlock lock;
    try ignore (Unix.write_substring wake_w "x" 0 1) with Unix.Unix_error _ -> ()
  end
  else begin
    incr spawned;
    Mutex.unlock lock;
    match Domain.spawn (fun () -> serve (f, h)) with
    | (_ : unit Domain.t) -> ()
    | exception e ->
      Mutex.lock lock;
      decr spawned;
      Mutex.unlock lock;
      raise e
  end;
  h

let join h =
  Mutex.lock lock;
  let rec wait () =
    match h.outcome with
    | Some r -> r
    | None ->
      Condition.wait job_done lock;
      wait ()
  in
  let r = wait () in
  Mutex.unlock lock;
  match r with Ok () -> () | Error e -> raise e

let idle_domains () =
  Mutex.lock lock;
  let n = !idle in
  Mutex.unlock lock;
  n

let domains_spawned () =
  Mutex.lock lock;
  let n = !spawned in
  Mutex.unlock lock;
  n
