(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the boundary: name, start, end, the span that caused it, and the job
   it belongs to (spans of one service job share that id).  Spans stay in
   memory and are written out once, when the run ends.  A disabled
   recorder keeps nothing and reads no clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { id : int; name : string; parent : int; job : int; t0 : int; t1 : int }

let root = -1

type t = { enabled : bool; mutable next : int; mutable done_ : span list; open_ : (int, span) Hashtbl.t }

let create ~enabled = { enabled; next = 0; done_ = []; open_ = Hashtbl.create 16 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let enter t ?(parent = root) ?(job = root) name =
  if not t.enabled then root
  else begin
    let id = fresh t in
    Hashtbl.replace t.open_ id { id; name; parent; job; t0 = now_ns (); t1 = 0 };
    id
  end

let leave t id =
  if t.enabled then
    match Hashtbl.find_opt t.open_ id with
    | None -> invalid_arg "Spans.leave: span not open"
    | Some s ->
      Hashtbl.remove t.open_ id;
      t.done_ <- { s with t1 = now_ns () } :: t.done_

(* A span whose clock readings were taken elsewhere — e.g. by a job
   closure on the service's executor domain, handed back to the thread that steps the service
   once the job settled. *)
let record t ?(parent = root) ?(job = root) name ~t0 ~t1 =
  if not t.enabled then root
  else begin
    let id = fresh t in
    t.done_ <- { id; name; parent; job; t0; t1 } :: t.done_;
    id
  end

(* [f] receives the span's id, to parent the spans it records. *)
let with_span t ?parent ?job name f =
  let id = enter t ?parent ?job name in
  Fun.protect ~finally:(fun () -> leave t id) (fun () -> f id)

let spans t = List.rev t.done_

let duration s = s.t1 - s.t0

(* Self time: the span's duration minus the part of its interval that
   its direct children cover.  Children may overlap or spill past the
   parent's ends, so their intervals are clipped and merged first. *)
let self_time ~children s =
  let ivs =
    List.filter_map
      (fun c ->
         let a = max s.t0 c.t0 and b = min s.t1 c.t1 in
         if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let rec merge acc (ca, cb) = function
    | [] -> acc + (cb - ca)
    | (a, b) :: rest ->
      if a <= cb then merge acc (ca, max cb b) rest else merge (acc + (cb - ca)) (a, b) rest
  in
  let covered = match ivs with [] -> 0 | first :: rest -> merge 0 first rest in
  duration s - covered

(* Self time of every span, keyed by id. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent <> root then
         Hashtbl.replace kids s.parent
           (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  let out = Hashtbl.create 64 in
  List.iter
    (fun s ->
       let children = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
       Hashtbl.replace out s.id (self_time ~children s))
    spans;
  out

(* Durations (or self times) in microseconds of every span named [name]. *)
let durations_us ?self spans name =
  List.filter_map
    (fun s ->
       if s.name <> name then None
       else
         let ns = match self with None -> duration s | Some tbl -> Hashtbl.find tbl s.id in
         Some (float_of_int ns /. 1e3))
    spans

let write_json oc spans =
  output_string oc "[";
  List.iteri
    (fun i s ->
       if i > 0 then output_string oc ",\n";
       Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%d,\"start_ns\":%d,\"end_ns\":%d}"
         s.id s.name s.parent s.job s.t0 s.t1)
    spans;
  output_string oc "]\n"
