(* Per-lane single-writer event rings.

   Lane [i] holds the events of [proc = i]; one extra lane holds every
   event with [proc < 0] (machine-wide samples, an external supervisor).
   Each lane has exactly one writer, so an emit is plain stores into the
   writer's own lane: no lock, no read-modify-write.  The lane table is
   extended by CAS the first time a proc beyond it emits; lane records
   are shared by reference between the old and new table, so a writer
   never loses its lane to a concurrent extension and a lost CAS only
   retries.

   A lane's ring grows by doubling up to [capacity] and then wraps,
   overwriting its oldest event, so memory follows the events actually
   emitted rather than the capacity.  Readers merge the lanes by
   [(ts, lane, arrival)].  A read that races a writer can see a slot
   before its event lands; such a slot still holds the sentinel (or an
   older event) and the sentinel is dropped rather than reported. *)

let sentinel : Event.t = { ts = -1; proc = -1; tid = -1; kind = Event.Dummy_exec }

(* A lane's hot counters live in one int array: [written] (events this
   lane ever recorded) at [pad], the per-kind counts after it, and [pad]
   spare words at both ends, so the counters of two lanes allocated side
   by side never share a cache line between their two writers. *)
let pad = 16

let written_at = pad

let count_at k = pad + 1 + k

type lane = { mutable ring : Event.t array; cells : int array }

type t = {
  on : bool;
  capacity : int;  (** per lane *)
  lanes : lane array Atomic.t;  (** index = proc *)
  ext : lane;  (** every [proc < 0] event *)
}

let new_lane () = { ring = [||]; cells = Array.make ((2 * pad) + 1 + Event.n_kinds) 0 }

let disabled = { on = false; capacity = 0; lanes = Atomic.make [||]; ext = new_lane () }

let create ?(capacity = 1 lsl 20) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  { on = true; capacity; lanes = Atomic.make [||]; ext = new_lane () }

let enabled t = t.on

let rec lane t proc =
  if proc < 0 then t.ext
  else begin
    let ls = Atomic.get t.lanes in
    if proc < Array.length ls then ls.(proc)
    else begin
      let n = Array.length ls in
      let ls' = Array.init (proc + 1) (fun i -> if i < n then ls.(i) else new_lane ()) in
      ignore (Atomic.compare_and_set t.lanes ls ls');
      lane t proc
    end
  end

let emit t ~ts ~proc ~tid kind =
  if t.on then begin
    let l = lane t proc in
    let c = l.cells in
    let w = c.(written_at) in
    let k = count_at (Event.kind_index kind) in
    c.(k) <- c.(k) + 1;
    if w < t.capacity && w = Array.length l.ring then begin
      let ring = Array.make (min t.capacity (max 16 (2 * w))) sentinel in
      Array.blit l.ring 0 ring 0 w;
      l.ring <- ring
    end;
    l.ring.(w mod t.capacity) <- { Event.ts; proc; tid; kind };
    c.(written_at) <- w + 1
  end

(* Proc lanes in index order, then the external lane. *)
let all_lanes t = Array.append (Atomic.get t.lanes) [| t.ext |]

let sum t f = Array.fold_left (fun acc l -> acc + f l.cells.(written_at)) 0 (all_lanes t)

let total t = sum t Fun.id

let length t = sum t (min t.capacity)

let dropped t = sum t (fun w -> max 0 (w - t.capacity))

let count t kind =
  let k = count_at (Event.kind_index kind) in
  Array.fold_left (fun acc l -> acc + l.cells.(k)) 0 (all_lanes t)

let counts t =
  let ls = all_lanes t in
  Array.to_list
    (Array.mapi
       (fun i name -> (name, Array.fold_left (fun acc l -> acc + l.cells.(count_at i)) 0 ls))
       Event.kind_names)

(* Gather lane by lane, oldest first within a lane, then sort stably on
   [ts] alone: the gathering order already is [(lane, arrival)]. *)
let events t =
  let acc = ref [] in
  Array.iter
    (fun l ->
      let ring = l.ring and w = l.cells.(written_at) in
      for a = max 0 (w - t.capacity) to w - 1 do
        let slot = a mod t.capacity in
        if slot < Array.length ring then begin
          let e = ring.(slot) in
          if e != sentinel then acc := e :: !acc
        end
      done)
    (all_lanes t);
  List.stable_sort (fun (a : Event.t) (b : Event.t) -> Int.compare a.ts b.ts) (List.rev !acc)

let iter f t = List.iter f (events t)

let clear t =
  Atomic.set t.lanes [||];
  t.ext.ring <- [||];
  Array.fill t.ext.cells 0 (Array.length t.ext.cells) 0

let to_json ?snapshot ~reason t =
  Json.Assoc
    [
      ( "flight",
        Json.Assoc
          ([
             ("reason", Json.String reason);
             ("lanes", Json.Int (Array.length (all_lanes t)));
             ("capacity", Json.Int t.capacity);
             ("recorded", Json.Int (total t));
             ("dropped", Json.Int (dropped t));
             ("events", Json.List (List.map Event.to_json (events t)));
           ]
           @ match snapshot with None -> [] | Some s -> [ ("snapshot", Json.String s) ]) );
    ]

let write_file ?snapshot ~path ~reason t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json ?snapshot ~reason t);
      output_char oc '\n')
