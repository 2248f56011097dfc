(** Low-overhead structured event tracer: per-lane bounded rings of
    {!Event.t}.

    Lane [i] holds the events emitted with [proc = i]; one further lane
    holds every event with [proc < 0] (machine-wide samples, an external
    supervisor).  Each lane has a single writer — the simulator's one
    thread, one pool worker, or the one external supervisor — so an emit
    is a few plain stores into the writer's own lane: it takes no lock
    and does no read-modify-write, and tracing does not serialize the
    workers it observes.  Lanes appear the first time their proc emits.

    A lane keeps its newest [capacity] events, overwriting the oldest
    once full (counted in {!dropped}).  Per-category counts are kept
    exactly even for dropped events, so summary statistics survive
    overflow.  Readers merge the lanes sorted by [(ts, lane, arrival)]:
    exact under the simulator's logical clock, best-effort under
    wall-clock stamps.  Reading while writers run is safe and never
    blocks them; a torn slot is dropped rather than reported.

    The same structure serves as the always-on crash-forensics flight
    recorder: a small-capacity tracer that {!write_file} dumps as a JSON
    artifact when something dies ([Engine.Deadlock], [Pool.Timeout], a
    watchdog kill, [Service.Supervisor_giveup]).

    {b The disabled path is free.}  {!disabled} is a shared tracer with
    [enabled = false]; instrumentation sites must guard with {!enabled}
    so that no event (and none of its arguments) is even allocated when
    tracing is off:

    {[ if Tracer.enabled tr then Tracer.emit tr ~ts ~proc ~tid (Fork { child }) ]} *)

type t

val disabled : t
(** The shared no-op tracer ([enabled = false], capacity 0). *)

val create : ?capacity:int -> unit -> t
(** An enabled tracer.  [capacity] is per lane and defaults to
    [1 lsl 20] events; a lane's memory grows with the events it holds,
    up to that bound. *)

val enabled : t -> bool

val emit : t -> ts:int -> proc:int -> tid:int -> Event.kind -> unit
(** Record into [proc]'s lane (the external lane when [proc < 0]).  No-op
    on a disabled tracer (but prefer guarding with {!enabled} so the kind
    is not allocated). *)

val length : t -> int
(** Events currently held, summed over lanes. *)

val dropped : t -> int
(** Events overwritten because their lane was full. *)

val total : t -> int
(** Total events ever emitted ([length + dropped]). *)

val events : t -> Event.t list
(** Retained events, merged across lanes in [(ts, lane, arrival)]
    order. *)

val iter : (Event.t -> unit) -> t -> unit
(** [List.iter f (events t)]. *)

val count : t -> Event.kind -> int
(** Events ever emitted in the same category as the given kind (payload
    ignored; includes dropped events), summed over lanes. *)

val counts : t -> (string * int) list
(** All per-category counts, [kind_names] order. *)

val clear : t -> unit
(** Drop all retained events and reset every counter.  Not safe against
    concurrent writers. *)

val to_json : ?snapshot:string -> reason:string -> t -> Json.t
(** The flight artifact: [{"flight": {"reason","lanes","capacity",
    "recorded","dropped","events":[...]}}] with events in {!events}
    order and {!Event.to_json} encoding.  [lanes] counts the proc lanes
    plus the external lane.  [snapshot] (a human-readable diagnostic
    dump, e.g. [Pool.snapshot]) is embedded as a ["snapshot"] string so
    the post-mortem state travels with the artifact. *)

val write_file : ?snapshot:string -> path:string -> reason:string -> t -> unit
(** Write {!to_json} and a newline to [path]. *)
