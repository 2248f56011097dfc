(** Always-on metrics registry: typed counters, gauges and log2-bucketed
    histograms, designed so the scheduler hot path pays (almost) nothing.

    Write-side instruments are backed by per-domain [Atomic] cells sharded
    by [Domain.self () land mask] — the same idiom as the native pool's
    per-worker counter records — so concurrent increments from different
    domains touch different cache lines and are aggregated only at read
    (snapshot) time.  An instrument obtained from {!disabled} carries an
    immutable [false] flag; every update is then a single load-and-branch
    with no allocation, matching the zero-cost-when-off discipline of
    {!Dfd_trace.Tracer} and {!Dfd_fault.Fault}.

    Besides owned instruments, the registry accepts {e probes}: named
    closures evaluated at snapshot time.  Probes let existing state (the
    pool's per-worker counter records, the service's supervision counters,
    a simulation's {!Dfd_machine.Metrics}) appear in snapshots without any
    double bookkeeping on the hot path.  Registration is an upsert: writing
    the same name again returns the existing instrument (or replaces the
    probe closure), so components that respawn — pool incarnations under
    the supervisor — keep accumulating into one time series.  Re-using a
    name with a different instrument kind raises [Invalid_argument].

    Metric names follow the OpenMetrics grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*], optionally followed by a literal label set
    [{key="value",...}] which {!Openmetrics} re-attaches to each rendered
    sample line.  Samples marked [~stable:true] depend only on
    seed-deterministic state (the service's logical clock world); the soak
    report embeds [snapshot ~stable_only:true] so same-seed runs stay
    byte-identical even while native-pool counters race. *)

type t

val create : ?shards:int -> unit -> t
(** An enabled registry.  [shards] (default 8, rounded up to a power of
    two) bounds the per-instrument cell array; more shards mean less
    false sharing at higher memory cost. *)

val disabled : t
(** The shared off registry: every instrument it hands out is a no-op and
    {!snapshot} is empty. *)

val enabled : t -> bool

(** Monotone event counts (sharded; increment from any domain). *)
module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** Negative deltas are rejected with [Invalid_argument]. *)

  val value : t -> int
  (** Sum over shards. *)
end

(** A current-value cell that remembers its high watermark. *)
module Gauge : sig
  type t

  val set : t -> int -> unit

  val add : t -> int -> unit

  val value : t -> int

  val peak : t -> int
  (** Highest value ever {!set} (or reached via {!add}). *)
end

(** Log2-bucketed histogram of non-negative integer observations, same
    bucketing as {!Dfd_structures.Stats.Histogram}: bucket 0 holds [0,1),
    bucket [i >= 1] holds [[2^(i-1), 2^i)]. *)
module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Negative observations clamp to 0. *)

  val count : t -> int

  val sum : t -> int
end

(** Snapshot value of a histogram-shaped sample: total count, total sum
    and per-bucket counts as [(upper_bound, count)] with increasing
    bounds, non-cumulative (the OpenMetrics renderer accumulates). *)
type hist = { h_count : int; h_sum : float; h_buckets : (float * int) list }

type value =
  | Counter_v of int
  | Gauge_v of int  (** current value; the peak is a separate sample. *)
  | Float_v of float
  | Hist_v of hist

type sample = { name : string; help : string; stable : bool; value : value }

val counter : t -> ?help:string -> ?stable:bool -> string -> Counter.t
val gauge : t -> ?help:string -> ?stable:bool -> string -> Gauge.t
val histogram : t -> ?help:string -> ?stable:bool -> string -> Histogram.t

val probe :
  t ->
  ?help:string ->
  ?stable:bool ->
  kind:[ `Counter | `Gauge ] ->
  string ->
  (unit -> int) ->
  unit
(** Register (or replace) a read-at-snapshot closure rendered as a counter
    or gauge sample. *)

val probe_float : t -> ?help:string -> ?stable:bool -> string -> (unit -> float) -> unit

val probe_histogram : t -> ?help:string -> ?stable:bool -> string -> (unit -> hist) -> unit

val hist_of_stats : Dfd_structures.Stats.Histogram.t -> hist
(** Bridge a simulator histogram into the snapshot shape (bucket bounds
    coincide by construction). *)

val labeled : string -> (string * string) list -> string
(** [labeled "fam" [("tenant", "gold")]] -> ["fam{tenant=\"gold\"}"]:
    build a labelled metric name, escaping backslash, quote and newline
    in label values.  The result is validated with {!split_labeled}, so
    a name this returns always registers and renders cleanly.  An empty
    label list returns the bare family name. *)

val split_labeled : string -> string * string option
(** ["fam{k=\"v\"}"] -> [("fam", Some "k=\"v\"")]; plain names map to
    [(name, None)].  Raises [Invalid_argument] on names the renderer could
    not handle — also used as the registration-time validator. *)

val snapshot : ?stable_only:bool -> t -> sample list
(** All current samples sorted by name.  Owned instruments are read with
    plain atomic loads; probe closures run under the registry lock, so
    they must not themselves touch the registry.  A probe that raises
    contributes no sample (crash forensics must not crash). *)

(** Renderers over sample lists — shared by the service snapshot and
    the soak report. *)
module Snapshot : sig
  val to_json : sample list -> Dfd_trace.Json.t
  (** Lossless: [{"metrics":[{"name","type","value"...}]}]; histograms
      carry count/sum/buckets. *)

  val to_flat_json : sample list -> Dfd_trace.Json.t
  (** A flat object [{name: number, ...}] of the scalar samples
      (histograms are skipped) — the legacy counters-object shape. *)

  val to_alist : sample list -> (string * int) list
  (** Integer-valued samples only, in snapshot (name) order. *)
end
