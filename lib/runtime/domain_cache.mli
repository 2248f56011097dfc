(** A process-wide cache of idle domains, from which {!Pool} takes its
    worker domains and to which it returns them.

    On OCaml 5.1 a domain that promoted data and then terminates leaves
    part of its major heap behind, unreused by later domains, so spawning
    and joining fresh domains on every pool renewal grows the process
    with every renewal.  A job started
    with {!spawn} runs on an idle cached domain when there is one and on
    a freshly spawned domain otherwise; when the job returns the domain
    waits in the cache for the next job.  An idle domain still takes part
    in every stop-the-world minor collection, slowing the domains that
    run, so it terminates after waiting a tenth of a second in vain: back
    to back pool renewals reuse their domains, and a process that stops
    using pools sheds them. *)

type handle
(** One job started by {!spawn}. *)

val spawn : (unit -> unit) -> handle
(** [spawn f] runs [f] on a cached idle domain, or spawns one.  Raises
    what [Domain.spawn] raises if a new domain is needed and cannot be
    created. *)

val join : handle -> unit
(** Wait until the job has returned, re-raising its exception if it
    raised.  By then the domain is back in the cache.  Joining twice is
    allowed. *)

val idle_domains : unit -> int
(** Domains waiting in the cache for a job right now. *)

val domains_spawned : unit -> int
(** Domains the cache has spawned since the process started. *)
