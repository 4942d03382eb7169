(** Domains for recovery: static contiguous chunks of independent work
    (the leaves of one tree's rebuild, or whole trees of a database
    restart), one per domain, the caller working the first.  A run
    started while a multi-domain run is in progress stays on its
    caller's domain.  The only module of the tree library that spawns
    domains. *)

(** Fewest leaves a chunk must hold to pay for its domain. *)
val min_leaves_per_domain : int

(** [domains region ~leaves] is how many domains a rebuild of [leaves]
    leaves in [region] asks for: 1 unless {!Scm.Region.parallel_safe}
    holds and there are at least two chunks of {!min_leaves_per_domain}
    leaves; at most [Domain.recommended_domain_count ()]. *)
val domains : Scm.Region.t -> leaves:int -> int

(** [run ~domains n f] calls [f lo hi] on [domains] contiguous chunks
    covering [0, n): chunk 0 on the calling domain, the others on
    spawned domains.  Started while a multi-domain run is in progress
    (typically from one of its chunks), it calls [f 0 n] on the calling
    domain alone.  Every spawned domain is joined before [run] returns
    or raises; an exception is re-raised only after the last join — the
    caller's own first, else the lowest chunk's. *)
val run : domains:int -> int -> (int -> int -> unit) -> unit

(** Domains the most recent outermost {!run} used (also exported as
    the [fptree_recovery_domains] gauge). *)
val last_domains : unit -> int
