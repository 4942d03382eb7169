(** Access accounting for the SCM simulator: cache-line-granularity
    event counters and the conversion of a counter snapshot into the
    "modeled time" that reproduces the paper's latency sweeps. *)

type snapshot = {
  line_reads : int;
  line_writes : int;
  flushes : int;
  fences : int;
  persists : int;
}

val zero : snapshot

(** Each increment charges the ambient {!Obs.Attrib} matrix cell; the
    matrix is the only copy of these counts. *)
val incr_line_reads : unit -> unit
val incr_line_writes : unit -> unit
val incr_flushes : unit -> unit
val incr_fences : unit -> unit
val incr_persists : unit -> unit

(** Payload bytes stored through the instrumented write paths; feeds
    the wear report's write-amplification denominator.  Charged to the
    Obs.Attrib matrix like the counters above, but deliberately NOT
    part of {!snapshot} (that record is pinned by committed bench
    traces).  Exported as [scm_store_bytes_total]. *)
val add_store_bytes : int -> unit

val store_bytes : unit -> int

(** Zero the counts: resets the whole {!Obs.Attrib} matrix. *)
val reset : unit -> unit

(** Whole-matrix sums of the five counted quantities. *)
val snapshot : unit -> snapshot
val diff : snapshot -> snapshot -> snapshot
val add : snapshot -> snapshot -> snapshot

(** Modeled extra nanoseconds the counted SCM traffic costs over DRAM
    at the given latencies: modeled time = wall + this. *)
val modeled_extra_ns : ?write_ns:float -> read_ns:float -> snapshot -> float

val pp : Format.formatter -> snapshot -> unit
