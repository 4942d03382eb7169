(** Access accounting for the SCM simulator.

    Counts cache-line-granularity events.  Benches convert a counter
    snapshot into "modeled time" for a given SCM latency, which is how
    the latency sweeps of Figures 7, 12 and 14 are reproduced without
    the paper's BIOS-level latency emulator.

    The counts live in the {!Obs.Attrib} (component × op) matrix,
    which is domain-striped, so totals are exact under parallel
    benches; every increment below charges the ambient matrix cell,
    and the totals here are whole-matrix sums.  The registry exports
    the same sums as [scm_*_total] counters. *)

type snapshot = {
  line_reads : int;   (** SCM lines loaded on a simulated cache miss. *)
  line_writes : int;  (** SCM lines written back by flushes / nt-stores. *)
  flushes : int;      (** CLFLUSH-equivalent calls. *)
  fences : int;       (** MFENCE/SFENCE-equivalent calls. *)
  persists : int;     (** persist() calls (flush+fence pairs). *)
}

let zero = { line_reads = 0; line_writes = 0; flushes = 0; fences = 0; persists = 0 }

module A = Obs.Attrib

let[@inline] incr_line_reads () = A.incr A.q_line_reads
let[@inline] incr_line_writes () = A.incr A.q_lines
let[@inline] incr_flushes () = A.incr A.q_flushes
let[@inline] incr_fences () = A.incr A.q_fences

(* Payload bytes stored through the instrumented write paths — the
   numerator-side input of the wear report's write-amplification ratio
   (64 × line_writes / store_bytes).  Not part of {!snapshot}: the
   five-field record is pinned by the committed BENCH_hotpath.json
   counter traces. *)
let[@inline] add_store_bytes n = A.add A.q_bytes n

let store_bytes () = A.total A.q_bytes

(* Persist-batch markers for the flight recorder: one event per
   [persist_batch_window] persists on the calling domain, so a crash
   dump shows the cadence of persist traffic without one event per
   persist.  Only instrumented (stats-on) runs count persists at all,
   so fast-mode traffic stays untouched; with the gate off the cost is
   one extra load per persist. *)
let persist_batch_window = 256

let[@inline] incr_persists () =
  A.incr A.q_persists;
  if Obs.Gate.enabled () then
    Obs.Flight.persist_tick ~batch:persist_batch_window

let reset = A.reset

let snapshot () = {
  line_reads = A.total A.q_line_reads;
  line_writes = A.total A.q_lines;
  flushes = A.total A.q_flushes;
  fences = A.total A.q_fences;
  persists = A.total A.q_persists;
}

let diff a b = {
  line_reads = b.line_reads - a.line_reads;
  line_writes = b.line_writes - a.line_writes;
  flushes = b.flushes - a.flushes;
  fences = b.fences - a.fences;
  persists = b.persists - a.persists;
}

let add a b = {
  line_reads = b.line_reads + a.line_reads;
  line_writes = b.line_writes + a.line_writes;
  flushes = b.flushes + a.flushes;
  fences = b.fences + a.fences;
  persists = b.persists + a.persists;
}

(** Modeled extra time (ns) that the counted SCM traffic costs over the
    same traffic served from DRAM, at latency [read_ns]/[write_ns].
    Adding this to measured wall time models running on SCM of that
    latency: modeled = wall + misses*(scm - dram). *)
let modeled_extra_ns ?(write_ns = nan) ~read_ns s =
  let write_ns = if Float.is_nan write_ns then read_ns else write_ns in
  let dram = Config.current.dram_read_ns in
  float_of_int s.line_reads *. Float.max 0. (read_ns -. dram)
  +. float_of_int s.line_writes *. Float.max 0. (write_ns -. dram)

let pp ppf s =
  Format.fprintf ppf
    "{reads=%d; writes=%d; flushes=%d; fences=%d; persists=%d}"
    s.line_reads s.line_writes s.flushes s.fences s.persists
