(** Global configuration of the SCM simulator.

    The paper's evaluation platform exposes a single knob — the latency
    of the emulated SCM region — plus the implicit semantics of the
    volatility chain.  This module exposes the same knobs:

    - latency model used to convert access counts into modeled time;
    - crash-simulation mode (how unflushed words behave at a crash);
    - crash injection (fail at the n-th persistence point), used by the
      recovery property tests;
    - optional busy-wait delay injection for end-to-end runs. *)

(** Raised by [Region.persist] when a scheduled crash point is reached.
    The persist that raises did NOT reach the persistence domain. *)
exception Crash_injected

type crash_mode =
  | Revert_all_dirty
      (** Worst case: every unflushed word loses its post-crash value. *)
  | Keep_random_subset of int
      (** Eviction-adversarial: each dirty word independently survives
          with probability 1/2, drawn from the seeded generator.  Models
          arbitrary cache evictions before the crash. *)

type t = {
  mutable scm_read_ns : float;      (** SCM load latency (paper: 90–650). *)
  mutable scm_write_ns : float;     (** SCM store/flush latency. *)
  mutable dram_read_ns : float;     (** Baseline DRAM latency (paper: 90). *)
  mutable crash_after_persists : int option;
      (** [Some n]: the n-th subsequent persist raises {!Crash_injected}
          (1-based; [Some 1] fails the very next persist). *)
  mutable persist_count : int;
  mutable skip_nth_persist : int option;
      (** Fault injection for pmcheck: [Some n] silently turns the n-th
          subsequent persist into a no-op — the "forgotten Persist()"
          mutation the trace analyzer must catch. *)
  mutable skip_count : int;
  mutable torn_nth_store : int option;
      (** Torn-write injection: [Some n] makes the n-th subsequent
          tearable store (any non-p-atomic multi-byte store on the
          instrumented path) crash mid-store — a prefix of its bytes
          reaches the persistence domain, the rest does not, and
          {!Crash_injected} is raised.  P-atomic aligned 8-byte stores
          ([Region.write_int64_atomic] / [write_word_atomic]) never
          tear, matching Section 2's "Partial writes" contract. *)
  mutable torn_count : int;
  mutable torn_seed : int;
      (** Decides, deterministically, how many bytes of the torn store
          survive. *)
  mutable backoff_seed : int option;
      (** [Some s]: [Speculative_lock] backoff jitter becomes a pure
          function of (s, attempt, domain slot) instead of the
          free-running per-domain Weyl cell, so two runs with the same
          seed produce identical [backoff_waits].  Pinned by the chaos
          and mcheck harnesses; [None] (default) keeps the
          cross-acquisition drift that de-synchronizes real domains. *)
  mutable wear_heatmap : bool;
      (** Record a per-region, line-granularity shadow count of flushed
          lines (the spatial wear heatmap) on the instrumented persist
          path.  Plain field read inside the already-instrumented flush
          loop; off by default — the shadow arrays cost size/64 words
          per region when first touched. *)
}

let default () = {
  scm_read_ns = 90.;
  scm_write_ns = 90.;
  dram_read_ns = 90.;
  crash_after_persists = None;
  persist_count = 0;
  skip_nth_persist = None;
  skip_count = 0;
  torn_nth_store = None;
  torn_count = 0;
  torn_seed = 0;
  backoff_seed = None;
  wear_heatmap = false;
}

let current = default ()

(* ---- instrumentation switches ---- *)

type switches = {
  mutable stats : bool;             (** Count line accesses. *)
  mutable crash_tracking : bool;
      (** Track dirty words for crash simulation.  Off for concurrent
          benches (the tracking table is not synchronized). *)
  mutable delay_injection : bool;
      (** Busy-wait [scm_read_ns - dram_read_ns] on each simulated SCM
          miss, so wall-clock time directly reflects the latency knob. *)
  mutable tracing : bool;
      (** Record every SCM store, flush and persistence annotation in
          {!Pmtrace} (the pmcheck sanitizer's input). *)
  mutable model_check : bool;
      (** Route every shared-memory access of the concurrency protocol
          (version cells, leaf-lock words, fallback mutex, root swap)
          through the {!Htm.Sched} shim so a cooperative model checker
          can interleave them. *)
  mutable fast : bool;
      (** Derived by [refresh_fast]: [stats], [crash_tracking],
          [delay_injection] and [tracing] are all off, so every region
          accessor takes its fast path. *)
}

let switches =
  {
    stats = true;
    crash_tracking = true;
    delay_injection = false;
    tracing = false;
    model_check = false;
    fast = false;
  }

let refresh_fast () =
  let s = switches in
  s.fast <- not (s.stats || s.crash_tracking || s.delay_injection || s.tracing)

let set_stats b =
  (* Attribution scopes gate on the same switch as the counters they
     feed. *)
  Obs.Attrib.set_enabled b;
  switches.stats <- b;
  refresh_fast ()

let set_crash_tracking b =
  switches.crash_tracking <- b;
  refresh_fast ()

let set_delay_injection b =
  switches.delay_injection <- b;
  refresh_fast ()

let set_tracing b =
  switches.tracing <- b;
  refresh_fast ()

let set_model_check b = switches.model_check <- b

let reset () =
  let d = default () in
  current.scm_read_ns <- d.scm_read_ns;
  current.scm_write_ns <- d.scm_write_ns;
  current.dram_read_ns <- d.dram_read_ns;
  set_crash_tracking true;
  set_stats true;
  set_delay_injection false;
  set_tracing false;
  set_model_check false;
  current.backoff_seed <- d.backoff_seed;
  current.wear_heatmap <- d.wear_heatmap;
  current.crash_after_persists <- d.crash_after_persists;
  current.persist_count <- d.persist_count;
  current.skip_nth_persist <- d.skip_nth_persist;
  current.skip_count <- d.skip_count;
  current.torn_nth_store <- d.torn_nth_store;
  current.torn_count <- d.torn_count;
  current.torn_seed <- d.torn_seed

let set_latency ?write_ns ~read_ns () =
  current.scm_read_ns <- read_ns;
  current.scm_write_ns <- (match write_ns with Some w -> w | None -> read_ns)

(** Arm the crash injector: the [n]-th persist from now raises. *)
let schedule_crash_after n =
  current.persist_count <- 0;
  current.crash_after_persists <- Some n

let disarm_crash () = current.crash_after_persists <- None

(** Arm the missing-persist injector: the [n]-th persist from now is
    silently dropped (no flush, no trace event, no crash-point). *)
let schedule_persist_skip n =
  current.skip_count <- 0;
  current.skip_nth_persist <- Some n

let cancel_persist_skip () = current.skip_nth_persist <- None

(** Called by [Region.persist] before anything else; [true] means this
    persist must be dropped entirely. *)
let persist_skipped () =
  match current.skip_nth_persist with
  | None -> false
  | Some n ->
    current.skip_count <- current.skip_count + 1;
    if current.skip_count = n then begin
      current.skip_nth_persist <- None;
      true
    end
    else false

(** Arm the torn-store injector: the [n]-th tearable store from now
    (1-based) tears — its byte prefix becomes durable, the rest is
    lost, and {!Crash_injected} is raised mid-store.  [seed] decides
    the tear point. *)
let schedule_torn_store ?(seed = 0) n =
  current.torn_count <- 0;
  current.torn_seed <- seed;
  current.torn_nth_store <- Some n

let cancel_torn_store () = current.torn_nth_store <- None

(** [true] while a torn store is scheduled: regions consult this before
    paying for the per-store countdown. *)
let[@inline] torn_armed () = current.torn_nth_store <> None

(** Called by [Region] on each tearable store while armed; [true] means
    this store is the one that must tear (the injector disarms). *)
let torn_fires () =
  match current.torn_nth_store with
  | None -> false
  | Some n ->
    current.torn_count <- current.torn_count + 1;
    if current.torn_count >= n then begin
      current.torn_nth_store <- None;
      true
    end
    else false

(* ---- allocation-failure countdowns ---- *)

(* The allocator's two injectors ([Pmem.Palloc.schedule_alloc_failure]
   and [schedule_out_of_scm]) keep their state here, beside the other
   injectors, so that {!injector_armed} sees every armed fault. *)
type countdown = { mutable nth : int option; mutable count : int }

let alloc_failure = { nth = None; count = 0 }
let out_of_scm = { nth = None; count = 0 }

let arm c n =
  c.count <- 0;
  c.nth <- Some n

let disarm c = c.nth <- None
let armed c = c.nth <> None

let fires c =
  match c.nth with
  | None -> false
  | Some n ->
    c.count <- c.count + 1;
    if c.count >= n then begin
      c.nth <- None;
      true
    end
    else false

let injector_armed () =
  current.crash_after_persists <> None
  || current.skip_nth_persist <> None
  || current.torn_nth_store <> None
  || armed alloc_failure
  || armed out_of_scm

(** Called by [Region.persist]; raises {!Crash_injected} at the armed
    persistence point. *)
let on_persist () =
  match current.crash_after_persists with
  | None -> ()
  | Some n ->
    current.persist_count <- current.persist_count + 1;
    if current.persist_count >= n then begin
      current.crash_after_persists <- None;
      raise Crash_injected
    end
