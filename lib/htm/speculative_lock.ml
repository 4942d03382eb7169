(** Software emulation of HTM lock elision (Intel TSX speculative
    spin mutex), used by Selective Concurrency (Section 4.4).

    Hardware TSX runs a critical section as an optimistic transaction:
    the elided lock is added to the read set, conflicts abort the
    transaction, and after a retry threshold the global lock is taken
    for real.  The OCaml runtime has no HTM, so we emulate the same
    semantics with a sequence lock:

    - the version word is even when the structure is stable and odd
      while a writer is inside;
    - an optimistic reader snapshots an even version, runs, and
      validates that the version did not move — a moved version is a
      conflict abort, exactly like a TSX read-set invalidation;
    - a writer (or a reader that exhausted its retries — the fallback
      path) takes the real mutex; writers additionally bump the version
      to odd/even around their critical section so that concurrent
      optimistic readers abort.

    The version word here is {e tree-global}: any writer invalidates
    every concurrent optimistic section, which models TSX with a
    one-line read set.  The tree's own hot paths instead drive
    {!Node_versions} — per-node version words with per-domain read
    sets — and only use this module for the fallback mutex, the
    writer serialization, and the abort statistics; the closure API
    below ([with_txn]/[with_write]) keeps the coarse one-word protocol
    for callers that want it (NV-Tree baseline, tests).

    This preserves the property the FPTree design depends on: read-only
    traversals of the DRAM part run lock-free and scale, while
    persistence primitives (flushes) are kept outside the speculative
    region because on real hardware they would abort the transaction.

    {b Telemetry.}  Abort accounting is domain-sharded
    ({!Obs.Counter}) and broken down by reason, the shape of the
    paper's Appendix B abort analysis:

    - {e conflict}: the global version word moved during speculation —
      a read-set invalidation under the coarse one-word protocol;
    - {e precise conflict}: a per-node read set was invalidated
      ({!Node_versions}) — the transaction aborted because a writer
      touched a node it actually read, not merely because any writer
      committed anywhere;
    - {e explicit}: the transaction aborted itself (elided lock busy at
      entry, or the body returned [Abort] — a leaf lock was taken),
      the analogue of an XABORT / capacity-style early exit;
    - {e fallback}: entries into the real mutex after the retry budget.

    Each lock keeps its own shards ([stats] / [shard_stats]); the same
    events also feed process-wide [htm_*_total] registry counters so a
    metrics dump carries per-domain abort behaviour. *)

(* Process-wide registry counters (all locks aggregated). *)
let g_aborts =
  Obs.Registry.counter "htm_aborts_total"
    ~help:"speculative transaction aborts, all reasons"

let g_conflicts =
  Obs.Registry.counter "htm_conflict_aborts_total"
    ~help:"aborts from global-version invalidation (coarse read set)"

let g_precise_conflicts =
  Obs.Registry.counter "htm_precise_conflict_aborts_total"
    ~help:"aborts from per-node read-set invalidation (precise)"

let g_explicit =
  Obs.Registry.counter "htm_explicit_aborts_total"
    ~help:"self-inflicted aborts (elided lock busy / explicit XABORT)"

let g_fallbacks =
  Obs.Registry.counter "htm_fallbacks_total"
    ~help:"entries into the fallback mutex after the retry budget"

let g_backoff_waits =
  Obs.Registry.counter "htm_backoff_waits_total"
    ~help:"bounded-exponential backoff waits between speculative retries"

(* Per-domain backoff-jitter state: [jitter_shards] slots of
   [jitter_stride] boxed atomics so concurrently backing-off domains
   advance their PRNG state on distinct cache lines. *)
let jitter_shards = 64
let jitter_stride = 8

type t = {
  version : Padded.t;
      (* padded: the hottest word of the lock — every optimistic
         section loads it, so it must not share a line with the stat
         shards or the jitter state *)
  fallback : Mutex.t;
  retry_threshold : int;
  backoff_ceiling : int;
  jitter : int Atomic.t array;
  (* per-lock sharded statistics (exact under domains) *)
  aborts : Obs.Counter.t;
  conflicts : Obs.Counter.t;
  precise_conflicts : Obs.Counter.t;
  explicit_aborts : Obs.Counter.t;
  fallbacks : Obs.Counter.t;
  backoff_waits : Obs.Counter.t;
}

let create ?(retry_threshold = 8) ?(backoff_ceiling = 1024) () =
  if backoff_ceiling < 1 then
    invalid_arg "Speculative_lock.create: backoff_ceiling must be >= 1";
  {
    version = Padded.make 0;
    fallback = Mutex.create ();
    retry_threshold;
    backoff_ceiling;
    jitter = Obs.Counter.atomics (jitter_shards * jitter_stride);
    aborts = Obs.Counter.make ();
    conflicts = Obs.Counter.make ();
    precise_conflicts = Obs.Counter.make ();
    explicit_aborts = Obs.Counter.make ();
    fallbacks = Obs.Counter.make ();
    backoff_waits = Obs.Counter.make ();
  }

(* Flight-recorder wiring: global-conflict, explicit and fallback
   events are emitted here (the single choke point for every caller,
   including [with_txn] and the baselines); precise conflicts are NOT
   emitted here — the tree's retry handlers emit them with the failing
   node's identity and descent depth ([Node_versions.failure]), which
   this module cannot know.  Emitting both here and there would double
   count. *)

let[@inline] count_abort t =
  Obs.Counter.incr t.aborts;
  Obs.Counter.incr g_aborts

let[@inline] count_conflict t =
  Obs.Counter.incr t.conflicts;
  Obs.Counter.incr g_conflicts;
  if Obs.Gate.enabled () then
    Obs.Flight.htm_abort ~reason:Obs.Event.abort_global ~node:(-1) ~depth:(-1)

let[@inline] count_precise_conflict t =
  Obs.Counter.incr t.precise_conflicts;
  Obs.Counter.incr g_precise_conflicts

let[@inline] count_explicit t =
  Obs.Counter.incr t.explicit_aborts;
  Obs.Counter.incr g_explicit;
  if Obs.Gate.enabled () then
    Obs.Flight.htm_abort ~reason:Obs.Event.abort_explicit ~node:(-1)
      ~depth:(-1)

let[@inline] count_fallback t =
  Obs.Counter.incr t.fallbacks;
  Obs.Counter.incr g_fallbacks;
  if Obs.Gate.enabled () then Obs.Flight.fallback_lock ()

type 'a outcome = Commit of 'a | Abort
(** What the transaction body decides: [Abort] is an explicit XABORT
    (e.g. the target leaf is locked by another thread) and makes the
    whole transaction retry. *)

let cpu_relax () = Domain.cpu_relax ()

(** Bounded exponential backoff before retry [attempt] (0-based: the
    first retry waits ~2 relax iterations, doubling up to the lock's
    ceiling).  The jitter term comes from a per-domain Weyl-sequence
    PRNG cell that advances on {e every} wait, so each lock
    acquisition sees a fresh jitter sequence: domains that abort on
    the same conflict twice do not replay identical wait schedules and
    re-collide in lockstep (the old jitter was a pure function of
    (domain, attempt), i.e. seeded once per domain lifetime).
    Allocation-free.  Counted in the per-lock stats.

    With [Scm.Config.current.backoff_seed = Some s] the jitter is
    instead a pure function of (s, attempt, domain slot) — no Weyl
    state is read or advanced — so equal-seed runs report identical
    [backoff_waits] and identical flight [backoff_wait] payloads (the
    determinism the chaos and mcheck harnesses pin).  Under the model
    checker the wait itself is skipped: simulated time is schedule
    order, and a spinning fiber would stall the cooperative scheduler
    without changing any reachable interleaving. *)
let backoff t attempt =
  Obs.Counter.incr t.backoff_waits;
  Obs.Counter.incr g_backoff_waits;
  if not (Sched.on ()) then begin
    let spins = min t.backoff_ceiling (1 lsl min (attempt + 1) 20) in
    let d = (Domain.self () :> int) land (jitter_shards - 1) in
    let s =
      match Scm.Config.current.backoff_seed with
      | Some seed ->
        seed + ((attempt + 1) * 0x9E3779B97F4A7C1) + (d * 0x3F58476D1CE4E5B9)
      | None ->
        let cell = Array.unsafe_get t.jitter (d * jitter_stride) in
        (* Weyl step + splitmix-style finalizer; the state survives
           across acquisitions, which is what re-seeds the sequence. *)
        let s = Atomic.get cell + 0x9E3779B97F4A7C1 in
        Atomic.set cell s;
        s
    in
    let h = (s lxor (s lsr 29)) * 0x3F58476D1CE4E5B9 in
    let h = h lxor (h lsr 32) in
    let jitter = (h land max_int) mod (spins + 1) in
    if Obs.Gate.enabled () then
      Obs.Flight.backoff_wait ~attempt ~spins:(spins + jitter);
    for _ = 1 to spins + jitter do
      cpu_relax ()
    done
  end

(** Run [f] as a TSX-style transaction.  [f] must be free of side
    effects on shared transient state (it may CAS leaf locks: a
    successful CAS followed by a failed validation is undone by the
    caller via [on_rollback]).  After [retry_threshold] aborts the
    fallback mutex is taken and [f] runs to a [Commit] under it. *)
let with_txn ?(on_rollback = fun _ -> ()) t f =
  let rec optimistic attempt =
    if attempt >= t.retry_threshold then fallback ()
    else begin
      let v = Padded.get t.version in
      if v land 1 = 1 then begin
        (* A writer is inside: the elided lock is busy. *)
        count_explicit t;
        count_abort t;
        backoff t attempt;
        optimistic (attempt + 1)
      end
      else
        let result =
          (* Exceptions during speculation may be artifacts of racing
             with a writer; only trust them if the version still
             validates. *)
          match f () with
          | r -> Ok r
          | exception e -> Error e
        in
        if Padded.get t.version <> v then begin
          (match result with Ok (Commit x) -> on_rollback x | _ -> ());
          count_conflict t;
          count_abort t;
          backoff t attempt;
          optimistic (attempt + 1)
        end
        else
          match result with
          | Ok (Commit x) -> x
          | Ok Abort ->
            count_explicit t;
            count_abort t;
            backoff t attempt;
            optimistic (attempt + 1)
          | Error e -> raise e
    end
  and fallback () =
    (* Like the paper's Algorithm 1 under the global lock: an explicit
       abort releases the lock and the enclosing while-loop reacquires
       it, so a thread holding a leaf lock can still enter its second
       (structure-updating) critical section — no deadlock. *)
    count_fallback t;
    Sched.mutex_lock ~obj:Sched.obj_mutex t.fallback;
    let r =
      Fun.protect
        ~finally:(fun () -> Sched.mutex_unlock ~obj:Sched.obj_mutex t.fallback)
        f
    in
    match r with
    | Commit x -> x
    | Abort ->
      cpu_relax ();
      fallback ()
  in
  optimistic 0

(* ---- raw optimistic-read primitives ---- *)

(* The closure passed to [with_txn] is a minor-heap allocation per
   call, and the [outcome]/[result] wrappers are more.  Allocation-free
   hot paths (the tree's find) drive the same seqlock protocol through
   these primitives instead; the semantics mirror [with_txn] exactly.
   The tree's per-node protocol ({!Node_versions}) uses only the
   fallback/stat primitives from here. *)

let retry_threshold t = t.retry_threshold

(** Snapshot the version word for an optimistic section; negative when
    a writer is inside (the elided lock is busy — abort immediately). *)
let read_begin t =
  let v = Padded.get t.version in
  if v land 1 = 1 then -1 else v

(** [true] iff no writer committed since {!read_begin} returned [v]. *)
let read_validate t v = Padded.get t.version = v

let note_abort t = count_abort t
let note_conflict t = count_conflict t

(** Count a per-node read-set invalidation ({!Node_versions}): the
    precise-conflict bucket, disjoint from {!note_conflict}'s
    global-version bucket.  Callers still call {!note_abort} for the
    total. *)
let note_precise_conflict t = count_precise_conflict t

(** Count a self-inflicted abort (elided lock busy at [read_begin], or
    the target leaf's lock was held): the explicit-XABORT bucket of the
    reason breakdown.  Callers still call {!note_abort} for the total. *)
let note_explicit_abort t = count_explicit t

let relax = cpu_relax

(** Enter the fallback path: the real mutex, counted like [with_txn]'s
    fallback.  The caller must pair it with {!unlock_fallback}. *)
let lock_fallback t =
  count_fallback t;
  Sched.mutex_lock ~obj:Sched.obj_mutex t.fallback;
  if Scm.Pmtrace.enabled () then Scm.Pmtrace.fallback_lock ()

let relock_fallback t =
  Sched.mutex_lock ~obj:Sched.obj_mutex t.fallback;
  if Scm.Pmtrace.enabled () then Scm.Pmtrace.fallback_lock ()

let unlock_fallback t =
  if Scm.Pmtrace.enabled () then Scm.Pmtrace.fallback_unlock ();
  Sched.mutex_unlock ~obj:Sched.obj_mutex t.fallback

(** Run [f] as a writing transaction.  Writers to the transient
    structure always serialize on the mutex and invalidate concurrent
    optimistic readers via the version word.  (On real TSX small
    writers could also commit speculatively; serializing them is the
    fallback behaviour and only affects scalability of structure
    modifications, i.e. splits.) *)
let with_write t f =
  Sched.mutex_lock ~obj:Sched.obj_mutex t.fallback;
  Sched.point ~obj:Sched.obj_global ~write:true;
  Padded.incr t.version;
  if Scm.Pmtrace.enabled () then Scm.Pmtrace.writer_begin ();
  Fun.protect
    ~finally:(fun () ->
      if Scm.Pmtrace.enabled () then Scm.Pmtrace.writer_end ();
      Sched.point ~obj:Sched.obj_global ~write:true;
      Padded.incr t.version;
      Sched.mutex_unlock ~obj:Sched.obj_mutex t.fallback)
    f

type stats = {
  aborts : int;
  conflicts : int;
  precise_conflicts : int;
  explicit_aborts : int;
  fallbacks : int;
  backoff_waits : int;
}

(** Merged (all-domain) totals for this lock. *)
let stats (t : t) =
  {
    aborts = Obs.Counter.value t.aborts;
    conflicts = Obs.Counter.value t.conflicts;
    precise_conflicts = Obs.Counter.value t.precise_conflicts;
    explicit_aborts = Obs.Counter.value t.explicit_aborts;
    fallbacks = Obs.Counter.value t.fallbacks;
    backoff_waits = Obs.Counter.value t.backoff_waits;
  }

let merge a b =
  {
    aborts = a.aborts + b.aborts;
    conflicts = a.conflicts + b.conflicts;
    precise_conflicts = a.precise_conflicts + b.precise_conflicts;
    explicit_aborts = a.explicit_aborts + b.explicit_aborts;
    fallbacks = a.fallbacks + b.fallbacks;
    backoff_waits = a.backoff_waits + b.backoff_waits;
  }

let zero_stats =
  { aborts = 0; conflicts = 0; precise_conflicts = 0; explicit_aborts = 0;
    fallbacks = 0; backoff_waits = 0 }

(** Per-domain-shard breakdown: [(shard, stats)] for every shard with
    at least one non-zero counter (shard = domain id mod
    [Obs.Counter.shards]).  Folding with {!merge} reproduces
    {!stats}. *)
let shard_stats (t : t) =
  let tbl = Hashtbl.create 8 in
  let get s =
    match Hashtbl.find_opt tbl s with Some r -> r | None -> zero_stats
  in
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with aborts = v })
    (Obs.Counter.per_shard t.aborts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with conflicts = v })
    (Obs.Counter.per_shard t.conflicts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with precise_conflicts = v })
    (Obs.Counter.per_shard t.precise_conflicts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with explicit_aborts = v })
    (Obs.Counter.per_shard t.explicit_aborts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with fallbacks = v })
    (Obs.Counter.per_shard t.fallbacks);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with backoff_waits = v })
    (Obs.Counter.per_shard t.backoff_waits);
  Hashtbl.fold (fun s r acc -> (s, r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
