(* Harness shared by the three workloads: clock, growable sample
   vectors, latency summaries, per-domain span accumulators for the
   traced run, the closed-loop runner, counter snapshots, and the
   one-line JSON result every mode prints. *)

let now_ns = Obs.Clock.now_ns

(* Client domains per process: the workloads are defined for 2 clients,
   one per CPU of the 2-vCPU machine they were sized on. *)
let domains = 2

(* The simulator starts with counting and crash tracking on; the timed
   phases run on the fast path, as a deployment would.  Delay
   injection stays off: SCM costs DRAM latency, and the modeled cost
   of the counted SCM traffic is reported by the traced run. *)
let fast_mode () =
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  Scm.Config.set_delay_injection false

let secs_of_ns ns = float_of_int ns *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_of_ns (now_ns () - t0))

(* [timed] on a collected heap: set-up and restart are timed without
   the garbage of earlier phases, as in a fresh process. *)
let timed_clean f =
  Gc.full_major ();
  timed f

(* ---- growable int vectors ---- *)

(* Latency samples and per-transaction results are appended in the
   timed loop: chunked so that a push never copies, and a chunk is
   allocated only once per [chunk] pushes. *)
module Vec = struct
  let chunk = 1 lsl 16

  type t = {
    mutable full : int array list;  (* completed chunks, newest first *)
    mutable cur : int array;        (* empty until the first push *)
    mutable pos : int;
  }

  let create () = { full = []; cur = [||]; pos = 0 }

  let[@inline] push v x =
    if v.pos = Array.length v.cur then begin
      if v.pos > 0 then v.full <- v.cur :: v.full;
      v.cur <- Array.make chunk 0;
      v.pos <- 0
    end;
    Array.unsafe_set v.cur v.pos x;
    v.pos <- v.pos + 1

  let to_array v = Array.concat (List.rev (Array.sub v.cur 0 v.pos :: v.full))
end

(* ---- latency summaries ---- *)

type lat = { n : int; p50_us : float; p99_us : float; mean_us : float }

let no_lat = { n = 0; p50_us = 0.; p99_us = 0.; mean_us = 0. }

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Summarize nanosecond samples gathered from several vectors. *)
let summarize vecs =
  let a = Array.concat (List.map Vec.to_array vecs) in
  let n = Array.length a in
  if n = 0 then no_lat
  else begin
    Array.sort Int.compare a;
    let sum = Array.fold_left ( + ) 0 a in
    { n;
      p50_us = float_of_int (quantile a 0.50) /. 1e3;
      p99_us = float_of_int (quantile a 0.99) /. 1e3;
      mean_us = float_of_int sum /. float_of_int n /. 1e3 }
  end

(* ---- spans of the traced run ---- *)

(* One accumulator per domain (total ns and call count per span id),
   reached through domain-local storage so the wrapped closures, which
   both worker domains share, never contend on a counter. *)
module Spans = struct
  let kv_get = 0
  let kv_set = 1
  let tx = 2
  let fp_find = 3
  let fp_insert = 4
  let fp_update = 5
  let fp_delete = 6
  let set_retry = 7 (* count only: insert legs that returned [false] *)
  let n = 8

  type acc = { ns : int array; calls : int array }

  let all = ref []
  let all_m = Mutex.create ()

  let key =
    Domain.DLS.new_key (fun () ->
        let a = { ns = Array.make n 0; calls = Array.make n 0 } in
        Mutex.protect all_m (fun () -> all := a :: !all);
        a)

  let[@inline] add id dt =
    let a = Domain.DLS.get key in
    Array.unsafe_set a.ns id (Array.unsafe_get a.ns id + dt);
    Array.unsafe_set a.calls id (Array.unsafe_get a.calls id + 1)

  let[@inline] count id =
    let a = Domain.DLS.get key in
    Array.unsafe_set a.calls id (Array.unsafe_get a.calls id + 1)

  let reset () =
    Mutex.protect all_m (fun () ->
        List.iter
          (fun a ->
            Array.fill a.ns 0 n 0;
            Array.fill a.calls 0 n 0)
          !all)

  let sum f id =
    Mutex.protect all_m (fun () ->
        List.fold_left (fun s a -> s + (f a).(id)) 0 !all)

  let calls id = sum (fun a -> a.calls) id
  let total_ns id = sum (fun a -> a.ns) id

  (* Mean span in microseconds; 0 when the span never ran on this
     workload (the layer is not crossed). *)
  let mean_us id =
    let c = calls id in
    if c = 0 then 0. else float_of_int (total_ns id) /. float_of_int c /. 1e3

  (* Time [f x] as span [id]. *)
  let[@inline] wrap1 id f x =
    let t0 = now_ns () in
    let r = f x in
    add id (now_ns () - t0);
    r

  let[@inline] wrap2 id f x y =
    let t0 = now_ns () in
    let r = f x y in
    add id (now_ns () - t0);
    r
end

(* ---- closed loop ---- *)

(* A timed phase is cut into windows of about half a second; each domain
   records its ops' latencies by window and op class.  Reported figures
   are medians over windows, so a transient slow-down of the shared host
   moves one window rather than the result. *)
module Rec = struct
  type t = {
    start : int;
    win_ns : int;
    lat : Vec.t array array;  (* [window][op class] *)
    ops : int array;          (* ops started, per window *)
  }

  let create ~seconds ~classes =
    let n = max 1 (int_of_float (Float.round (2. *. seconds))) in
    { start = now_ns ();
      win_ns = int_of_float (seconds *. 1e9) / n;
      lat = Array.init n (fun _ -> Array.init classes (fun _ -> Vec.create ()));
      ops = Array.make n 0 }

  (* An op of class [c] that ran from [t0] to [t1]. *)
  let[@inline] record r c t0 t1 =
    let w = min (Array.length r.ops - 1) ((t0 - r.start) / r.win_ns) in
    Vec.push r.lat.(w).(c) (t1 - t0);
    r.ops.(w) <- r.ops.(w) + 1
end

type phase = { recs : Rec.t array (* per domain *) }

(* Run [work d ~deadline r] on [domains] domains behind a start barrier;
   each worker issues its next op only after the previous one returned,
   until its own deadline, recording into [r]. *)
let closed_loop ~seconds ~classes work =
  (* Set-up garbage is collected before timing, not during it. *)
  Gc.full_major ();
  let recs = Array.make domains None in
  ignore
    (Workloads.Domain_pool.run ~domains (fun d ->
        let r = Rec.create ~seconds ~classes in
        recs.(d) <- Some r;
         work d ~deadline:(r.Rec.start + int_of_float (seconds *. 1e9)) r)
      : float);
  { recs = Array.map Option.get recs }

let n_windows p = Array.length p.recs.(0).Rec.ops

(* Ops per second: the median over windows. *)
let throughput p =
  let win_s = secs_of_ns p.recs.(0).Rec.win_ns in
  median
    (List.init (n_windows p) (fun w ->
         float_of_int (Array.fold_left (fun a r -> a + r.Rec.ops.(w)) 0 p.recs)
         /. win_s))

(* Latency of the op classes [cs]: the median over windows of each
   window's median and 99th percentile; the count and the mean span
   the whole phase. *)
let latency p cs =
  let windows =
    List.init (n_windows p) (fun w ->
        summarize
          (List.concat_map
             (fun r -> List.map (fun c -> r.Rec.lat.(w).(c)) cs)
             (Array.to_list p.recs)))
    |> List.filter (fun l -> l.n > 0)
  in
  if windows = [] then no_lat
  else
    let n = List.fold_left (fun a l -> a + l.n) 0 windows in
    { n;
      p50_us = median (List.map (fun l -> l.p50_us) windows);
      p99_us = median (List.map (fun l -> l.p99_us) windows);
      mean_us =
        List.fold_left (fun a l -> a +. (l.mean_us *. float_of_int l.n)) 0. windows
        /. float_of_int n }

(* Minor-GC activity of a traced phase.  [Gc.minor_words] is counted
   per domain, so workers record their own delta; minor collections
   are stop-the-world and counted once, from the main domain. *)
let minor_words = Array.make domains 0.

let[@inline] with_minor_words d f =
  let w0 = Gc.minor_words () in
  let r = f () in
  minor_words.(d) <- minor_words.(d) +. (Gc.minor_words () -. w0);
  r

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ---- SCM counters of the exact count trace ---- *)

type counts = {
  snap : Scm.Stats.snapshot;
  persists_by_comp : (string * int) list;
}

let instrumented f =
  Scm.Config.set_stats true;
  Scm.Stats.reset ();
  Obs.Attrib.reset ();
  Fun.protect ~finally:(fun () -> Scm.Config.set_stats false) @@ fun () ->
  let r = f () in
  let snap = Scm.Stats.snapshot () in
  let comps =
    [ Obs.Attrib.comp_microlog; Obs.Attrib.comp_bitmap;
      Obs.Attrib.comp_fingerprint; Obs.Attrib.comp_kv;
      Obs.Attrib.comp_ool_key; Obs.Attrib.comp_alloc_meta ]
  in
  let persists_by_comp =
    List.map
      (fun c ->
        ( Obs.Attrib.comp_name.(c),
          Obs.Attrib.comp_total ~comp:c Obs.Attrib.q_persists ))
      comps
  in
  (r, { snap; persists_by_comp })

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_k a b = 1000. *. ratio a b

(* Per-op SCM metrics of a count trace over [ops] ops of which
   [writes] were writes. *)
let count_metrics c ~ops ~writes =
  let s = c.snap in
  [ ("scm.line_reads_per_op", ratio s.Scm.Stats.line_reads ops);
    ("scm.line_writes_per_op", ratio s.Scm.Stats.line_writes ops);
    ("scm.flushes_per_op", ratio s.Scm.Stats.flushes ops);
    ("scm.persists_per_write", ratio s.Scm.Stats.persists writes);
    ( "scm.modeled_extra_us_per_op_650ns",
      if ops = 0 then 0.
      else
        Scm.Stats.modeled_extra_ns ~read_ns:650. s /. float_of_int ops /. 1e3 )
  ]
  @ List.map
      (fun (name, p) ->
        (Printf.sprintf "attrib.%s.persists_per_write" name, ratio p writes))
      c.persists_by_comp

(* The raw counts, printed so that two runs can be compared exactly. *)
let count_line label c ~ops =
  let s = c.snap in
  Printf.sprintf
    "%s ops=%d line_reads=%d line_writes=%d flushes=%d fences=%d persists=%d%s"
    label ops s.Scm.Stats.line_reads s.Scm.Stats.line_writes
    s.Scm.Stats.flushes s.Scm.Stats.fences s.Scm.Stats.persists
    (String.concat ""
       (List.map (fun (n, p) -> Printf.sprintf " %s=%d" n p) c.persists_by_comp))

(* ---- inner-layer costs ---- *)

(* Median over [rounds] passes of the mean ns of [f i] for i in
   [0, n). *)
let ns_per_call ?(rounds = 5) n f =
  let one () =
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      f i
    done;
    float_of_int (now_ns () - t0) /. float_of_int n
  in
  let xs = Array.init rounds (fun _ -> one ()) in
  Array.sort Float.compare xs;
  xs.(rounds / 2)

(* ---- process-wide layer counters ---- *)

(* Registry counters every speculative lock and every arena feeds, so
   one snapshot covers however many trees a workload drives. *)
let counter_names =
  [| "htm_aborts_total"; "htm_precise_conflict_aborts_total";
     "htm_fallbacks_total"; "htm_backoff_waits_total"; "pmem_alloc_total";
     "pmem_free_total" |]

let counters () =
  Array.map (fun n -> Obs.Counter.value (Obs.Registry.counter n)) counter_names

let counter_metrics c0 c1 ~ops =
  let d i = c1.(i) - c0.(i) in
  [ ("htm.aborts_per_kop", per_k (d 0) ops);
    ("htm.precise_conflicts_per_kop", per_k (d 1) ops);
    ("htm.fallbacks_per_kop", per_k (d 2) ops);
    ("htm.backoff_waits_per_kop", per_k (d 3) ops);
    ("pmem.allocs_per_kop", per_k (d 4) ops);
    ("pmem.frees_per_kop", per_k (d 5) ops) ]

(* Tree counters of a count trace, summed over the workload's trees:
   every point op makes exactly one leaf search. *)
let tree_metrics (stats : Fptree.Tree.stats list) ~ops =
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let searches =
    sum (fun s ->
        s.Fptree.Tree.finds + s.Fptree.Tree.inserts + s.Fptree.Tree.updates
        + s.Fptree.Tree.deletes)
  in
  [ ("fptree.key_probes_per_find", ratio (sum (fun s -> s.Fptree.Tree.key_probes)) searches);
    ("fptree.splits_per_kop", per_k (sum (fun s -> s.Fptree.Tree.leaf_splits)) ops);
    ("fptree.leaf_deletes_per_kop", per_k (sum (fun s -> s.Fptree.Tree.leaf_deletes)) ops) ]

let tree_line (stats : Fptree.Tree.stats list) =
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  Printf.sprintf "count_trace tree key_probes=%d splits=%d leaf_deletes=%d"
    (sum (fun s -> s.Fptree.Tree.key_probes))
    (sum (fun s -> s.Fptree.Tree.leaf_splits))
    (sum (fun s -> s.Fptree.Tree.leaf_deletes))

(* GC activity of a timed phase: [ops] ops, [mc] minor collections. *)
let gc_metrics ~ops ~mc =
  [ ("gc.minor_words_per_op",
     Array.fold_left ( +. ) 0. minor_words /. float_of_int (max 1 ops));
    ("gc.minor_collections_per_kop", per_k mc ops) ]

(* The inner layers below the fptree op spans, timed against the final
   tree on [n] sampled lookups: [descend i] runs lookup [i]'s inner
   descent, [search i] its leaf search, and [pointers] are persistent
   pointers of the kind the lookups follow.  Each op span
   [(op, mean us)] is then decomposed into count x cost per layer plus a
   residual, what the op spends outside the timed layers, so that the
   layer costs and the residual add up to the span.  Point ops cross one
   descent and one leaf search (whose key probes, out-of-line key reads
   included, are part of the search); a range crosses one descent and
   then walks leaves.  An op the workload never issues has span and
   residual 0. *)
let inner_layers ~n ~descend ~search ~pointers spans =
  let descent_ns = ns_per_call n (fun i -> ignore (Sys.opaque_identity (descend i))) in
  let scan_ns = ns_per_call n (fun i -> ignore (Sys.opaque_identity (search i))) in
  let resolve_ns =
    ns_per_call (Array.length pointers) (fun i ->
        ignore (Sys.opaque_identity (Pmem.Pptr.resolve pointers.(i))))
  in
  List.concat_map
    (fun (op, span_us) ->
      let model_ns = if op = "range" then descent_ns else descent_ns +. scan_ns in
      [ (Printf.sprintf "fptree.%s_us" op, span_us);
        ( Printf.sprintf "fptree.%s.residual_us" op,
          if span_us = 0. then 0. else span_us -. (model_ns /. 1e3) ) ])
    spans
  @ [ ("fptree.inner.descent_ns", descent_ns);
      ("fptree.leaf.scan_ns", scan_ns);
      ("pmem.resolve_ns", resolve_ns) ]

(* The non-null next pointers of [(region, layout, leaf)] leaves: the
   pointers a range follows. *)
let next_pointers leaves =
  Array.to_list leaves
  |> List.map (fun (region, layout, (l : Fptree.Inner.leaf_ref)) ->
         Fptree.Layout.read_next region ~leaf:l.Fptree.Inner.off layout)
  |> List.filter (fun p -> not (Pmem.Pptr.is_null p))
  |> Array.of_list

(* Restart cost of [regions], each holding one tree: re-attach the
   arena and recover, timed; then once more with counters on for the
   SCM traffic.  [recover] returns a thunk counting the tree's leaves,
   so the leaf walk stays out of the timing. *)
let recovery_metrics regions recover =
  let of_region_s = ref 0. and recover_s = ref 0. and leaves = ref 0 in
  List.iter
    (fun r ->
      let a, s1 = timed_clean (fun () -> Pmem.Palloc.of_region r) in
      let count_leaves, s2 = timed (fun () -> recover a) in
      of_region_s := !of_region_s +. s1;
      recover_s := !recover_s +. s2;
      leaves := !leaves + count_leaves ())
    regions;
  let (), rc =
    instrumented (fun () ->
        List.iter (fun r -> ignore (recover (Pmem.Palloc.of_region r) : unit -> int)) regions)
  in
  [ ("pmem.of_region_s", !of_region_s);
    ("recovery.tree_recover_s", !recover_s);
    ("recovery.line_reads", float_of_int rc.snap.Scm.Stats.line_reads);
    ("recovery.leaves", float_of_int !leaves) ]

(* Offline audit of each region: unrepaired errors, and one note per
   finding. *)
let fsck regions =
  let errs = List.concat_map (fun r -> Fsck.errors (Fsck.check r)) regions in
  ( List.length errs,
    List.map (fun f -> Format.asprintf "fsck: %a" Fsck.pp_finding f) errs )

(* ---- host fingerprint ---- *)

(* ns of a fixed integer loop: a per-host speed reference that lets
   results from two hosts be compared as ratios. *)
let calibration_ns () =
  ns_per_call ~rounds:7 1 (fun _ ->
      let x = ref 1 in
      for i = 1 to 5_000_000 do
        x := (!x * 1103515245) + 12345 + i
      done;
      ignore (Sys.opaque_identity !x))

(* Metrics and a printable line: CPUs, compiler, calibration loop. *)
let host () =
  let nproc = Domain.recommended_domain_count () and cal = calibration_ns () in
  ( [ ("host.nproc", float_of_int nproc); ("host.calibration_ns", cal) ],
    Printf.sprintf "host nproc=%d ocaml=%s calibration_ns=%.0f" nproc
      Sys.ocaml_version cal )

(* ---- result ---- *)

(* What one process reports: numeric metrics, the repeated
   measurements behind a metric (pooled across processes by run.py), op
   accounting, and free-form lines for the human-readable output. *)
type result = {
  metrics : (string * float) list;
  samples : (string * float list) list;
  attempted : int;
  failed : int;
  correct : bool;
  notes : string list;
}

let json_string s = "\"" ^ Obs.Json.escape s ^ "\""

(* All digits: the benchmark's figures go out as measured. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result r =
  let obj f kvs = String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ f v) kvs) in
  let arr f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
     \"samples\": {%s}, \"notes\": %s}\n%!"
    r.correct r.attempted r.failed (obj json_float r.metrics)
    (obj (arr json_float) r.samples) (arr json_string r.notes)

(* ---- inputs ---- *)

(* Ops generated per domain: 600k per second, more than a domain of any
   workload completed on a 2-vCPU Xeon VM; a stream that runs out wraps
   around. *)
let stream_len seconds = max (1 lsl 20) (min (1 lsl 22) (int_of_float (seconds *. 6e5)))

(* Seeded Fisher-Yates permutation of [0, n). *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
