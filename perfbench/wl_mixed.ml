(* fixed-mixed: concurrent [Fptree.Fixed] under a uniform mix of
   25% insert / 25% delete / 30% find / 15% update, then a read-only
   phase of range scans.

   Keys are 1..2M.  Domain 0 owns the even keys, domain 1 the odd ones,
   so each domain's oracle of its own keys is exact while leaves stay
   shared; half of each domain's keys are preloaded.  Inserts and
   deletes of uniform keys balance, so occupancy stays at 50%.

   The scans do not run inside the mix: [Tree.range] walks the leaf
   chain without validating the leaves it reads, so a range that races
   a split of its leaf can return the leaf's upper half twice.  They
   take the last quarter of the timed time, on both domains, with no
   writer that could split a leaf under them. *)

open Common
module F = Fptree.Fixed

let universe = 2_000_000
let per_domain = universe / domains
let arena_bytes = 128 * 1024 * 1024
let range_span = 63 (* [lo, lo + 63]: at most 64 keys *)

let k_insert = 0
let k_delete = 1
let k_find = 2
let k_update = 3
let k_range = 4
let n_kinds = 5

(* Key of domain [d]'s [j]-th key, and back. *)
let key_of d j = (2 * j) + 2 - d
let[@inline] slot_of key = (key - 1) lsr 1
let[@inline] owner key = key land 1

(* Values encode their key, so any returned pair can be checked even
   for keys another domain owns. *)
let[@inline] value key seq = (key lsl 22) lor (seq land 0x3FFFFF)
let[@inline] key_of_value v = v lsr 22

type stream = {
  ops : int array array; (* per domain: (key lsl 3) lor kind *)
  cursor : int array;    (* per domain: next position *)
}

type t = {
  mutable tree : F.t;
  mutable alloc : Pmem.Palloc.t;
  oracle : int array array;  (* per domain, by slot: value, 0 = absent *)
  mix : stream;              (* the point ops *)
  scans : stream;            (* the ranges of the read-only phase *)
}

(* Share of a timed phase given to the mix; the scans take the rest. *)
let mix_share = 0.75

let gen_stream ~seed ~len d =
  let rng = Random.State.make [| seed; 17; d |] in
  Array.init len (fun _ ->
      let dice = Random.State.int rng 95 in
      let kind =
        if dice < 25 then k_insert
        else if dice < 50 then k_delete
        else if dice < 80 then k_find
        else k_update
      in
      (key_of d (Random.State.int rng per_domain) lsl 3) lor kind)

let gen_scans ~seed ~len d =
  let rng = Random.State.make [| seed; 19; d |] in
  Array.init len (fun _ -> (key_of d (Random.State.int rng per_domain) lsl 3) lor k_range)

let stream gen ~seed ~len =
  { ops = Array.init domains (gen ~seed ~len); cursor = Array.make domains 0 }

(* Inputs: the op streams and the preload order, all from [seed]. *)
let prepare ~seed ~stream_len =
  let streams =
    (stream gen_stream ~seed ~len:stream_len, stream gen_scans ~seed ~len:(stream_len / 4))
  in
  let chosen =
    Array.concat
      (List.init domains (fun d ->
           let p = permutation (Random.State.make [| seed; 3; d |]) per_domain in
           Array.init (per_domain / 2) (fun i -> key_of d p.(i))))
  in
  let order = permutation (Random.State.make [| seed; 5 |]) (Array.length chosen) in
  (streams, Array.map (fun i -> chosen.(i)) order)

let setup ~seed ~stream_len =
  let streams, preload = prepare ~seed ~stream_len in
  let oracle = Array.init domains (fun _ -> Array.make per_domain 0) in
  let (alloc, tree), setup_s =
    timed_clean (fun () ->
        let alloc = Pmem.Palloc.create ~size:arena_bytes () in
        let tree = F.create_concurrent alloc in
        Array.iter
          (fun key ->
            let v = value key 0 in
            if not (F.insert tree key v) then failwith "preload: duplicate key";
            oracle.(owner key).(slot_of key) <- v)
          preload;
        (alloc, tree))
  in
  let mix, scans = streams in
  ({ tree; alloc; oracle; mix; scans }, setup_s)

(* Own keys of [d] in [lo, hi] must come back exactly as the oracle has
   them; every pair must be in range, strictly ascending, and carry a
   value encoding its key. *)
let range_ok oracle d lo hi lst =
  let own_from k = if owner k = d then k else k + 1 in
  let rec absent_until k stop =
    k >= stop || k > universe || (oracle.(slot_of k) = 0 && absent_until (k + 2) stop)
  in
  let rec go prev next_own = function
    | [] -> absent_until next_own (hi + 1)
    | (k, v) :: rest ->
      k > prev && k >= lo && k <= hi && key_of_value v = k
      &&
      if owner k <> d then go k next_own rest
      else absent_until next_own k && oracle.(slot_of k) = v && go k (k + 2) rest
  in
  go (lo - 1) (own_from lo) lst

(* Each domain's last range result, kept for the failure report. *)
let last_range = Array.make domains []

(* The first failures, described for the notes of the result. *)
let failures = ref []
let failures_m = Mutex.create ()

let kind_name = [| "insert"; "delete"; "find"; "update"; "range" |]

let note_failure st d op ~before what =
  let kind = op land 7 and key = op lsr 3 in
  let now = match F.find st.tree key with None -> "absent" | Some v -> string_of_int v in
  let detail =
    if kind <> k_range then ""
    else
      " got ["
      ^ String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) last_range.(d))
      ^ "]"
  in
  Mutex.protect failures_m (fun () ->
      if List.length !failures < 5 then
        failures :=
          Printf.sprintf "wrong result: domain %d %s key %d oracle %d tree %s%s%s"
            d kind_name.(kind) key before now what detail
          :: !failures)

(* Run one op against the tree and check its result against [d]'s
   oracle (updated on success).  [lat kind t0 t1] receives the op's
   start and end, the oracle work excluded. *)
let step tree oracle d op seq lat =
  let kind = op land 7 and key = op lsr 3 in
  let j = slot_of key in
  let cur = oracle.(j) in
  if kind = k_find then begin
    let t0 = now_ns () in
    let r = F.find tree key in
    lat kind t0 (now_ns ());
    match r with None -> cur = 0 | Some v -> v = cur
  end
  else if kind = k_insert then begin
    let v = value key seq in
    let t0 = now_ns () in
    let r = F.try_insert tree key v in
    lat kind t0 (now_ns ());
    match r with
    | Ok b ->
      if b then oracle.(j) <- v;
      b = (cur = 0)
    | Error `Out_of_space -> false
  end
  else if kind = k_delete then begin
    let t0 = now_ns () in
    let b = F.delete tree key in
    lat kind t0 (now_ns ());
    if b then oracle.(j) <- 0;
    b = (cur <> 0)
  end
  else if kind = k_update then begin
    let v = value key seq in
    let t0 = now_ns () in
    let r = F.try_update tree key v in
    lat kind t0 (now_ns ());
    match r with
    | Ok b ->
      if b then oracle.(j) <- v;
      b = (cur <> 0)
    | Error `Out_of_space -> false
  end
  else begin
    let hi = key + range_span in
    let t0 = now_ns () in
    let r = F.range tree ~lo:key ~hi in
    lat kind t0 (now_ns ());
    last_range.(d) <- r;
    range_ok oracle d key hi r
  end

let no_lat _ _ _ = ()

(* Run [d]'s next op of [src]: [false] if it failed, exceptions
   included. *)
let run_op st src d lat =
  let s = src.ops.(d) in
  let i = src.cursor.(d) in
  src.cursor.(d) <- i + 1;
  let op = s.(i mod Array.length s) in
  let before = st.oracle.(d).(slot_of (op lsr 3)) in
  match step st.tree st.oracle.(d) d op i lat with
  | true -> true
  | false ->
    note_failure st d op ~before "";
    false
  | exception e ->
    note_failure st d op ~before (" raised " ^ Printexc.to_string e);
    false

(* Single-domain replay of [n] ops of the mix per domain, interleaved:
   failed ops and acknowledged writes. *)
let replay st n lat =
  let bad = ref 0 and writes = ref 0 in
  for _ = 1 to n do
    for d = 0 to domains - 1 do
      let s = st.mix.ops.(d) in
      let kind = s.(st.mix.cursor.(d) mod Array.length s) land 7 in
      if not (run_op st st.mix d lat) then incr bad
      else if kind <> k_find then incr writes
    done
  done;
  (!bad, !writes)

(* A timed closed loop over [src]: ops attempted and failed over the
   phase. *)
let measure st src ~seconds =
  let attempted = Array.make domains 0 and failed = Array.make domains 0 in
  let phase =
    closed_loop ~seconds ~classes:n_kinds (fun d ~deadline r ->
        with_minor_words d (fun () ->
            let lat kind t0 t1 = Rec.record r kind t0 t1 in
            let n = ref 0 and bad = ref 0 in
            while !n land 63 <> 0 || now_ns () < deadline do
              if not (run_op st src d lat) then incr bad;
              incr n
            done;
            attempted.(d) <- !n;
            failed.(d) <- !bad))
  in
  (phase, Array.fold_left ( + ) 0 attempted, Array.fold_left ( + ) 0 failed)

let writes = [ k_insert; k_delete; k_update ]
let point_ops = [ k_insert; k_delete; k_find; k_update ]

let expected_count st =
  Array.fold_left
    (fun acc o -> Array.fold_left (fun a v -> if v <> 0 then a + 1 else a) acc o)
    0 st.oracle

(* Keys whose recovered state differs from the oracle, over [keys]. *)
let mismatches tree st keys =
  let bad = ref 0 in
  Array.iter
    (fun key ->
      let want = st.oracle.(owner key).(slot_of key) in
      match F.find tree key with
      | None -> if want <> 0 then incr bad
      | Some v -> if v <> want then incr bad)
    keys;
  !bad

let recover_tree alloc =
  F.recover ~config:Fptree.Tree.fptree_concurrent_config alloc

(* Restart: re-attach the arena and rebuild the DRAM inner nodes. *)
let restart st =
  let region = Pmem.Palloc.region st.alloc in
  let (alloc, tree), secs =
    timed_clean (fun () ->
        let a = Pmem.Palloc.of_region region in
        (a, recover_tree a))
  in
  st.alloc <- alloc;
  st.tree <- tree;
  secs

let sample_keys ~seed n =
  let rng = Random.State.make [| seed; 23 |] in
  Array.init n (fun _ -> 1 + Random.State.int rng universe)

let footprint st =
  let n = max 1 (F.count st.tree) in
  [ ("scm_bytes_per_key", ratio (F.scm_bytes st.tree) n);
    ("dram_bytes_per_key", ratio (F.dram_bytes st.tree) n) ]

(* The mix, then the scans: both phases, ops attempted and failed. *)
let measure_both st ~seconds =
  let phase, attempted, failed = measure st st.mix ~seconds:(seconds *. mix_share) in
  let scan_phase, scanned, scan_failed =
    measure st st.scans ~seconds:(seconds *. (1. -. mix_share))
  in
  (phase, scan_phase, attempted + scanned, failed + scan_failed)

let e2e ~seed ~seconds =
  let st, setup_s = setup ~seed ~stream_len:(stream_len seconds) in
  let phase, scan_phase, attempted, failed = measure_both st ~seconds in
  let read = latency phase [ k_find ] and scan = latency scan_phase [ k_range ] in
  let write = latency phase writes and all = latency phase point_ops in
  let fp = footprint st in
  let count_ok = F.count st.tree = expected_count st in
  let heap_mb = heap_mb () in
  let restarts = List.init 9 (fun _ -> restart st) in
  let recovered_bad = mismatches st.tree st (sample_keys ~seed 200_000) in
  let recount_ok = F.count st.tree = expected_count st in
  let correct = failed = 0 && count_ok && recovered_bad = 0 && recount_ok in
  { samples = [ ("recovery_s", restarts) ];
    metrics =
      [ ("setup_s", setup_s);
        ("throughput_ops_s", throughput phase);
        ("read_p50_us", read.p50_us); ("read_p99_us", read.p99_us);
        ("read_n", float_of_int read.n);
        ("write_p50_us", write.p50_us); ("write_p99_us", write.p99_us);
        ("write_n", float_of_int write.n);
        ("scan_p50_us", scan.p50_us); ("scan_p99_us", scan.p99_us);
        ("scan_n", float_of_int scan.n);
        ("op_p50_us", all.p50_us); ("op_p99_us", all.p99_us);
        ("op_n", float_of_int all.n);
        ("recovery_s", median restarts) ]
      @ fp
      @ [ ("heap_mb", heap_mb) ];
    attempted; failed; correct;
    notes =
      List.rev !failures
      @ (if count_ok && recount_ok then [] else [ "tree count differs from oracle" ])
      @ (if recovered_bad = 0 then []
         else [ Printf.sprintf "%d keys wrong after recovery" recovered_bad ]) }

(* Throughput of the untraced mix, for trace.overhead_ratio. *)
let base ~seed ~seconds =
  let st, _ = setup ~seed ~stream_len:(stream_len seconds) in
  let phase, attempted, failed = measure st st.mix ~seconds:(seconds *. mix_share) in
  { samples = [];
    metrics = [ ("throughput_ops_s", throughput phase) ];
    attempted; failed; correct = failed = 0; notes = [] }

let count_trace_ops = 50_000 (* per domain *)
let durability_ops = 5_000 (* per domain *)

let traced ~seed ~seconds =
  let st, _ = setup ~seed ~stream_len:(stream_len seconds) in
  (* 1. exact count trace: the first ops, one domain, counters on *)
  F.reset_stats st.tree;
  let (bad_ct, ct_writes), counts =
    instrumented (fun () -> replay st count_trace_ops no_lat)
  in
  let ct_ops = count_trace_ops * domains in
  let ts = F.stats st.tree in
  (* 2. timed phases: op spans, HTM, allocator and GC activity *)
  let c0 = counters () and mc0 = minor_collections () in
  let phase, scan_phase, attempted, failed = measure_both st ~seconds in
  let mc = minor_collections () - mc0 and c1 = counters () in
  (* 3. inner layers, timed on a key sample against the final tree *)
  let keys = sample_keys ~seed 65_536 in
  let n = Array.length keys in
  let root () = st.tree.F.inner.Fptree.Inner.root in
  let leaves = Array.map (fun k -> Fptree.Inner.find_leaf Int.compare (root ()) k) keys in
  let fps = Array.map Fptree.Keys.Fixed.fingerprint keys in
  let region = Pmem.Palloc.region st.alloc in
  let inner =
    inner_layers ~n
      ~descend:(fun i -> Fptree.Inner.find_leaf Int.compare (root ()) keys.(i))
      ~search:(fun i -> F.find_slot st.tree leaves.(i).Fptree.Inner.off keys.(i) fps.(i))
      ~pointers:(next_pointers (Array.map (fun l -> (region, st.tree.F.layout, l)) leaves))
      (List.map
         (fun (k, p) -> (kind_name.(k), (latency p [ k ]).mean_us))
         [ (k_find, phase); (k_insert, phase); (k_update, phase);
           (k_delete, phase); (k_range, scan_phase) ])
  in
  let height = F.height st.tree in
  (* 4. durability: one domain replays writes with crash tracking on,
     then the region loses power and restarts *)
  Scm.Config.set_crash_tracking true;
  let bad_dur, acked = replay st durability_ops no_lat in
  Scm.Region.crash region;
  Scm.Config.set_crash_tracking false;
  let fsck_errors, fsck_notes = fsck [ region ] in
  let recovery =
    recovery_metrics [ region ] (fun a ->
        let t = recover_tree a in
        fun () -> F.leaf_count t)
  in
  st.alloc <- Pmem.Palloc.of_region region;
  st.tree <- recover_tree st.alloc;
  let lost = mismatches st.tree st (Array.init universe (fun i -> i + 1)) in
  let failed = failed + bad_ct + bad_dur in
  { samples = [];
    metrics =
      [ ("throughput_ops_s", throughput phase) ]
      @ inner
      @ tree_metrics [ ts ] ~ops:ct_ops
      @ [ ("fptree.height", float_of_int height) ]
      @ counter_metrics c0 c1 ~ops:attempted
      @ count_metrics counts ~ops:ct_ops ~writes:ct_writes
      @ recovery
      @ gc_metrics ~ops:attempted ~mc
      @ [ ("durability.acked_writes", float_of_int acked);
          ("durability.lost_acked_writes", float_of_int lost);
          ("durability.fsck_errors", float_of_int fsck_errors) ];
    attempted = attempted + ct_ops + (durability_ops * domains);
    failed;
    correct = failed = 0 && lost = 0 && fsck_errors = 0;
    notes =
      [ count_line "count_trace" counts ~ops:ct_ops; tree_line [ ts ] ]
      @ List.rev !failures @ fsck_notes }
