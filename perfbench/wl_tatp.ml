(* tatp-restart: the read-only TATP mix of [Dbproto.Tatp] over FPTree
   indexes (the single-threaded configuration with leaf groups), then a
   restart that recovers the four index trees on two domains.

   After [populate] the database is re-opened from its SCM arenas, the
   state every restart leaves, so the benchmark holds a handle on each
   index tree for its counters and footprint.  Transactions draw their
   parameters inside [run_one] from a per-domain generator seeded from
   the workload seed; each transaction's result is recorded and checked
   afterwards by replaying the same draws against a model of what
   [populate] wrote. *)

open Common
module Tatp = Dbproto.Tatp
module Index = Dbproto.Index
module F = Fptree.Fixed

let subscribers = 200_000

(* ---- model of the populated database ---- *)

(* [populate] draws each subscriber's row counts from a fixed-seed
   generator; replaying the same draws gives the expected answer of
   every transaction. *)
type model = {
  n_ai : Bytes.t;        (* by s_id: access-info rows (types 1..n) *)
  n_sf : Bytes.t;        (* by s_id: special-facility rows *)
  sf_base : int array;   (* by s_id: row of its first special facility *)
  sf_active : Bytes.t;   (* by sf row *)
  n_cf : Bytes.t;        (* by sf row: call forwardings (slots 0..n-1) *)
}

let model () =
  let rng = Random.State.make [| 424242 |] in
  let n_ai = Bytes.make (subscribers + 1) '\000' in
  let n_sf = Bytes.make (subscribers + 1) '\000' in
  let sf_base = Array.make (subscribers + 1) 0 in
  let sf_active = Bytes.make (4 * subscribers) '\000' in
  let n_cf = Bytes.make (4 * subscribers) '\000' in
  let sf_rows = ref 0 in
  for s_id = 1 to subscribers do
    Bytes.set_uint8 n_ai s_id (1 + Random.State.int rng 4);
    let k = 1 + Random.State.int rng 4 in
    Bytes.set_uint8 n_sf s_id k;
    sf_base.(s_id) <- !sf_rows;
    for _ = 1 to k do
      let r = !sf_rows in
      incr sf_rows;
      Bytes.set_uint8 sf_active r (if Random.State.int rng 100 < 85 then 1 else 0);
      Bytes.set_uint8 n_cf r (Random.State.int rng 4)
    done
  done;
  { n_ai; n_sf; sf_base; sf_active; n_cf }

let expect_subscriber s_id =
  Tatp.attr s_id 1 0 + Tatp.attr s_id 2 0 + Tatp.attr s_id 3 0 + Tatp.attr s_id 4 0

let expect_new_destination m s_id sf_type slot =
  if sf_type > Bytes.get_uint8 m.n_sf s_id then 0
  else
    let r = m.sf_base.(s_id) + sf_type - 1 in
    if Bytes.get_uint8 m.sf_active r = 0 || slot >= Bytes.get_uint8 m.n_cf r then 0
    else Tatp.attr s_id 8 slot

let expect_access m s_id ai_type =
  if ai_type > Bytes.get_uint8 m.n_ai s_id then 0
  else Tatp.attr s_id 5 ai_type + Tatp.attr s_id 6 ai_type

(* The expected result of the next transaction [run_one] draws from
   [rng]: the same draws, in the same order and expression shape. *)
let expect m rng =
  let s_id = 1 + Random.State.int rng subscribers in
  let dice = Random.State.int rng 80 in
  if dice < 35 then expect_subscriber s_id
  else if dice < 45 then
    expect_new_destination m s_id (1 + Random.State.int rng 4) (Random.State.int rng 3)
  else expect_access m s_id (1 + Random.State.int rng 4)

(* ---- set-up ---- *)

type t = {
  db : Tatp.db;
  trees : F.t array;  (* sub, ai, sf, cf *)
  model : model;
}

let indexes (db : Tatp.db) =
  [| db.Tatp.sub_index; db.Tatp.ai_index; db.Tatp.sf_index; db.Tatp.cf_index |]

let region_of (i : Index.t) = Pmem.Palloc.region (Option.get i.Index.alloc)

(* [wrap] lets the traced run interpose spans on the index handles. *)
let setup ?(wrap = Fun.id) () =
  let model = model () in
  let db, setup_s = timed_clean (fun () -> Tatp.populate ~subscribers Index.FPTree) in
  let reopened =
    Array.map
      (fun i ->
        let a = Pmem.Palloc.of_region (region_of i) in
        let tr = F.recover a in
        (tr, wrap { (Index.wrap_fptree tr) with Index.alloc = Some a }))
      (indexes db)
  in
  let ix i = snd reopened.(i) in
  let db =
    { db with
      Tatp.sub_index = ix 0; ai_index = ix 1; sf_index = ix 2; cf_index = ix 3 }
  in
  ({ db; trees = Array.map fst reopened; model }, setup_s)

let rng_of ~seed d = Random.State.make [| seed; 31; d |]

(* ---- timed loop ---- *)

let measure ?(spans = false) w ~seed ~seconds =
  let results = Array.init domains (fun _ -> Vec.create ()) in
  let phase =
    closed_loop ~seconds ~classes:1 (fun d ~deadline r ->
        with_minor_words d (fun () ->
            let rng = rng_of ~seed d in
            let res = results.(d) in
            let sink = ref 0 in
            let n = ref 0 in
            while !n land 63 <> 0 || now_ns () < deadline do
              sink := 0;
              let t0 = now_ns () in
              Tatp.run_one w.db rng sink;
              let t1 = now_ns () in
              Rec.record r 0 t0 t1;
              if spans then Spans.add Spans.tx (t1 - t0);
              Vec.push res !sink;
              incr n
            done))
  in
  (* replay each domain's draws against the model *)
  let failed = ref 0 and attempted = ref 0 in
  Array.iteri
    (fun d res ->
      let rng = rng_of ~seed d in
      Array.iter
        (fun got ->
          incr attempted;
          if got <> expect w.model rng then incr failed)
        (Vec.to_array res))
    results;
  (phase, !attempted, !failed)

(* Transactions on a restarted database, one domain, checked inline. *)
let check_db w db ~seed n =
  let rng = Random.State.make [| seed; 37 |] in
  let bad = ref 0 in
  for _ = 1 to n do
    let want = expect w.model (Random.State.copy rng) in
    let sink = ref 0 in
    Tatp.run_one db rng sink;
    if !sink <> want then incr bad
  done;
  !bad

let total_keys w = Array.fold_left (fun a t -> a + F.count t) 0 w.trees

let e2e ~seed ~seconds =
  let w, setup_s = setup () in
  let phase, attempted, failed = measure w ~seed ~seconds in
  let tx = latency phase [ 0 ] in
  let keys = total_keys w in
  let fp =
    [ ("scm_bytes_per_key",
       ratio (Array.fold_left (fun a t -> a + F.scm_bytes t) 0 w.trees) keys);
      ("dram_bytes_per_key",
       ratio (Array.fold_left (fun a t -> a + F.dram_bytes t) 0 w.trees) keys) ]
  in
  let heap_mb = heap_mb () in
  let runs =
    List.init 9 (fun _ ->
        Gc.full_major ();
        Tatp.restart ~workers:domains w.db)
  in
  let db' = fst (List.hd runs) and restarts = List.map snd runs in
  let restart_bad = check_db w db' ~seed 20_000 in
  let recount = Array.fold_left (fun a i -> a + i.Index.count ()) 0 (indexes db') in
  let correct = failed = 0 && restart_bad = 0 && recount = keys in
  { samples = [ ("recovery_s", restarts) ];
    metrics =
      [ ("setup_s", setup_s);
        ("throughput_ops_s", throughput phase);
        ("read_p50_us", tx.p50_us); ("read_p99_us", tx.p99_us);
        ("read_n", float_of_int tx.n);
        ("op_p50_us", tx.p50_us); ("op_p99_us", tx.p99_us);
        ("op_n", float_of_int tx.n);
        ("recovery_s", median restarts) ]
      @ fp
      @ [ ("heap_mb", heap_mb) ];
    attempted = attempted + 20_000;
    failed = failed + restart_bad;
    correct;
    notes =
      (if recount = keys then [] else [ "index key count differs after restart" ]) }

let base ~seed ~seconds =
  let w, _ = setup () in
  let phase, attempted, failed = measure w ~seed ~seconds in
  { samples = [];
    metrics = [ ("throughput_ops_s", throughput phase) ];
    attempted; failed; correct = failed = 0; notes = [] }

(* Index handle whose lookups are timed as fptree find spans. *)
let traced_index (i : Index.t) =
  { i with Index.find = (fun k -> Spans.wrap1 Spans.fp_find i.Index.find k) }

let count_trace_tx = 25_000 (* per domain *)

let traced ~seed ~seconds =
  let w, _ = setup ~wrap:traced_index () in
  (* exact count trace: the first transactions of each domain's
     generator, one domain, counters on *)
  Array.iter F.reset_stats w.trees;
  let bad_ct, counts =
    instrumented (fun () ->
        let rngs = Array.init domains (rng_of ~seed) in
        let bad = ref 0 in
        for _ = 1 to count_trace_tx do
          Array.iter
            (fun rng ->
              let want = expect w.model (Random.State.copy rng) in
              let sink = ref 0 in
              Tatp.run_one w.db rng sink;
              if !sink <> want then incr bad)
            rngs
        done;
        !bad)
  in
  let ct_ops = count_trace_tx * domains in
  let ts = Array.to_list (Array.map F.stats w.trees) in
  Spans.reset ();
  let c0 = counters () and mc0 = minor_collections () in
  let phase, attempted, failed = measure ~spans:true w ~seed ~seconds in
  let mc = minor_collections () - mc0 and c1 = counters () in
  let tx_ns = Spans.total_ns Spans.tx and txs = Spans.calls Spans.tx in
  let index_calls = Spans.calls Spans.fp_find in
  (* inner layers on the lookups of a sample of transactions: the
     subscriber index for s_id, the access-info index for its rows *)
  let rng = rng_of ~seed:(seed + 2_000_003) 0 in
  let probes =
    Array.init 65_536 (fun i ->
        let s_id = 1 + Random.State.int rng subscribers in
        if i land 1 = 0 then (0, s_id)
        else (1, Tatp.ai_key s_id (1 + Random.State.int rng 4)))
  in
  let n = Array.length probes in
  let root t = w.trees.(t).F.inner.Fptree.Inner.root in
  let leaves =
    Array.map (fun (t, k) -> Fptree.Inner.find_leaf Int.compare (root t) k) probes
  in
  let fps = Array.map (fun (_, k) -> Fptree.Keys.Fixed.fingerprint k) probes in
  let inner =
    inner_layers ~n
      ~descend:(fun i ->
        let t, k = probes.(i) in
        Fptree.Inner.find_leaf Int.compare (root t) k)
      ~search:(fun i ->
        let t, k = probes.(i) in
        F.find_slot w.trees.(t) leaves.(i).Fptree.Inner.off k fps.(i))
      ~pointers:
        (next_pointers
           (Array.mapi
              (fun i (t, _) -> (region_of (indexes w.db).(t), w.trees.(t).F.layout, leaves.(i)))
              probes))
      [ ("find", Spans.mean_us Spans.fp_find); ("insert", 0.); ("update", 0.);
        ("delete", 0.); ("range", 0.) ]
  in
  let height = Array.fold_left (fun a t -> max a (F.height t)) 0 w.trees in
  (* restart: per-index [Index.recover] spans, then the recovery
     layers of the four trees *)
  let spans =
    Array.map (fun i -> snd (timed (fun () -> ignore (Index.recover i)))) (indexes w.db)
  in
  let regions = Array.to_list (Array.map region_of (indexes w.db)) in
  let fsck_errors, fsck_notes = fsck regions in
  let recovery =
    recovery_metrics regions (fun a ->
        let t = F.recover a in
        fun () -> F.leaf_count t)
  in
  let failed = failed + bad_ct in
  { samples = [];
    metrics =
      [ ("throughput_ops_s", throughput phase);
        ("dbproto.self_us",
         if txs = 0 then 0.
         else float_of_int (tx_ns - Spans.total_ns Spans.fp_find) /. float_of_int txs /. 1e3);
        ("dbproto.index_calls_per_tx", ratio index_calls txs);
        ("dbproto.restart_index_max_s", Array.fold_left max 0. spans);
        ("dbproto.restart_index_sum_s", Array.fold_left ( +. ) 0. spans) ]
      @ inner
      @ tree_metrics ts ~ops:ct_ops
      @ [ ("fptree.height", float_of_int height) ]
      @ counter_metrics c0 c1 ~ops:attempted
      @ count_metrics counts ~ops:ct_ops ~writes:0
      @ recovery
      @ gc_metrics ~ops:attempted ~mc
      @ [ ("durability.fsck_errors", float_of_int fsck_errors) ];
    attempted = attempted + ct_ops;
    failed;
    correct = failed = 0 && fsck_errors = 0;
    notes = [ count_line "count_trace" counts ~ops:ct_ops; tree_line ts ] @ fsck_notes }
