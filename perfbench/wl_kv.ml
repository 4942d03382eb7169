(* kv-zipf-read: [Kvstore.Cache] over a concurrent [Fptree.Var].

   1M 16-byte keys are preloaded with 32-byte values, then two domains
   issue 95% GET / 5% SET over Zipf(0.99) keys.  Every value starts with
   its key, so each GET is checked against the key it asked for. *)

open Common
module V = Fptree.Var
module Cache = Kvstore.Cache
module Tree_ops = Kvstore.Tree_ops

let n_keys = 1_000_000
let arena_bytes = 320 * 1024 * 1024
let key_len = 16

(* [x] as 16 lowercase hex digits into [b] at [pos]. *)
let hex16 b pos x =
  for i = 0 to 15 do
    Bytes.unsafe_set b (pos + i) "0123456789abcdef".[(x lsr (4 * (15 - i))) land 15]
  done

(* Distinct 16-hex-digit keys: an odd multiplier is a bijection modulo
   2^62, so distinct [i] give distinct keys for any seed. *)
let key ~seed i =
  let b = Bytes.create key_len in
  hex16 b 0 ((((i + 1) * 0x2545F4914F6CDD1D) + (seed * 0x9E3779B9)) land max_int);
  Bytes.unsafe_to_string b

(* A value is its key followed by a 16-hex-digit tag. *)
let value key tag =
  let b = Bytes.create (2 * key_len) in
  Bytes.blit_string key 0 b 0 key_len;
  hex16 b key_len tag;
  Bytes.unsafe_to_string b

type t = {
  mutable tree : V.t;
  mutable alloc : Pmem.Palloc.t;
  cache : Cache.t;
  keys : string array;
  streams : int array array;        (* per domain: (key index lsl 1) lor is_set *)
  set_values : string array array;  (* per domain: the SET payloads, in order *)
  cursor : int array;
  set_cursor : int array;
}

let gen_stream ~seed ~len rank_to_key d =
  let z = Workloads.Zipf.create ~theta:0.99 ~n:n_keys ~seed:((seed * 7919) + d) () in
  let rng = Random.State.make [| seed; 41; d |] in
  Array.init len (fun _ ->
      let k = rank_to_key.(Workloads.Zipf.next z) in
      (k lsl 1) lor (if Random.State.int rng 100 < 5 then 1 else 0))

(* [wrap] lets the traced run interpose spans on the index handle. *)
let setup ?(wrap = Fun.id) ~seed ~seconds () =
  let keys = Array.init n_keys (key ~seed) in
  let rank_to_key = permutation (Random.State.make [| seed; 7 |]) n_keys in
  let len = stream_len seconds in
  let streams = Array.init domains (gen_stream ~seed ~len rank_to_key) in
  let set_values =
    Array.mapi
      (fun d s ->
        let v = Vec.create () in
        Array.iteri (fun i op -> if op land 1 = 1 then Vec.push v i) s;
        Array.map (fun i -> value keys.(s.(i) lsr 1) ((d lsl 40) lor (i + 1))) (Vec.to_array v))
      streams
  in
  let order = permutation (Random.State.make [| seed; 11 |]) n_keys in
  let preload = Array.map (fun i -> value keys.(i) 0) order in
  let (alloc, tree, cache), setup_s =
    timed_clean (fun () ->
        let alloc = Pmem.Palloc.create ~size:arena_bytes () in
        let tree = V.create_concurrent alloc in
        let cache = Cache.create (wrap (Tree_ops.of_fptree_concurrent tree)) in
        Array.iteri (fun j i -> Cache.set_exn cache keys.(i) preload.(j)) order;
        (alloc, tree, cache))
  in
  ( { tree; alloc; cache; keys; streams; set_values;
      cursor = Array.make domains 0; set_cursor = Array.make domains 0 },
    setup_s )

let get_ok key = function
  | Some v -> String.length v = 2 * key_len && String.starts_with ~prefix:key v
  | None -> false

(* One op of domain [d]: [lat is_set t0 t1] gets the cache call's
   start and end. *)
let run_op st d lat =
  let s = st.streams.(d) in
  let op = s.(st.cursor.(d) mod Array.length s) in
  st.cursor.(d) <- st.cursor.(d) + 1;
  let key = st.keys.(op lsr 1) in
  match
    if op land 1 = 0 then begin
      let t0 = now_ns () in
      let r = Cache.get st.cache key in
      lat 0 t0 (now_ns ());
      get_ok key r
    end
    else begin
      let vs = st.set_values.(d) in
      let v = vs.(st.set_cursor.(d) mod Array.length vs) in
      st.set_cursor.(d) <- st.set_cursor.(d) + 1;
      let t0 = now_ns () in
      let r = Cache.set st.cache key v in
      lat 1 t0 (now_ns ());
      r = Ok ()
    end
  with
  | ok -> ok
  | exception _ -> false

let no_lat _ _ _ = ()

let replay st n =
  let bad = ref 0 and sets = ref 0 in
  for _ = 1 to n do
    for d = 0 to domains - 1 do
      let s = st.streams.(d) in
      if s.(st.cursor.(d) mod Array.length s) land 1 = 1 then incr sets;
      if not (run_op st d no_lat) then incr bad
    done
  done;
  (!bad, !sets)

let measure ?(spans = false) st ~seconds =
  let attempted = Array.make domains 0 and failed = Array.make domains 0 in
  let phase =
    closed_loop ~seconds ~classes:2 (fun d ~deadline r ->
        with_minor_words d (fun () ->
            let lat c t0 t1 =
              Rec.record r c t0 t1;
              if spans then Spans.add (if c = 0 then Spans.kv_get else Spans.kv_set) (t1 - t0)
            in
            let n = ref 0 and bad = ref 0 in
            while !n land 63 <> 0 || now_ns () < deadline do
              if not (run_op st d lat) then incr bad;
              incr n
            done;
            attempted.(d) <- !n;
            failed.(d) <- !bad))
  in
  (phase, Array.fold_left ( + ) 0 attempted, Array.fold_left ( + ) 0 failed)

let recover_tree alloc = V.recover ~config:V.var_concurrent_config alloc

(* After a restart the DRAM item store is still this process's: every
   recovered key must map to an item that starts with it. *)
let recovered_bad st keys =
  let items = Atomic.get st.cache.Cache.items in
  Array.fold_left
    (fun bad i ->
      let k = st.keys.(i) in
      match V.find st.tree k with
      | Some id when id < Array.length items && get_ok k (Some items.(id)) -> bad
      | _ -> bad + 1)
    0 keys

let sample ~seed n =
  let rng = Random.State.make [| seed; 43 |] in
  Array.init n (fun _ -> Random.State.int rng n_keys)

let e2e ~seed ~seconds =
  let st, setup_s = setup ~seed ~seconds () in
  let phase, attempted, failed = measure st ~seconds in
  let read = latency phase [ 0 ] and write = latency phase [ 1 ] in
  let all = latency phase [ 0; 1 ] in
  let count = V.count st.tree in
  let fp =
    [ ("scm_bytes_per_key", ratio (V.scm_bytes st.tree) count);
      ("dram_bytes_per_key", ratio (V.dram_bytes st.tree) count) ]
  in
  let heap_mb = heap_mb () in
  let region = Pmem.Palloc.region st.alloc in
  let restart () =
    let (alloc, tree), secs =
      timed_clean (fun () ->
          let a = Pmem.Palloc.of_region region in
          (a, recover_tree a))
    in
    st.alloc <- alloc;
    st.tree <- tree;
    secs
  in
  let restarts = List.init 5 (fun _ -> restart ()) in
  let bad = recovered_bad st (sample ~seed 100_000) in
  let count_ok = count = n_keys && V.count st.tree = n_keys in
  { samples = [ ("recovery_s", restarts) ];
    metrics =
      [ ("setup_s", setup_s);
        ("throughput_ops_s", throughput phase);
        ("read_p50_us", read.p50_us); ("read_p99_us", read.p99_us);
        ("read_n", float_of_int read.n);
        ("write_p50_us", write.p50_us); ("write_p99_us", write.p99_us);
        ("write_n", float_of_int write.n);
        ("op_p50_us", all.p50_us); ("op_p99_us", all.p99_us);
        ("op_n", float_of_int all.n);
        ("recovery_s", median restarts) ]
      @ fp
      @ [ ("heap_mb", heap_mb) ];
    attempted; failed;
    correct = failed = 0 && bad = 0 && count_ok;
    notes =
      (if count_ok then [] else [ "key count differs after preload or recovery" ])
      @ if bad = 0 then [] else [ Printf.sprintf "%d keys wrong after recovery" bad ] }

let base ~seed ~seconds =
  let st, _ = setup ~seed ~seconds () in
  let phase, attempted, failed = measure st ~seconds in
  { samples = [];
    metrics = [ ("throughput_ops_s", throughput phase) ];
    attempted; failed; correct = failed = 0; notes = [] }

(* The index handle with every call the cache makes into the tree
   timed as an fptree span; insert legs that found the key (the SET
   then falls back to update) are counted. *)
let traced_ops (o : Tree_ops.t) =
  { o with
    Tree_ops.insert =
      (fun k v ->
        let t0 = now_ns () in
        let r = o.Tree_ops.insert k v in
        Spans.add Spans.fp_insert (now_ns () - t0);
        if r = Ok false then Spans.count Spans.set_retry;
        r);
    update = (fun k v -> Spans.wrap2 Spans.fp_update o.Tree_ops.update k v);
    find = (fun k -> Spans.wrap1 Spans.fp_find o.Tree_ops.find k);
    delete = (fun k -> Spans.wrap1 Spans.fp_delete o.Tree_ops.delete k) }

let count_trace_ops = 25_000 (* per domain *)

let traced ~seed ~seconds =
  let st, _ = setup ~wrap:traced_ops ~seed ~seconds () in
  V.reset_stats st.tree;
  let (bad_ct, ct_sets), counts = instrumented (fun () -> replay st count_trace_ops) in
  let ct_ops = count_trace_ops * domains in
  let ts = V.stats st.tree in
  Spans.reset ();
  let h0 = Cache.hits st.cache and m0 = Cache.misses st.cache in
  let c0 = counters () and mc0 = minor_collections () in
  let phase, attempted, failed = measure ~spans:true st ~seconds in
  let mc = minor_collections () - mc0 and c1 = counters () in
  let hits = Cache.hits st.cache - h0 and misses = Cache.misses st.cache - m0 in
  let cache_ops = Spans.calls Spans.kv_get + Spans.calls Spans.kv_set in
  let self_ns =
    Spans.total_ns Spans.kv_get + Spans.total_ns Spans.kv_set
    - Spans.total_ns Spans.fp_find - Spans.total_ns Spans.fp_insert
    - Spans.total_ns Spans.fp_update - Spans.total_ns Spans.fp_delete
  in
  (* inner layers on a sample of the workload's own GET keys *)
  let s0 = st.streams.(0) in
  let keys =
    Array.init 65_536 (fun i -> st.keys.(s0.(i mod Array.length s0) lsr 1))
  in
  let n = Array.length keys in
  let root () = st.tree.V.inner.Fptree.Inner.root in
  let leaves = Array.map (fun k -> Fptree.Inner.find_leaf String.compare (root ()) k) keys in
  let fps = Array.map Fptree.Keys.Var.fingerprint keys in
  let region = Pmem.Palloc.region st.alloc in
  let key_pointer i =
    let off = leaves.(i).Fptree.Inner.off in
    Pmem.Pptr.read region (V.key_cell st.tree off (V.find_slot st.tree off keys.(i) fps.(i)))
  in
  let inner =
    inner_layers ~n
      ~descend:(fun i -> Fptree.Inner.find_leaf String.compare (root ()) keys.(i))
      ~search:(fun i -> V.find_slot st.tree leaves.(i).Fptree.Inner.off keys.(i) fps.(i))
      ~pointers:(Array.init n key_pointer)
      [ ("find", Spans.mean_us Spans.fp_find); ("insert", Spans.mean_us Spans.fp_insert);
        ("update", Spans.mean_us Spans.fp_update); ("delete", Spans.mean_us Spans.fp_delete);
        ("range", 0.) ]
  in
  let height = V.height st.tree in
  let fsck_errors, fsck_notes = fsck [ region ] in
  let recovery =
    recovery_metrics [ region ] (fun a ->
        let t = recover_tree a in
        fun () -> V.leaf_count t)
  in
  let failed = failed + bad_ct in
  { samples = [];
    metrics =
      [ ("throughput_ops_s", throughput phase);
        ("kvstore.self_us",
         if cache_ops = 0 then 0. else float_of_int self_ns /. float_of_int cache_ops /. 1e3);
        ("kvstore.set_retry_ratio", ratio (Spans.calls Spans.set_retry) (Spans.calls Spans.kv_set));
        ("kvstore.hit_rate", ratio hits (hits + misses)) ]
      @ inner
      @ tree_metrics [ ts ] ~ops:ct_ops
      @ [ ("fptree.height", float_of_int height) ]
      @ counter_metrics c0 c1 ~ops:attempted
      @ count_metrics counts ~ops:ct_ops ~writes:ct_sets
      @ recovery
      @ gc_metrics ~ops:attempted ~mc
      @ [ ("durability.fsck_errors", float_of_int fsck_errors) ];
    attempted = attempted + ct_ops;
    failed;
    correct = failed = 0 && fsck_errors = 0;
    notes = [ count_line "count_trace" counts ~ops:ct_ops; tree_line [ ts ] ] @ fsck_notes }
