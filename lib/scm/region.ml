(** A simulated persistent-memory region.

    A region is a contiguous byte-addressable span of SCM, the analogue
    of one mmap-ed PMFS/DAX file of the paper's platform.  Reads and
    writes go through accessors that

    - simulate a direct-mapped CPU cache to count SCM line misses
      (the input of the latency model),
    - track dirty (written-but-unflushed) 8-byte words so that a
      simulated crash can revert exactly the data that a real power
      failure would lose.

    The volatile view (what the program reads back) and the persistent
    image (what survives [crash]) therefore differ until [persist] is
    called — which is precisely the programming hazard the FPTree's
    algorithms are built around.

    {b Fast mode.}  When [stats], [crash_tracking], [delay_injection]
    and [tracing] are all off — the configuration of the paper's
    throughput experiments — every accessor takes a specialized fast
    path: one span validation, then an unchecked [Bytes] access; no
    per-line simulated-cache probe and no per-word dirty-tracking
    hashtable traffic.  The choice is one load of the global
    [Config.switches.fast] flag, which the [Config] setters keep.  The
    instrumented path is the verbatim seed implementation, so
    counter-producing runs are unaffected. *)

type t = {
  id : int;
  buf : Bytes.t;
  size : int;
  (* Direct-mapped simulated cache: cache_tags.(line mod n) = line. *)
  cache_tags : int array;
  (* word index -> persisted value, for words written since last flush. *)
  dirty : (int, int64) Hashtbl.t;
  (* Spatial wear heatmap: shadow write counts (and the component
     bitmask of who wrote) per cache line, recorded in the instrumented
     flush loop when [Config.current.wear_heatmap] is on.  Allocated
     lazily on first recorded line ([size/64] words each, [[||]] until
     then).  Plain arrays written without synchronization: concurrent
     domains may lose individual increments, which is acceptable for a
     spatial profile — exact counts belong to the attribution matrix,
     not the heatmap. *)
  mutable heat_counts : int array;
  mutable heat_comps : int array;
}

let cache_slots = 8192 (* 8192 x 64B = 512 KiB simulated cache *)

let make ~id ~size =
  if size <= 0 || size mod Cacheline.line_size <> 0 then
    invalid_arg "Region.make: size must be a positive multiple of 64";
  {
    id;
    buf = Bytes.make size '\000';
    size;
    cache_tags = Array.make cache_slots (-1);
    dirty = Hashtbl.create 1024;
    heat_counts = [||];
    heat_comps = [||];
  }

let id t = t.id
let size t = t.size

let check t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Region: out-of-bounds access off=%d len=%d size=%d"
         off len t.size)

(** [true] when the fast path applies.  A global fact: [t] is unused. *)
let[@inline] fast_mode (_ : t) = Config.switches.fast

(* ---- unchecked byte-buffer primitives (fast path only; every use is
   preceded by a span validation via [check]) ---- *)

external unsafe_get_16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_16_le b off =
  if Sys.big_endian then swap16 (unsafe_get_16 b off) else unsafe_get_16 b off

let[@inline] get_32_le b off =
  if Sys.big_endian then swap32 (unsafe_get_32 b off) else unsafe_get_32 b off

let[@inline] get_64_le b off =
  if Sys.big_endian then swap64 (unsafe_get_64 b off) else unsafe_get_64 b off

let[@inline] set_16_le b off v =
  if Sys.big_endian then unsafe_set_16 b off (swap16 v) else unsafe_set_16 b off v

let[@inline] set_32_le b off v =
  if Sys.big_endian then unsafe_set_32 b off (swap32 v) else unsafe_set_32 b off v

let[@inline] set_64_le b off v =
  if Sys.big_endian then unsafe_set_64 b off (swap64 v) else unsafe_set_64 b off v

(* ---- simulated cache ---- *)

let touch_lines t off len =
  if Config.switches.stats then begin
    let first = Cacheline.line_of_offset off in
    let last = Cacheline.line_of_offset (off + len - 1) in
    for line = first to last do
      let slot = line mod cache_slots in
      if t.cache_tags.(slot) <> line then begin
        t.cache_tags.(slot) <- line;
        Stats.incr_line_reads ();
        Latency.on_scm_read_miss ()
      end
    done
  end

(* ---- dirty-word tracking ---- *)

let word_value t w = Bytes.get_int64_le t.buf (w * Cacheline.word_size)

let mark_dirty t off len =
  if Config.switches.crash_tracking then begin
    let first = Cacheline.word_of_offset off in
    let last = Cacheline.word_of_offset (off + len - 1) in
    for w = first to last do
      if not (Hashtbl.mem t.dirty w) then
        Hashtbl.add t.dirty w (word_value t w)
    done
  end

let dirty_word_count t = Hashtbl.length t.dirty

(* ---- torn-write injection (instrumented path only) ---- *)

(* Execute the armed tearable store as a torn store: run the full
   store, restore the unwritten suffix bytes (they never left the store
   buffer), make the written prefix durable — the cache line was
   evicted mid-store, so for every word the prefix overlaps the crash
   pre-image becomes the current (torn) value — then crash.  [mark_dirty]
   has already run for the span, so every affected word has a recorded
   pre-image to overwrite. *)
let tear_and_crash t off len do_store =
  let pre = Bytes.sub t.buf off len in
  do_store ();
  let cut =
    1 + (Hashtbl.hash (Config.current.torn_seed, off, len) mod (len - 1))
  in
  Bytes.blit pre cut t.buf (off + cut) (len - cut);
  if Config.switches.crash_tracking then begin
    let first = Cacheline.word_of_offset off in
    let last = Cacheline.word_of_offset (off + cut - 1) in
    for w = first to last do
      Hashtbl.replace t.dirty w (word_value t w)
    done
  end;
  raise Config.Crash_injected

(* ---- media-fault injection ---- *)

(** Flip [bits] seeded pseudo-random bits in the committed image of
    [off, off+len): both the volatile view and the persistent image
    change, and the affected words are no longer dirty — the fault
    lives in the medium, not the cache.  Fault injection for the
    checksum/quarantine and fsck tests. *)
let corrupt t ~off ~len ~bits ~seed =
  check t off len;
  if len <= 0 || bits <= 0 then
    invalid_arg "Region.corrupt: empty span or no bits";
  let rng = Random.State.make [| seed; t.id; off; len |] in
  for _ = 1 to bits do
    let b = off + Random.State.int rng len in
    let v = Char.code (Bytes.get t.buf b) lxor (1 lsl Random.State.int rng 8) in
    Bytes.set t.buf b (Char.chr v)
  done;
  let first = Cacheline.word_of_offset off in
  let last = Cacheline.word_of_offset (off + len - 1) in
  for w = first to last do
    Hashtbl.remove t.dirty w
  done

(* ---- pmcheck trace hooks (slow path only: tracing forces it) ---- *)

let[@inline] tracing () = Config.switches.tracing

(* [silent] must be computed against the pre-store bytes; each write
   path below evaluates it before mutating the buffer. *)
let trace_store t off len silent =
  if tracing () then Pmtrace.store ~region:t.id ~off ~len ~silent

(* ---- reads ---- *)

let read_u8 t off =
  if fast_mode t then begin
    check t off 1;
    Char.code (Bytes.unsafe_get t.buf off)
  end
  else begin
    check t off 1;
    touch_lines t off 1;
    Char.code (Bytes.get t.buf off)
  end

let read_u16 t off =
  if fast_mode t then begin
    check t off 2;
    get_16_le t.buf off
  end
  else begin
    check t off 2;
    touch_lines t off 2;
    Bytes.get_uint16_le t.buf off
  end

let read_int32 t off =
  if fast_mode t then begin
    check t off 4;
    get_32_le t.buf off
  end
  else begin
    check t off 4;
    touch_lines t off 4;
    Bytes.get_int32_le t.buf off
  end

let read_int64 t off =
  if fast_mode t then begin
    check t off 8;
    get_64_le t.buf off
  end
  else begin
    check t off 8;
    touch_lines t off 8;
    Bytes.get_int64_le t.buf off
  end

(** 64-bit little-endian load returned as a tagged OCaml [int] (the top
    bit is truncated, exactly like [Int64.to_int (read_int64 t off)]).
    The hot-path accessor of the tree: no [int64] boxing. *)
let read_word t off =
  if fast_mode t then begin
    check t off 8;
    Int64.to_int (get_64_le t.buf off)
  end
  else begin
    check t off 8;
    touch_lines t off 8;
    Int64.to_int (Bytes.get_int64_le t.buf off)
  end

(** 32-bit little-endian load as an unsigned tagged [int] in
    [0, 2^32): the SWAR fingerprint scan reads half-words so that no
    lane is lost to the 63-bit [int] truncation. *)
let read_u32 t off =
  if fast_mode t then begin
    check t off 4;
    Int32.to_int (get_32_le t.buf off) land 0xFFFFFFFF
  end
  else begin
    check t off 4;
    touch_lines t off 4;
    Int32.to_int (Bytes.get_int32_le t.buf off) land 0xFFFFFFFF
  end

let read_string t off len =
  if fast_mode t then begin
    check t off len;
    Bytes.sub_string t.buf off len
  end
  else begin
    check t off len;
    touch_lines t off len;
    Bytes.sub_string t.buf off len
  end

let blit_to_bytes t off dst dst_off len =
  if fast_mode t then begin
    check t off len;
    if dst_off < 0 || dst_off + len > Bytes.length dst then
      invalid_arg "Region.blit_to_bytes: destination out of bounds";
    Bytes.unsafe_blit t.buf off dst dst_off len
  end
  else begin
    check t off len;
    touch_lines t off len;
    Bytes.blit t.buf off dst dst_off len
  end

(* ---- in-place comparison ---- *)

(* [a.[ao, ao+al)] against [b.[bo, bo+bl)] in [String.compare]'s order
   (unsigned bytes, then length), without copying either side: equal
   8-byte words are skipped whole, the first differing word is settled
   byte by byte.  The [int64] equality is specialized by the compiler
   to an unboxed compare, so nothing is allocated. *)
let rec cmp_words a ao b bo n i =
  if i + 8 <= n
     && (unsafe_get_64 a (ao + i) : int64) = unsafe_get_64 b (bo + i)
  then cmp_words a ao b bo n (i + 8)
  else cmp_tail a ao b bo n i

and cmp_tail a ao b bo n i =
  if i >= n then 0
  else
    let c =
      Int.compare
        (Char.code (Bytes.unsafe_get a (ao + i)))
        (Char.code (Bytes.unsafe_get b (bo + i)))
    in
    if c <> 0 then c else cmp_tail a ao b bo n (i + 1)

let[@inline] cmp_bytes a ao al b bo bl =
  let c = cmp_words a ao b bo (min al bl) 0 in
  if c <> 0 then c else Int.compare al bl

let compare_span t off1 len1 off2 len2 =
  check t off1 len1;
  check t off2 len2;
  if not (fast_mode t) then begin
    touch_lines t off1 len1;
    touch_lines t off2 len2
  end;
  cmp_bytes t.buf off1 len1 t.buf off2 len2

let compare_string t off len s =
  check t off len;
  if not (fast_mode t) then touch_lines t off len;
  cmp_bytes t.buf off len (Bytes.unsafe_of_string s) 0 (String.length s)

(* ---- parallel-safety ---- *)

let parallel_safe t =
  fast_mode t
  && (not Config.switches.model_check)
  && not (Config.injector_armed ())

(* ---- writes (land in the volatile cache; durable only after persist) ---- *)

(* Payload-byte accounting for the wear report's write-amplification
   ratio: every instrumented store charges its span, including stores
   that go on to tear (the torn prefix reached the medium).  Counted
   before the store so the byte total is independent of injector
   state. *)
let[@inline] count_store_bytes len =
  if Config.switches.stats then Stats.add_store_bytes len

let write_u8 t off v =
  if fast_mode t then begin
    check t off 1;
    Bytes.unsafe_set t.buf off (Char.chr (v land 0xff))
  end
  else begin
    check t off 1;
    touch_lines t off 1;
    mark_dirty t off 1;
    count_store_bytes 1;
    let c = Char.chr (v land 0xff) in
    let silent = tracing () && Bytes.get t.buf off = c in
    Bytes.set t.buf off c;
    trace_store t off 1 silent
  end

let write_u16 t off v =
  if fast_mode t then begin
    check t off 2;
    set_16_le t.buf off v
  end
  else begin
    check t off 2;
    touch_lines t off 2;
    mark_dirty t off 2;
    count_store_bytes 2;
    if Config.torn_fires () then
      tear_and_crash t off 2 (fun () -> Bytes.set_uint16_le t.buf off v)
    else begin
      let silent =
        tracing () && Bytes.get_uint16_le t.buf off = v land 0xffff
      in
      Bytes.set_uint16_le t.buf off v;
      trace_store t off 2 silent
    end
  end

let write_int32 t off v =
  if fast_mode t then begin
    check t off 4;
    set_32_le t.buf off v
  end
  else begin
    check t off 4;
    touch_lines t off 4;
    mark_dirty t off 4;
    count_store_bytes 4;
    if Config.torn_fires () then
      tear_and_crash t off 4 (fun () -> Bytes.set_int32_le t.buf off v)
    else begin
      let silent = tracing () && Bytes.get_int32_le t.buf off = v in
      Bytes.set_int32_le t.buf off v;
      trace_store t off 4 silent
    end
  end

(* The instrumented 8-byte store; [tearable] is [false] only for the
   p-atomic variants below, which the torn-write injector must skip
   (and not count). *)
let write_int64_instr ~tearable t off v =
  check t off 8;
  touch_lines t off 8;
  mark_dirty t off 8;
  count_store_bytes 8;
  if tearable && Config.torn_fires () then
    tear_and_crash t off 8 (fun () -> Bytes.set_int64_le t.buf off v)
  else begin
    let silent = tracing () && Bytes.get_int64_le t.buf off = v in
    Bytes.set_int64_le t.buf off v;
    trace_store t off 8 silent
  end

let write_int64 t off v =
  if fast_mode t then begin
    check t off 8;
    set_64_le t.buf off v
  end
  else write_int64_instr ~tearable:true t off v

(** Store a tagged [int] as a 64-bit little-endian word
    (sign-extended, the exact inverse of {!read_word}); no boxing. *)
let write_word t off v =
  if fast_mode t then begin
    check t off 8;
    set_64_le t.buf off (Int64.of_int v)
  end
  else write_int64_instr ~tearable:true t off (Int64.of_int v)

(** A p-atomic 8-byte store: must be word-aligned, so that it can never
    tear across a crash (Section 2, "Partial writes").  Exempt from the
    torn-write injector for the same reason. *)
let write_int64_atomic t off v =
  if not (Cacheline.is_word_aligned off) then
    invalid_arg "Region.write_int64_atomic: offset not 8-byte aligned";
  if fast_mode t then begin
    check t off 8;
    set_64_le t.buf off v
  end
  else write_int64_instr ~tearable:false t off v

let write_word_atomic t off v =
  if not (Cacheline.is_word_aligned off) then
    invalid_arg "Region.write_int64_atomic: offset not 8-byte aligned";
  if fast_mode t then begin
    check t off 8;
    set_64_le t.buf off (Int64.of_int v)
  end
  else write_int64_instr ~tearable:false t off (Int64.of_int v)

let write_string t off s =
  let len = String.length s in
  check t off len;
  if len > 0 then
    if fast_mode t then Bytes.blit_string s 0 t.buf off len
    else begin
      touch_lines t off len;
      mark_dirty t off len;
      count_store_bytes len;
      if len > 1 && Config.torn_fires () then
        tear_and_crash t off len (fun () -> Bytes.blit_string s 0 t.buf off len)
      else begin
        let silent = tracing () && Bytes.sub_string t.buf off len = s in
        Bytes.blit_string s 0 t.buf off len;
        trace_store t off len silent
      end
    end

let write_bytes t off b =
  let len = Bytes.length b in
  check t off len;
  if len > 0 then
    if fast_mode t then Bytes.blit b 0 t.buf off len
    else begin
      touch_lines t off len;
      mark_dirty t off len;
      count_store_bytes len;
      if len > 1 && Config.torn_fires () then
        tear_and_crash t off len (fun () -> Bytes.blit b 0 t.buf off len)
      else begin
        let silent =
          tracing ()
          && Bytes.sub_string t.buf off len = Bytes.sub_string b 0 len
        in
        Bytes.blit b 0 t.buf off len;
        trace_store t off len silent
      end
    end

let blit_internal t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len > 0 then
    if fast_mode t then Bytes.unsafe_blit t.buf src t.buf dst len
    else begin
      touch_lines t src len;
      touch_lines t dst len;
      mark_dirty t dst len;
      count_store_bytes len;
      if len > 1 && Config.torn_fires () then
        tear_and_crash t dst len (fun () -> Bytes.blit t.buf src t.buf dst len)
      else begin
        let silent =
          tracing ()
          && Bytes.sub_string t.buf dst len = Bytes.sub_string t.buf src len
        in
        Bytes.blit t.buf src t.buf dst len;
        trace_store t dst len silent
      end
    end

let fill t off len c =
  check t off len;
  if len > 0 then
    if fast_mode t then Bytes.fill t.buf off len c
    else begin
      touch_lines t off len;
      mark_dirty t off len;
      count_store_bytes len;
      if len > 1 && Config.torn_fires () then
        tear_and_crash t off len (fun () -> Bytes.fill t.buf off len c)
      else begin
        let silent =
          tracing ()
          && Bytes.sub_string t.buf off len = String.make len c
        in
        Bytes.fill t.buf off len c;
        trace_store t off len silent
      end
    end

(* ---- spatial wear heatmap (instrumented flush loop only) ---- *)

let heat_lines t = t.size / Cacheline.line_size

let[@inline never] heat_alloc t =
  t.heat_counts <- Array.make (heat_lines t) 0;
  t.heat_comps <- Array.make (heat_lines t) 0

(* Count a flushed line: bump its shadow count and record the ambient
   component in the line's bitmask. *)
let[@inline] record_heat t line =
  if Array.length t.heat_counts = 0 then heat_alloc t;
  Array.unsafe_set t.heat_counts line (Array.unsafe_get t.heat_counts line + 1);
  Array.unsafe_set t.heat_comps line
    (Array.unsafe_get t.heat_comps line
    lor (1 lsl Obs.Attrib.ambient_component ()))

(** The recorded heatmap as [(counts, component_masks)] per line, or
    [None] if nothing was recorded.  The arrays are the live backing
    store — copy before mutating. *)
let heatmap t =
  if Array.length t.heat_counts = 0 then None
  else Some (t.heat_counts, t.heat_comps)

let clear_heatmap t =
  if Array.length t.heat_counts > 0 then begin
    Array.fill t.heat_counts 0 (Array.length t.heat_counts) 0;
    Array.fill t.heat_comps 0 (Array.length t.heat_comps) 0
  end

(* ---- persistence primitives ---- *)

let fence t =
  if Config.switches.stats then Stats.incr_fences ();
  if tracing () then Pmtrace.fence ~region:t.id

(** Flush the cache lines overlapping [off, off+len) and fence: the
    Persist() primitive of Section 2 (CLFLUSH wrapped in MFENCEs).  If a
    crash is scheduled at this persistence point, {!Config.Crash_injected}
    is raised and nothing reaches the persistence domain.  A persist
    dropped by {!Config.schedule_persist_skip} returns before any effect
    (including crash-point accounting and trace recording) — the
    injected "forgotten Persist()" the pmcheck analyzer must catch. *)
let persist_effective t off len =
  Config.on_persist ();
  if fast_mode t then begin
    (* No stats, no delay injection, no dirty words to retire.  The
       simulated cache is still invalidated so that a later
       instrumented phase starts from the same cache image the
       instrumented path would have produced. *)
    if len > 0 then begin
      let first = Cacheline.line_of_offset off in
      let last = Cacheline.line_of_offset (off + len - 1) in
      for line = first to last do
        let slot = line mod cache_slots in
        if Array.unsafe_get t.cache_tags slot = line then
          Array.unsafe_set t.cache_tags slot (-1)
      done
    end
  end
  else begin
    if Config.switches.stats then begin
      Stats.incr_persists ();
      Stats.incr_fences ()
    end;
    if len > 0 then begin
      let first = Cacheline.line_of_offset off in
      let last = Cacheline.line_of_offset (off + len - 1) in
      for line = first to last do
        if Config.switches.stats then begin
          Stats.incr_flushes ();
          Stats.incr_line_writes ();
          if Config.current.wear_heatmap then record_heat t line
        end;
        Latency.on_scm_write_back ();
        (* CLFLUSH evicts the line from the simulated cache. *)
        let slot = line mod cache_slots in
        if t.cache_tags.(slot) = line then t.cache_tags.(slot) <- -1;
        if Config.switches.crash_tracking then
          (* Every word of the line is now durable. *)
          for w = line * Cacheline.words_per_line
              to (line + 1) * Cacheline.words_per_line - 1 do
            Hashtbl.remove t.dirty w
          done
      done
    end;
    if tracing () && len > 0 then Pmtrace.flush ~region:t.id ~off ~len
  end

let persist t off len =
  check t off (max len 0);
  if not (Config.persist_skipped ()) then persist_effective t off len

(** Flush the whole region (used by recovery sanity checks and [save]). *)
let persist_all t = persist t 0 t.size

(* ---- crash simulation ---- *)

(** Simulate a power failure: unflushed words lose their volatile value
    according to [mode], then the dirty set is cleared (the "new
    process" starts from the persistent image). *)
let crash ?(mode = Config.Revert_all_dirty) t =
  let revert w old = Bytes.set_int64_le t.buf (w * Cacheline.word_size) old in
  (match mode with
  | Config.Revert_all_dirty -> Hashtbl.iter revert t.dirty
  | Config.Keep_random_subset seed ->
    let rng = Random.State.make [| seed; t.id |] in
    (* Iterate deterministically (sorted) so the seed fully decides
       which words survive. *)
    let ws = Hashtbl.fold (fun w old acc -> (w, old) :: acc) t.dirty [] in
    let ws = List.sort compare ws in
    List.iter (fun (w, old) -> if Random.State.bool rng then revert w old) ws);
  Hashtbl.reset t.dirty;
  Array.fill t.cache_tags 0 cache_slots (-1)

(* ---- durability across processes ---- *)

let magic = "FPTSCM01"

(** Write the persistent image (dirty words reverted) to [path]. *)
let save t path =
  let img = Bytes.copy t.buf in
  Hashtbl.iter
    (fun w old -> Bytes.set_int64_le img (w * Cacheline.word_size) old)
    t.dirty;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc t.id;
      output_binary_int oc t.size;
      output_bytes oc img)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if m <> magic then failwith "Region.load: bad magic";
      let id = input_binary_int ic in
      let size = input_binary_int ic in
      let t = make ~id ~size in
      really_input ic t.buf 0 size;
      t)
