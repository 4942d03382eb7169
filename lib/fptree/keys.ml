(** Key representations.

    The tree functor is parametric over how a key lives in a leaf cell:

    - {!Fixed}: 63-bit integer keys stored inline in an 8-byte cell
      (the paper's fixed-size 8-byte keys);
    - {!Var}: string keys stored out of line — the cell is a persistent
      pointer to a separately allocated key block, as in Appendix C.

    A var-key block is [length:8][bytes][padding]; deallocating and
    resetting cells follows the leak-detection discipline of
    Algorithm 17. *)

type ctx = {
  region : Scm.Region.t;
  alloc : Pmem.Palloc.t;
}

let max_var_key_len = 4096

module type KEY = sig
  type t

  val kind : int
  (** persisted tag: 0 = fixed, 1 = var *)

  val cell_bytes : int
  val inline : bool
  (** [true] when the key bytes live in the cell itself; the tree then
      persists the cell range together with the value. *)

  val dummy : t
  val compare : t -> t -> int
  val fingerprint : t -> int
  val dram_bytes : t -> int

  val read : ctx -> off:int -> t
  (** Read the key at cell [off] (valid slot, or best-effort for a
      concurrent dirty read — must not raise on garbage). *)

  val write : ctx -> off:int -> t -> unit
  (** Store a fresh key into cell [off].  Var keys allocate their key
      block through the allocator (which persistently publishes the
      cell) and persist the block content; fixed keys just write the
      cell, leaving persistence to the caller. *)

  val matches : ctx -> off:int -> t -> bool
  (** [equal (read ctx ~off) k], compared in place: allocates nothing. *)

  val handle : ctx -> off:int -> int
  (** An allocation-free handle on the key at cell [off] for
      {!compare_handles}: a fixed key is its own handle; a var key's is
      the offset of its key block, or [-1] when the cell reads as the
      empty key.  Taking a handle loads the key's first word, so a pass
      of [handle] over a leaf's slots is a run of independent loads. *)

  val compare_handles : ctx -> int -> int -> int
  (** In-place [compare] of the keys behind two handles: agrees with
      [compare] on the keys {!read} returns for the same cells. *)

  val cell_ref : ctx -> off:int -> Pmem.Pptr.t option
  (** [Some p] for var keys (the pointer in the cell), [None] for
      fixed: drives the leak audit at recovery. *)

  val move : ctx -> src:int -> dst:int -> unit
  (** Copy the cell [src] to [dst] without allocating (update path);
      not persisted — the caller persists the destination range. *)

  val reset_ref : ctx -> off:int -> unit
  (** Persistently null the cell without deallocating (the key is still
      referenced by another cell).  No-op for fixed keys. *)

  val clear_cell : ctx -> off:int -> unit
  (** Null the cell WITHOUT persisting (bulk clearing of stale cells
      after a split; the caller persists the whole range).  A torn null
      still reads as null because validity lives in the region-id word.
      No-op for fixed keys. *)

  val dealloc : ctx -> off:int -> unit
  (** Free the key block via the allocator, which persistently nulls
      the cell.  No-op for fixed keys. *)
end

module Fixed : KEY with type t = int = struct
  type t = int

  let kind = 0
  let cell_bytes = 8
  let inline = true
  let dummy = min_int
  let compare = Int.compare
  let fingerprint = Fingerprint.of_int
  let dram_bytes _ = 8
  let read ctx ~off = Scm.Region.read_word ctx.region off
  let write ctx ~off k = Scm.Region.write_word ctx.region off k
  let matches ctx ~off k = read ctx ~off = k
  let handle = read
  let compare_handles _ a b = Int.compare a b
  let cell_ref _ ~off:_ = None
  let move ctx ~src ~dst =
    Scm.Region.write_word ctx.region dst (Scm.Region.read_word ctx.region src)
  let reset_ref _ ~off:_ = ()
  let clear_cell _ ~off:_ = ()
  let dealloc _ ~off:_ = ()
end

module Var : KEY with type t = string = struct
  type t = string

  let kind = 1
  let cell_bytes = Pmem.Pptr.size_bytes
  let inline = false
  let dummy = ""
  let compare = String.compare
  let fingerprint = Fingerprint.of_string
  let dram_bytes s = String.length s + 24 (* OCaml string header etc. *)

  (* Defensive decode: a concurrent dirty read can chase a pointer into
     a block that was freed and reused; clamp and bounds-check so the
     worst outcome is a key that matches nothing.  The offset of the
     well-formed key block behind cell [off], or -1 (read as ""). *)
  let block ctx ~off =
    let r = ctx.region in
    let id = Pmem.Pptr.region_id_at r off in
    let base = Pmem.Pptr.off_at r off in
    if id = 0 || id <> Scm.Region.id r then -1
    else if base < 0 || base + 8 > Scm.Region.size r then -1
    else
      let len = Scm.Region.read_word r base in
      if len <= 0 || len > max_var_key_len || base + 8 + len > Scm.Region.size r
      then -1
      else base

  let read ctx ~off =
    let b = block ctx ~off in
    if b < 0 then ""
    else
      Scm.Region.read_string ctx.region (b + 8)
        (Scm.Region.read_word ctx.region b)

  let write ctx ~off k =
    let len = String.length k in
    if len = 0 || len > max_var_key_len then
      invalid_arg "Var key length must be in [1, 4096]";
    let loc = Pmem.Pptr.Loc.make ctx.region off in
    let c = Scope.enter Obs.Attrib.comp_ool_key in
    Pmem.Palloc.alloc ctx.alloc ~into:loc (8 + len);
    let p = Pmem.Pptr.Loc.read loc in
    let base = p.Pmem.Pptr.off in
    Scm.Region.write_int64 ctx.region base (Int64.of_int len);
    Scm.Region.write_string ctx.region (base + 8) k;
    Scope.persist_in_scope ctx.region base (8 + len);
    Scope.leave c

  let matches ctx ~off k =
    let b = block ctx ~off in
    if b < 0 then String.length k = 0
    else
      Scm.Region.compare_string ctx.region (b + 8)
        (Scm.Region.read_word ctx.region b) k
      = 0

  let handle = block

  (* A -1 handle is the empty key, below every well-formed one, whose
     block offsets are all >= 0. *)
  let compare_handles ctx a b =
    if a < 0 || b < 0 then Int.compare a b
    else
      let r = ctx.region in
      Scm.Region.compare_span r (a + 8) (Scm.Region.read_word r a) (b + 8)
        (Scm.Region.read_word r b)

  let cell_ref ctx ~off = Some (Pmem.Pptr.read ctx.region off)

  let move ctx ~src ~dst =
    Pmem.Pptr.write ctx.region dst (Pmem.Pptr.read ctx.region src)

  let reset_ref ctx ~off =
    let c = Scope.enter Obs.Attrib.comp_ool_key in
    Pmem.Pptr.reset_committed ctx.region off;
    Scope.leave c
  let clear_cell ctx ~off = Pmem.Pptr.write ctx.region off Pmem.Pptr.null

  let dealloc ctx ~off =
    let c = Scope.enter Obs.Attrib.comp_ool_key in
    Pmem.Palloc.free ctx.alloc ~from:(Pmem.Pptr.Loc.make ctx.region off);
    Scope.leave c
end
