(** Key representations for the tree functor: {!Fixed} integer keys
    inline in the leaf cell, {!Var} string keys as persistent pointers
    to separately allocated key blocks (Appendix C). *)

type ctx = {
  region : Scm.Region.t;
  alloc : Pmem.Palloc.t;
}

val max_var_key_len : int

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
  (** Read the key at cell [off]; must not raise on garbage (defensive
      for concurrent dirty reads). *)

  val write : ctx -> off:int -> t -> unit
  (** Store a fresh key into cell [off].  Var keys allocate their block
      through the allocator (which persistently publishes the cell) and
      persist the content; fixed keys just write the cell. *)

  val matches : ctx -> off:int -> t -> bool
  (** [equal (read ctx ~off) k], compared in place: allocates nothing. *)

  val handle : ctx -> off:int -> int
  (** Allocation-free handle on the key at cell [off] for
      {!compare_handles}: a fixed key itself, a var key's block offset
      ([-1] when the cell reads as the empty key).  Taking one loads the
      key's first word. *)

  val compare_handles : ctx -> int -> int -> int
  (** In-place [compare] of the keys behind two handles; agrees with
      [compare] on what {!read} returns for the same cells. *)

  val cell_ref : ctx -> off:int -> Pmem.Pptr.t option
  (** [Some p] for out-of-line keys — drives the recovery leak audit. *)

  val move : ctx -> src:int -> dst:int -> unit
  (** Copy the cell without allocating (update path); not persisted. *)

  val reset_ref : ctx -> off:int -> unit
  (** Persistently null the cell without deallocating. *)

  val clear_cell : ctx -> off:int -> unit
  (** Null the cell WITHOUT persisting (bulk stale-cell clearing after
      a split; a torn null still reads as null). *)

  val dealloc : ctx -> off:int -> unit
  (** Free the key block via the allocator (nulls the cell). *)
end

module Fixed : KEY with type t = int
module Var : KEY with type t = string
