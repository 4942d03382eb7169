(** Minor collections that [Array.make] forces: an array of more than
    256 words made around a young value runs a full minor collection
    first, which stops every running domain.  Read from the process's
    own runtime event ring (started on first use). *)

(** [count f] runs [f ()] on the calling domain and returns its result
    with the number of such collections forced meanwhile, on any
    domain.  Call it from one domain at a time.
    @raise Failure if the event ring overflowed, so the count would be
    short. *)
val count : (unit -> 'a) -> 'a * int
