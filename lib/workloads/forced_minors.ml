(* The runtime's [caml_make_vect] reports each collection it forces as
   an [EV_C_FORCE_MINOR_MAKE_VECT] counter event: it moves a young fill
   value to the major heap rather than create hundreds of
   major-to-minor pointers. *)

let cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let forced = ref 0
let lost = ref 0

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_counter:(fun _domain _ts counter v ->
      if counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then
        forced := !forced + v)
    ~lost_events:(fun _domain n -> lost := !lost + n)
    ()

let drain () = ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

let count f =
  drain ();
  forced := 0;
  lost := 0;
  let r = f () in
  drain ();
  if !lost > 0 then
    failwith
      (Printf.sprintf "Forced_minors.count: %d runtime events lost" !lost);
  (r, !forced)
