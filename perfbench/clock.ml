(* Nanosecond monotonic time, as float seconds.  [Unix.gettimeofday]
   only resolves microseconds, coarser than a single engine call. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
