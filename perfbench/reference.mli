(** A fixed reference loop, timed after each episode, load or restart to
    track the host's speed.  On a shared host, other tenants slow a whole
    run by up to a quarter; a time divided by the reference's, taken at
    the same moment, moves far less with them. *)

(** Runs the reference loop once and returns its wall time in seconds
    (about 45 ms on an idle 2-core 2.1 GHz Xeon). *)
val time : unit -> float

(** The reference loop's time on that host: rescaled times read as
    seconds on a host where the loop takes this long. *)
val nominal_s : float
