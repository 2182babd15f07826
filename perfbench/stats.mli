(** Order statistics over timing samples. *)

(** A statistic together with the number of samples it was taken over. *)
type summary = {
  value : float;
  samples : int;
}

(** [percentile xs p] for [p] in [[0, 100]], interpolating linearly
    between the closest ranks.  Raises [Invalid_argument] on an empty
    array. *)
val percentile : float array -> float -> summary

val median : float array -> summary

(** [late_early_ratio runs] — the median of the last tenth of every
    run's samples (in arrival order), pooled, divided by the median of
    their first tenths: 1 when per-item cost is flat, rising when it
    grows with history. *)
val late_early_ratio : float array list -> float

(** A growable float buffer for samples. *)
module Buf : sig
  type t

  val create : unit -> t
  val push : t -> float -> unit
  val to_array : t -> float array
end
