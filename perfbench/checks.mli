(** The correctness checks every run must pass.  Each returns [Error]
    with a one-line reason on a wrong result. *)

open Tm_core

(** [balances ~what ~expected ~got] — per-account balances agree. *)
val balances : what:string -> expected:int array -> got:int array -> (unit, string) result

(** Every object's committed operations form a legal sequence of its
    serial specification. *)
val legal : (Spec.t * Op.t list) list -> (unit, string) result

(** Every admitted transaction either committed or was given up. *)
val accounting : admitted:int -> committed:int -> gave_up:int -> (unit, string) result

(** Recovery's loser set equals the expected one. *)
val losers : expected:Tid.Set.t -> got:Tid.Set.t -> (unit, string) result
