(** The bank accounts every workload runs on: one
    {!Tm_adt.Bank_account} object per account, named [acct00],
    [acct01], ... *)

open Tm_core

val name : int -> string

(** Update-in-place recovery with the NRBC conflict relation.  Without
    [inverse], abort takes the general undo path, which replays the
    object's whole surviving log. *)
val uip :
  ?inverse:(Op.t -> Op.t list option) -> initial:int -> int -> Tm_engine.Atomic_object.t

(** Deferred-update recovery with the NFC conflict relation. *)
val du : initial:int -> int -> Tm_engine.Atomic_object.t

val deposit : int -> Op.invocation
val withdraw : int -> Op.invocation
val balance : Op.invocation

(** [balances ~initial ~accounts db] — the committed balance of
    accounts [0 .. accounts - 1]. *)
val balances : initial:int -> accounts:int -> Tm_engine.Database.t -> int array
