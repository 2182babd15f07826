(** Seeded load generation.  All load is made here, from the workload
    seed; the engine only ever receives the resulting invocations. *)

(** A single-deposit transaction: [amount] into account [acct]. *)
type deposit = {
  acct : int;
  amount : int;
}

(** One operation of a contention transaction, on an account index. *)
type step =
  | Deposit of int * int
  | Withdraw of int * int
  | Balance of int

(** [deposits ~seed ~accounts n] — [n] deposits of 1..100 into uniformly
    chosen accounts. *)
val deposits : seed:int -> accounts:int -> int -> deposit array

(** [programs ~seed ~accounts ~skew ~ops n] — [n] transactions of [ops]
    steps each on Zipf([skew])-chosen accounts: 45% deposit, 45%
    withdraw (amounts 1..10), 10% balance. *)
val programs : seed:int -> accounts:int -> skew:float -> ops:int -> int -> step array array

(** A transaction of the restart workload's history. *)
type txn = {
  ops : deposit array;  (** 1..3 deposits *)
  abort : bool;  (** ends in an abort instead of a commit *)
}

(** [history ~seed ~accounts n] — [n] transactions of 1..3 deposits on
    uniformly chosen accounts; about 2% abort. *)
val history : seed:int -> accounts:int -> int -> txn array
