open Tm_core
module Ba = Tm_adt.Bank_account
module Ao = Tm_engine.Atomic_object

let name i = Printf.sprintf "acct%02d" i

let uip ?inverse ~initial i =
  Ao.create ?inverse ~spec:(Spec.rename (Ba.spec_with_initial initial) (name i))
    ~conflict:Ba.nrbc_conflict ~recovery:Tm_engine.Recovery.UIP ()

let du ~initial i =
  Ao.create ~spec:(Spec.rename (Ba.spec_with_initial initial) (name i))
    ~conflict:Ba.nfc_conflict ~recovery:Tm_engine.Recovery.DU ()

let deposit amount = Op.invocation ~args:[ Value.int amount ] "deposit"
let withdraw amount = Op.invocation ~args:[ Value.int amount ] "withdraw"
let balance = Op.invocation "balance"

let effect (op : Op.t) =
  match op.inv.name, op.inv.args with
  | "deposit", [ Value.Int i ] -> i
  | "withdraw", [ Value.Int i ] when Value.equal op.res Value.ok -> -i
  | _ -> 0

let balance_of_ops ~initial ops = List.fold_left (fun b op -> b + effect op) initial ops

let balances ~initial ~accounts db =
  Array.init accounts (fun i ->
      balance_of_ops ~initial
        (Ao.committed_ops (Tm_engine.Database.find_object db (name i))))
