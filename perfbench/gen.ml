type deposit = {
  acct : int;
  amount : int;
}

type step =
  | Deposit of int * int
  | Withdraw of int * int
  | Balance of int

let rng ~seed ~stream = Random.State.make [| seed; stream |]

let deposits ~seed ~accounts n =
  let r = rng ~seed ~stream:1 in
  Array.init n (fun _ ->
      { acct = Random.State.int r accounts; amount = 1 + Random.State.int r 100 })

(* Inverse-CDF sampling over rank weights 1/(k+1)^skew. *)
let zipf_cdf ~n ~skew =
  let w = Array.init n (fun k -> 1. /. ((float_of_int k +. 1.) ** skew)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let zipf r cdf =
  let x = Random.State.float r 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x < cdf.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

let programs ~seed ~accounts ~skew ~ops n =
  let r = rng ~seed ~stream:2 in
  let cdf = zipf_cdf ~n:accounts ~skew in
  Array.init n (fun _ ->
      Array.init ops (fun _ ->
          let a = zipf r cdf in
          let amount = 1 + Random.State.int r 10 in
          match Random.State.int r 100 with
          | p when p < 45 -> Deposit (a, amount)
          | p when p < 90 -> Withdraw (a, amount)
          | _ -> Balance a))

type txn = {
  ops : deposit array;
  abort : bool;
}

let history ~seed ~accounts n =
  let r = rng ~seed ~stream:3 in
  Array.init n (fun _ ->
      let k = 1 + Random.State.int r 3 in
      let ops =
        Array.init k (fun _ ->
            { acct = Random.State.int r accounts; amount = 1 + Random.State.int r 100 })
      in
      { ops; abort = Random.State.int r 50 = 0 })
