(* Sorting a 100,000-element list of pairs: allocation, pointer chasing
   and garbage collection, like a restart, but only standard-library
   code, so no change to the engine moves it. *)
let kernel () =
  let l = List.init 100_000 (fun i -> ((i * 7919) mod 100_003, i)) in
  List.fold_left (fun acc (a, _) -> acc + a) 0 (List.sort compare l)

let time () =
  (* Garbage the caller left behind must not be collected on this clock. *)
  Gc.full_major ();
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.now () -. t0

let nominal_s = 0.045
