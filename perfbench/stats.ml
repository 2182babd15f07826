type summary = {
  value : float;
  samples : int;
}

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  (* Linear interpolation between closest ranks, as numpy's default. *)
  let r = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate r in
  let hi = min (n - 1) (lo + 1) in
  let f = r -. float_of_int lo in
  { value = s.(lo) +. (f *. (s.(hi) -. s.(lo))); samples = n }

let median xs = percentile xs 50.

let late_early_ratio runs =
  let tenth last xs =
    let n = Array.length xs in
    let k = max 1 (n / 10) in
    Array.sub xs (if last then n - k else 0) k
  in
  let pooled last = Array.concat (List.map (tenth last) runs) in
  (median (pooled true)).value /. (median (pooled false)).value

module Buf = struct
  type t = {
    mutable data : float array;
    mutable len : int;
  }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
