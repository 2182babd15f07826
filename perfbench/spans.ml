type t = {
  on : bool;
  mutable n : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable tids : int array;
}

let root = -1

let create ~on =
  let cap = if on then 4096 else 0 in
  {
    on;
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
    parents = Array.make cap root;
    tids = Array.make cap 0;
  }

let enabled t = t.on

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0.;
  t.stops <- ext t.stops 0.;
  t.parents <- ext t.parents root;
  t.tids <- ext t.tids 0

let enter t ~name ~parent ~tid =
  if not t.on then root
  else begin
    if t.n = Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.parents.(id) <- parent;
    t.tids.(id) <- tid;
    t.starts.(id) <- Clock.now ();
    id
  end

let leave t id = if t.on then t.stops.(id) <- Clock.now ()

let leaf t ~name ~parent ~tid f =
  if not t.on then f ()
  else begin
    let id = enter t ~name ~parent ~tid in
    let r = f () in
    leave t id;
    r
  end

let durations t name =
  let b = Stats.Buf.create () in
  for i = 0 to t.n - 1 do
    if String.equal t.names.(i) name then Stats.Buf.push b (t.stops.(i) -. t.starts.(i))
  done;
  Stats.Buf.to_array b

let self_times t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stops.(i) -. t.starts.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let self = t.stops.(i) -. t.starts.(i) -. child.(i) in
    let total, count =
      Option.value (Hashtbl.find_opt tbl t.names.(i)) ~default:(0., 0)
    in
    Hashtbl.replace tbl t.names.(i) (total +. self, count + 1)
  done;
  Hashtbl.fold (fun name (s, c) acc -> (name, s, c) :: acc) tbl []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

let write t path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\ttid\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%.0f\t%.0f\t%d\t%d\n" i t.names.(i)
      (t.starts.(i) *. 1e9) (t.stops.(i) *. 1e9) t.parents.(i) t.tids.(i)
  done;
  close_out oc

let count t = t.n
