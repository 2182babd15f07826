type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;
}

type t = {
  checks : (string * (unit, string) result) list;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  notes : (string * string) list;
  spans : Spans.t;
}

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

let of_summary name unit ?(scale = 1.) (s : Stats.summary) =
  { name; value = s.value *. scale; unit; samples = s.samples }

(* The median of per-episode values, carrying the episode count. *)
let median_of name unit values =
  of_summary name unit (Stats.median (Array.of_list values))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let span_pct spans ~span name p =
  match Spans.durations spans span with
  | [||] -> metric ~samples:0 name "us" 0.
  | d -> of_summary name "us" ~scale:1e6 (Stats.percentile d p)

let with_heap (o, keep) =
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  let mb = float_of_int (live * (Sys.word_size / 8)) /. 1e6 in
  { o with e2e = o.e2e @ [ metric "heap_mb" "MB" mb ] }
