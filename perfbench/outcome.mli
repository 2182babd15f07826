(** What one workload run produced: its metrics, the verdict of its
    correctness checks, and the spans of a traced run. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;  (** how many measurements the value summarises *)
}

type t = {
  checks : (string * (unit, string) result) list;
  attempted : int;  (** transactions (or restarts) the timed phase admitted *)
  failed : int;  (** of those, failed or given up *)
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  notes : (string * string) list;  (** run context, e.g. the flush policy *)
  spans : Spans.t;
}

val metric : ?samples:int -> string -> string -> float -> metric

(** [of_summary name unit ?scale s] — [s.value *. scale], with [s]'s
    sample count. *)
val of_summary : string -> string -> ?scale:float -> Stats.summary -> metric

(** The median of per-episode values. *)
val median_of : string -> string -> float list -> metric

(** [ratio a b] = [a / b] as a float, 0 when [b = 0]. *)
val ratio : int -> int -> float

(** [span_pct spans ~span name p] — the [p]-th percentile of the
    durations of spans called [span], in microseconds, as metric
    [name]; 0 over 0 samples when no such span was recorded. *)
val span_pct : Spans.t -> span:string -> string -> float -> metric

(** [with_heap (o, keep)] appends [heap_mb]: the live heap after a full
    major collection, with only [keep] (the engine state the timed phase
    left behind) and [o] still reachable. *)
val with_heap : t * 'a -> t
