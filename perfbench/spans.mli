(** In-memory spans around the benchmark's calls into each engine
    layer: name, start, end, parent span and transaction id.  Recording
    only happens in a traced run; otherwise every function here is a
    single branch.  Spans are written out once, when the run ends. *)

type t

(** The parent of a span that has none. *)
val root : int

val create : on:bool -> t
val enabled : t -> bool

(** [enter t ~name ~parent ~tid] opens a span and returns its id
    ([root] when tracing is off). *)
val enter : t -> name:string -> parent:int -> tid:int -> int

val leave : t -> int -> unit

(** [leaf t ~name ~parent ~tid f] runs [f] inside a span. *)
val leaf : t -> name:string -> parent:int -> tid:int -> (unit -> 'a) -> 'a

(** Durations (seconds) of every span called [name], in start order. *)
val durations : t -> string -> float array

(** Per span name: total self time (duration minus the time covered by
    direct children), in seconds, and the span count; largest first. *)
val self_times : t -> (string * float * int) list

(** [write t path] — one tab-separated line per span. *)
val write : t -> string -> unit

val count : t -> int
