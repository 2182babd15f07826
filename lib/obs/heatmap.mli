(** Conflict heat maps: requested x held operation matrices.

    The engine counts every blocking conflict pair as
    [tm_lock_conflicts_total{obj,requested,held}] (see
    [Atomic_object.attach_metrics]).  This module folds those counters into
    one matrix per series group — an object, plus whatever extra labels
    the snapshot carries ([scenario], [setup], ...) — and pairs matrices
    across a chosen label so UIP(NRBC) and DU(NFC) runs of the same
    workload can be compared cell by cell: the extra conflicts a
    recovery method induces show up as hot cells that the other method's
    matrix lacks.

    Matrices can be built live from a {!Metrics.t} or offline from a
    Prometheus text dump ({!of_prometheus}), whose parser reverses the
    exporter's label-value escaping. *)

type labels = (string * string) list

type t = {
  key : labels;  (** identifying labels: [obj] plus any group labels *)
  cells : ((string * string) * int) list;
      (** [(requested, held) -> count], deterministically sorted *)
}

(** The counter family the matrices are folded from
    ([tm_lock_conflicts_total]). *)
val conflicts_metric : string

(** One matrix per distinct label set (minus [requested]/[held]) of the
    [tm_lock_conflicts_total] family; sorted by key. *)
val of_metrics : Metrics.t -> t list

(** [of_samples samples] folds pre-extracted [(labels, count)] conflict
    samples into matrices — for callers that already parsed a snapshot
    with {!parse_prometheus} and select the family themselves. *)
val of_samples : (labels * int) list -> t list

val obj : t -> string option
val count : t -> requested:string -> held:string -> int
val total : t -> int

(** Distinct requested / held operation names, sorted. *)
val axes : t -> string list * string list

(** {1 Offline (Prometheus text) source} *)

(** Generic 0.0.4 text-format parser: [(name, labels, value)] per sample
    line, comments and blanks skipped, label values unescaped
    (backslash, double quote, newline). *)
val parse_prometheus : string -> ((string * labels * float) list, string) result

val of_prometheus : string -> (t list, string) result

(** {1 Comparison} *)

(** [comparison ~by maps] groups matrices that agree on every key label
    except [by] (e.g. [by:"setup"] pairs [UIP+NRBC] with [DU+NFC] for
    the same object and scenario).  Rows: shared key, then
    [(by-value, matrix)] in value order.  Groups with fewer than two
    matrices are dropped. *)
val comparison : by:string -> t list -> (labels * (string * t) list) list

val pp : Format.formatter -> t -> unit
val pp_comparison : by:string -> Format.formatter -> t list -> unit
