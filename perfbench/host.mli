(** Host context recorded with every result. *)

(** Processors available to this process (the [nproc] command). *)
val nproc : unit -> int

(** Filesystem type of the mount holding a directory ([ext4], [tmpfs],
    ...), from [/proc/mounts]; ["unknown"] elsewhere. *)
val fs_type : string -> string
