module Metrics = Tm_obs.Metrics

exception Transient of string

(* A backend is a record of closures, like {!Recovery}: each constructor
   closes over its own state. *)
type t = {
  name : string;
  write_at : pos:int -> string -> unit;
  force : unit -> unit;
  read_all : unit -> string;
  size : unit -> int;
  close : unit -> unit;
  fault_count : unit -> int;
  attach : Metrics.t -> unit;
}

let name t = t.name
let write_at t ~pos data = t.write_at ~pos data
let force t = t.force ()
let read_all t = t.read_all ()
let size t = t.size ()
let close t = t.close ()
let fault_count t = t.fault_count ()
let attach_metrics t reg = t.attach reg

let check_pos ~who ~pos ~size =
  if pos < 0 || pos > size then
    invalid_arg (Fmt.str "Storage.write_at(%s): pos %d outside [0,%d]" who pos size)

(* A growable buffer and its used length: an append copies only the new
   bytes (doubling the buffer when it fills), so appends are amortised
   O(1); [read_all] returns a copy the next write cannot change. *)
let of_string ?(name = "memory") contents =
  let buf = ref (Bytes.of_string contents) in
  let len = ref (String.length contents) in
  {
    name;
    write_at =
      (fun ~pos data ->
        check_pos ~who:name ~pos ~size:!len;
        let n = String.length data in
        if pos + n > Bytes.length !buf then begin
          let grown = Bytes.create (max (pos + n) (2 * Bytes.length !buf)) in
          Bytes.blit !buf 0 grown 0 pos;
          buf := grown
        end;
        Bytes.blit_string data 0 !buf pos n;
        len := pos + n);
    force = (fun () -> ());
    read_all = (fun () -> Bytes.sub_string !buf 0 !len);
    size = (fun () -> !len);
    close = (fun () -> ());
    fault_count = (fun () -> 0);
    attach = (fun _ -> ());
  }

let memory ?name () = of_string ?name ""

let file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (* The OS can interrupt any of these mid-call; those are the genuine
     transient errors a production log retries. *)
  let io f =
    try f () with
    | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), fn, _) ->
        raise (Transient (Fmt.str "%s: interrupted" fn))
  in
  let file_size () = (Unix.fstat fd).Unix.st_size in
  (* The end of the file, read once here and then tracked: an append
     costs lseek + write, and only a write that ends before the end
     pays for the ftruncate. *)
  let len = ref (file_size ()) in
  let write_all data =
    let n = String.length data in
    let rec go off =
      if off < n then go (off + io (fun () -> Unix.write_substring fd data off (n - off)))
    in
    go 0
  in
  {
    name = path;
    write_at =
      (fun ~pos data ->
        check_pos ~who:path ~pos ~size:!len;
        let stop = pos + String.length data in
        (try
           ignore (io (fun () -> Unix.lseek fd pos Unix.SEEK_SET));
           write_all data;
           if stop < !len then io (fun () -> Unix.ftruncate fd stop)
         with e ->
           (* A failed or partial write may have grown the file: never
              let the tracked end fall below the real one. *)
           len := file_size ();
           raise e);
        len := stop);
    force = (fun () -> io (fun () -> Unix.fsync fd));
    read_all =
      (fun () ->
        let len = !len in
        let b = Bytes.create len in
        ignore (io (fun () -> Unix.lseek fd 0 Unix.SEEK_SET));
        let rec go off =
          if off < len then
            match io (fun () -> Unix.read fd b off (len - off)) with
            | 0 -> Bytes.sub_string b 0 off  (* concurrent truncation *)
            | n -> go (off + n)
          else Bytes.to_string b
        in
        go 0);
    size = (fun () -> !len);
    close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
    fault_count = (fun () -> 0);
    attach = (fun _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Simulated device latency.                                           *)

let slow ?(force_delay = 0.001) inner =
  {
    inner with
    name = inner.name ^ "+slow";
    force =
      (fun () ->
        if force_delay > 0. then Thread.delay force_delay;
        inner.force ());
  }

(* ------------------------------------------------------------------ *)
(* Observation hooks (tests asserting write/force ordering).           *)

let probe ?(on_write = fun ~pos:_ _ -> ()) ?(on_force = fun () -> ()) inner =
  {
    inner with
    name = inner.name ^ "+probe";
    write_at =
      (fun ~pos data ->
        on_write ~pos (String.length data);
        inner.write_at ~pos data);
    force =
      (fun () ->
        on_force ();
        inner.force ());
  }

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                    *)

type fault_config = {
  torn_write : float;
  write_error : float;
  force_error : float;
  bit_flip : float;
  short_read : float;
}

let no_faults =
  { torn_write = 0.; write_error = 0.; force_error = 0.; bit_flip = 0.; short_read = 0. }

let write_faults = { no_faults with torn_write = 0.1; write_error = 0.08; force_error = 0.08 }

let faulty ~seed cfg inner =
  let rng = Random.State.make [| seed; 0x57a9 |] in
  let metrics = ref None in
  let faults = ref 0 in
  let inject kind =
    incr faults;
    match !metrics with
    | None -> ()
    | Some reg ->
        Metrics.Counter.incr
          (Metrics.counter reg "tm_storage_faults_total"
             ~labels:[ ("backend", inner.name); ("kind", kind) ])
  in
  let hit p = p > 0. && Random.State.float rng 1. < p in
  let flip_bit data =
    let b = Bytes.of_string data in
    let i = Random.State.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)));
    Bytes.to_string b
  in
  {
    name = inner.name ^ "+faults";
    write_at =
      (fun ~pos data ->
        if hit cfg.write_error then begin
          inject "write_error";
          raise (Transient "injected: write error")
        end
        else if String.length data > 1 && hit cfg.torn_write then begin
          inject "torn_write";
          (* A strict prefix reaches the device before the failure; the
             retry must overwrite it by rewriting at the same position. *)
          let torn = 1 + Random.State.int rng (String.length data - 1) in
          inner.write_at ~pos (String.sub data 0 torn);
          raise (Transient (Fmt.str "injected: torn write (%d/%d bytes)" torn (String.length data)))
        end
        else inner.write_at ~pos data);
    force =
      (fun () ->
        if hit cfg.force_error then begin
          inject "force_error";
          raise (Transient "injected: force error")
        end
        else inner.force ());
    read_all =
      (fun () ->
        let data = inner.read_all () in
        if String.length data > 0 && hit cfg.short_read then begin
          inject "short_read";
          String.sub data 0 (Random.State.int rng (String.length data))
        end
        else if String.length data > 0 && hit cfg.bit_flip then begin
          inject "bit_flip";
          flip_bit data
        end
        else data);
    size = inner.size;
    close = inner.close;
    fault_count = (fun () -> !faults);
    attach =
      (fun reg ->
        metrics := Some reg;
        inner.attach reg);
  }
