module Metrics = Tm_obs.Metrics

exception Storage_unavailable of { attempts : int; last : string }

(* Attempts per storage call before a transient fault is given up on. *)
let max_attempts = 8

type t = {
  storage : Storage.t;
  wal : Wal.t;
  shard : int;  (* stamped into every v2 frame this log appends *)
  mutable end_off : int;  (* logical end: bytes of intact, persisted log *)
  mutable bytes_written : int;
  mutable retries : int;
  mutable metrics : Metrics.t option;
}

let wal t = t.wal
let storage t = t.storage
let shard t = t.shard
let bytes_written t = t.bytes_written
let retries t = t.retries

let count t name by =
  match t.metrics with
  | None -> ()
  | Some reg -> Metrics.Counter.incr ~by (Metrics.counter reg name)

(* The one retry loop: every write and force below runs through it.  A
   torn write persists a prefix, but every attempt rewrites from the
   same offset, so the torn bytes are overwritten rather than
   accumulated. *)
let retried t f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception Storage.Transient last ->
        if attempt >= max_attempts then
          raise (Storage_unavailable { attempts = attempt; last })
        else begin
          t.retries <- t.retries + 1;
          count t "tm_storage_retries_total" 1;
          go (attempt + 1)
        end
  in
  go 1

let write t ~pos data = retried t (fun () -> Storage.write_at t.storage ~pos data)
let force t = retried t (fun () -> Storage.force t.storage)

let persist t record =
  let frame = Wal.Codec.encode ~shard:t.shard record in
  write t ~pos:t.end_off frame;
  t.end_off <- t.end_off + String.length frame;
  t.bytes_written <- t.bytes_written + String.length frame;
  count t "tm_wal_bytes_total" (String.length frame)

let make ?(shard = 0) storage wal ~end_off =
  if shard < 0 || shard > 0xFFFF then
    invalid_arg (Fmt.str "Disk_wal: shard %d out of range" shard);
  let t =
    { storage; wal; shard; end_off; bytes_written = 0; retries = 0; metrics = None }
  in
  Wal.set_sink wal
    {
      Wal.sink_append = (fun r -> persist t r);
      sink_force = (fun () -> force t);
      sink_attach =
        (fun reg ->
          t.metrics <- Some reg;
          Storage.attach_metrics storage reg);
    };
  t

let create ?shard storage =
  let t = make ?shard storage (Wal.create ()) ~end_off:0 in
  (* A fresh log owns the backend from byte 0; stale contents (a
     previous incarnation's log) would otherwise replay after ours.
     The truncation is forced immediately: without the barrier a crash
     before this log's first commit flush could resurrect the stale
     log on reload. *)
  if Storage.size storage > 0 then begin
    write t ~pos:0 "";
    force t
  end;
  t

(* ------------------------------------------------------------------ *)
(* Crash-atomic log compaction.

   [checkpoint_truncate] must replace the whole backend image with
   another one, but {!Storage.write_at} is not atomic: the file backend
   writes the data and only then shrinks the file, and a crash between
   the two leaves intact stale frames beyond the new log — which reload
   would either misclassify as interior corruption or, frame-aligned,
   silently replay as pre-checkpoint records.

   The fix is a journal + redo protocol, every step of which is a plain
   forced write:

   {ol
   {- {b journal}: write zeros from the end of the live log ([old_len])
      up to [at = max old_len new_len], a [Truncate_intent { at;
      new_len }] frame at [at], then the complete image, and force.  The
      old log is untouched; a crash anywhere up to here leaves at worst
      a torn journal after an intact log, and reload rolls the
      compaction back (it never committed).}
   {- {b install}: write the image at position 0 — [write_at]'s
      trailing truncation removes the journal in the same call — and
      force.  The image covers [[0, new_len)] and the intent sits at or
      past [new_len], so the journal survives byte for byte until the
      shrink lands, and a crash anywhere inside the install finds it
      and {e redoes} the install from the journaled image.}}

   The intent frame is self-locating: it must sit exactly at [at], and
   the file must end exactly [new_len] bytes after it, which a torn
   journal write can never satisfy.  *)

let journal ~shard ~old_len image =
  let new_len = String.length image in
  let at = max old_len new_len in
  String.make (at - old_len) '\000'
  ^ Wal.Codec.encode ~shard (Wal.Truncate_intent { at; new_len })
  ^ image

type journal_state =
  | No_journal
  | Complete of string  (* the verified image: redo the install *)
  | Incomplete of int  (* the intent's offset: roll back to the log before it *)
  | Damaged of Wal.Codec.corruption

(* The one journal resolver.  The scan anchors on the frame magic and
   pays for a decode only on an exact candidate: intent-sized payload,
   intent tag, and an intent frame sitting at its own [at].  At most
   one journal can exist (the install erases it and the image never
   contains an intent). *)
let find_journal bytes =
  let total = String.length bytes in
  (* tag byte + two 8-byte lengths *)
  let intent_payload = 17 in
  (* The smallest frame an intent can occupy (v1 header); an intent
     written by any supported version is at least this long. *)
  let min_intent_frame = Wal.Codec.min_header_size + intent_payload in
  (* An intent frame of either version: the header parses, the payload
     is intent-sized and the tag byte is the intent's.  [read_header]
     is the version dispatch, so a journal written by a v1 binary is
     found by a v2 one and vice versa. *)
  let plausible p =
    match Wal.Codec.read_header bytes p with
    | Error _ -> false
    | Ok h ->
        h.Wal.Codec.h_payload_len = intent_payload
        && bytes.[p + h.Wal.Codec.h_size] = '\005'
  in
  let rec scan pos =
    if pos + min_intent_frame > total then No_journal
    else
      match String.index_from_opt bytes pos Wal.Codec.magic0 with
      | None -> No_journal
      | Some p when not (plausible p) -> scan (p + 1)
      | Some p -> (
          match Wal.Codec.decode_frame bytes p with
          | Ok (Wal.Truncate_intent { at; new_len }, next)
            when p = at && next + new_len > total ->
              (* The journal write was cut short: it never committed. *)
              Incomplete p
          | Ok (Wal.Truncate_intent { at; new_len }, next)
            when p = at && next + new_len = total -> (
              (* The journal committed; its image must verify in full
                 before we are allowed to destroy the old log. *)
              let image = String.sub bytes next new_len in
              match Wal.Codec.decode_all image with
              | Ok { Wal.Codec.torn = None; clean_bytes; _ }
                when clean_bytes = new_len ->
                  Complete image
              | Ok _ ->
                  Damaged
                    {
                      Wal.Codec.offset = next;
                      version = None;
                      reason = "truncation journal image is torn";
                    }
              | Error c ->
                  Damaged
                    {
                      Wal.Codec.offset = next + c.Wal.Codec.offset;
                      version = c.Wal.Codec.version;
                      reason =
                        "truncation journal image unreadable: "
                        ^ c.Wal.Codec.reason;
                    })
          | Ok _ | Error _ -> scan (p + 1))
  in
  scan 0

let load ?shard ?profile storage =
  (* Reads are not retried on content grounds — a short or bit-flipped
     read is silent, and it is the decoder's job to catch it. *)
  let module Profile = Tm_obs.Recovery_profile in
  let bytes =
    match profile with
    | None -> Storage.read_all storage
    | Some p ->
        let bytes =
          Profile.time p Profile.Storage_scan (fun () ->
              Storage.read_all storage)
        in
        Profile.note_bytes_scanned p (String.length bytes);
        bytes
  in
  (* The mirror is rebuilt before the sink is installed, so the replayed
     records are not re-persisted; a torn tail is dropped logically —
     [end_off] points at the intact prefix, and the next append
     overwrites the debris. *)
  let decode bytes =
    match Wal.Codec.decode_all ?profile bytes with
    | Error _ as e -> e
    | Ok { Wal.Codec.records; clean_bytes; torn = _ } ->
        Ok (make ?shard storage (Wal.of_records records) ~end_off:clean_bytes)
  in
  (* Finishing an interrupted compaction either way is restart I/O,
     charged to the storage-scan phase. *)
  let finish (t : t) pos data =
    let io () = write t ~pos data; force t in
    (match profile with None -> io () | Some p -> Profile.time p Profile.Storage_scan io);
    t
  in
  (* The journal, not the plain decode, is the authority on what the log
     is: a half-installed image makes the raw bytes look arbitrarily
     damaged. *)
  match find_journal bytes with
  | No_journal -> decode bytes
  | Damaged c -> Error c
  | Complete image ->
      (* Redo the install (idempotent: re-running after any crash inside
         it converges to the same image). *)
      Result.map (fun t -> finish t 0 image) (decode image)
  | Incomplete at ->
      (* Roll back: the log is the bytes before the intent (its zero
         fill decodes as a torn tail), and the journal debris is erased
         so that no later append can leave it behind its own frame. *)
      Result.map (fun t -> finish t t.end_off "") (decode (String.sub bytes 0 at))

let checkpoint_truncate t =
  let dropped = Wal.truncate_to_checkpoint t.wal in
  if dropped > 0 then begin
    let image = Wal.Codec.encode_all ~shard:t.shard (Wal.records t.wal) in
    (* 1. Journal after the live log, forced.  The old log is still
       intact, so a crash up to here rolls back. *)
    write t ~pos:t.end_off (journal ~shard:t.shard ~old_len:t.end_off image);
    force t;
    (* 2. Install: the image replaces the log from byte 0; [write_at]'s
       trailing truncation erases the journal in the same call.  A crash
       inside this step finds the journal and redoes the install. *)
    write t ~pos:0 image;
    force t;
    (* The rewrite forced the whole log through the side door, so the
       pipeline's watermark can advance without another barrier. *)
    Wal.mark_all_flushed t.wal;
    t.end_off <- String.length image
  end;
  dropped
