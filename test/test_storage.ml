(* On-disk WAL robustness: codec framing round trips, corruption
   detection (torn tail vs interior), storage backend semantics, fault
   injection, and the retrying disk log. *)

open Tm_core
module Wal = Tm_engine.Wal
module Codec = Tm_engine.Wal.Codec
module Storage = Tm_engine.Storage
module Disk_wal = Tm_engine.Disk_wal
module BA = Tm_adt.Bank_account

(* ------------------------------------------------------------------ *)
(* Generators: arbitrary WAL records, including fuzzy checkpoints with
   live-transaction logs.                                              *)

let tid_gen = QCheck2.Gen.(map Tid.of_int (int_bound 9))

let record_gen =
  let open QCheck2.Gen in
  let op = Helpers.ba_op_gen in
  oneof
    [
      map (fun t -> Wal.Begin t) tid_gen;
      map2 (fun t o -> Wal.Operation (t, o)) tid_gen op;
      map (fun t -> Wal.Commit t) tid_gen;
      map (fun t -> Wal.Abort t) tid_gen;
      map3
        (fun committed live next_tid -> Wal.Checkpoint { Wal.committed; live; next_tid })
        (list_size (int_bound 4) op)
        (list_size (int_bound 3) (pair tid_gen (list_size (int_bound 3) op)))
        (int_bound 20);
    ]

let records_gen = QCheck2.Gen.(list_size (int_bound 12) record_gen)

let is_record_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> Wal.equal_record x y && go (xs, ys)
  in
  go (xs, ys)

(* ------------------------------------------------------------------ *)
(* Codec properties.                                                   *)

let prop_roundtrip =
  Helpers.qcheck "decode (encode rs) = rs" records_gen (fun rs ->
      let bytes = Codec.encode_all rs in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d ->
          d.Codec.torn = None
          && d.Codec.clean_bytes = String.length bytes
          && List.equal Wal.equal_record rs d.Codec.records)

(* Same round trip at every supported format version: the payload
   encoding is shared, only the frame header differs. *)
let prop_versioned_roundtrip =
  Helpers.qcheck "decode (encode ~version rs) = rs for each version"
    QCheck2.Gen.(pair (oneofl Codec.supported_versions) records_gen)
    (fun (version, rs) ->
      let bytes = Codec.encode_all ~version rs in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d ->
          d.Codec.torn = None && List.equal Wal.equal_record rs d.Codec.records)

(* And with the version chosen per frame: any v1/v2 interleaving decodes
   to the same records — version negotiation is per frame, not per log. *)
let prop_mixed_version_roundtrip =
  Helpers.qcheck "per-frame version mix round trips"
    QCheck2.Gen.(pair records_gen (list_size (int_range 1 8) (oneofl Codec.supported_versions)))
    (fun (rs, versions) ->
      let n = List.length versions in
      let bytes =
        String.concat ""
          (List.mapi
             (fun i r -> Codec.encode ~version:(List.nth versions (i mod n)) r)
             rs)
      in
      match Codec.decode_all bytes with
      | Error _ -> false
      | Ok d -> List.equal Wal.equal_record rs d.Codec.records)

(* Cutting the encoding anywhere must decode to a record prefix with at
   most a torn tail — never an interior-corruption verdict, never extra
   or different records. *)
let prop_truncation =
  Helpers.qcheck "truncated encoding = torn tail"
    QCheck2.Gen.(pair records_gen (int_bound 10_000))
    (fun (rs, n) ->
      let bytes = Codec.encode_all rs in
      let cut = if String.length bytes = 0 then 0 else n mod String.length bytes in
      match Codec.decode_all (String.sub bytes 0 cut) with
      | Error _ -> false
      | Ok d -> is_record_prefix d.Codec.records rs)

(* A single flipped bit is either detected (interior corruption) or
   contained (torn tail whose records are a prefix) — never a silent
   change of the record list. *)
let prop_bit_flip =
  Helpers.qcheck "bit flip never silent"
    QCheck2.Gen.(triple records_gen (int_bound 100_000) (int_bound 7))
    (fun (rs, n, bit) ->
      let bytes = Codec.encode_all rs in
      if String.length bytes = 0 then true
      else begin
        let i = n mod String.length bytes in
        let b = Bytes.of_string bytes in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        match Codec.decode_all (Bytes.to_string b) with
        | Error _ -> true
        | Ok d -> is_record_prefix d.Codec.records rs
      end)

(* ------------------------------------------------------------------ *)
(* CRC-32.                                                             *)

(* Table-less bitwise CRC-32 (IEEE, reflected 0xEDB88320): the reference
   the codec's slicing-by-8 implementation must agree with. *)
let reference_crc32 s off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_known_answers () =
  Alcotest.(check int32) "check value" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Codec.crc32 "");
  Helpers.check_int "native check value" 0xCBF43926
    (Codec.crc32_sub "xx123456789yy" 2 9);
  Alcotest.check_raises "range outside the string"
    (Invalid_argument "Wal.Codec.crc32_sub") (fun () ->
      ignore (Codec.crc32_sub "abc" 2 2))

(* Offsets and lengths 0-64 run the 8-byte loop, the tail loop, and
   both together, from any starting offset. *)
let prop_crc32_matches_reference =
  Helpers.qcheck ~count:500 "crc32_sub = bitwise reference CRC-32"
    QCheck2.Gen.(
      triple (int_bound 64) (int_bound 64) (int_bound 8) >>= fun (off, len, extra) ->
      map (fun s -> (s, off, len)) (string_size (return (off + len + extra))))
    (fun (s, off, len) ->
      let expected = reference_crc32 s off len in
      Codec.crc32_sub s off len = expected
      && Codec.crc32 (String.sub s off len) = Int32.of_int expected)

(* A frame whose stored CRC has bit 31 set reads back as a negative
   int32: decode must still compare it equal to the native checksum. *)
let test_crc_top_bit_round_trip () =
  let hdr = Codec.header_size Codec.write_version in
  let top_bit frame = Char.code frame.[hdr - 1] land 0x80 <> 0 in
  let r, frame =
    Seq.ints 0
    |> Seq.map (fun i ->
           let r = Wal.Operation (Tid.of_int i, BA.deposit i) in
           (r, Codec.encode r))
    |> Seq.filter (fun (_, frame) -> top_bit frame)
    |> Seq.uncons |> Option.get |> fst
  in
  Helpers.check_bool "stored CRC is a negative int32" true
    (Int32.compare (String.get_int32_le frame (hdr - 4)) 0l < 0);
  match Codec.decode_frame frame 0 with
  | Error c -> Alcotest.failf "top-bit CRC refused: %a" Codec.pp_corruption c
  | Ok (r', next) ->
      Helpers.check_bool "record round trips" true (Wal.equal_record r r');
      Helpers.check_int "next frame offset" (String.length frame) next

(* A v2 frame around [payload] with a correct length and CRC. *)
let reframe payload =
  let b = Buffer.create 64 in
  Buffer.add_string b "\xd7W\x02\x00\x00";
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Codec.crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let payload_of frame =
  let hdr = Codec.header_size (Char.code frame.[2]) in
  String.sub frame hdr (String.length frame - hdr)

(* The payload reader works in place on the whole log buffer, so its
   bounds must be the frame's own payload: a CRC-valid frame whose inner
   length field runs past its payload (into the next frame) is refused
   at its own offset, and so is one with bytes left over. *)
let test_frame_reader_stays_in_payload () =
  let before = Codec.encode (Wal.Begin Tid.a) in
  let after =
    Codec.encode_all [ Wal.Commit Tid.a; Wal.Begin Tid.b; Wal.Commit Tid.b ]
  in
  let refused ~reason bad =
    let buf = before ^ bad ^ after in
    (match Codec.decode_frame buf (String.length before) with
    | Ok _ -> Alcotest.failf "%s: frame decoded" reason
    | Error c ->
        Helpers.check_int (reason ^ ": offset") (String.length before) c.Codec.offset;
        Alcotest.(check string) (reason ^ ": reason") reason c.Codec.reason);
    match Codec.decode_all buf with
    | Ok _ -> Alcotest.failf "%s: log decoded" reason
    | Error c ->
        Helpers.check_int (reason ^ ": log offset") (String.length before)
          c.Codec.offset
  in
  (* The payload ends with a string result: tag, 8-byte length, "ok".
     Claim 5 bytes more than the payload holds; the buffer has plenty
     more after it, so only the payload bound can refuse the length. *)
  let op =
    { Op.obj = "acct"; inv = { Op.name = "f"; args = [] }; res = Value.Str "ok" }
  in
  let payload =
    Bytes.of_string (payload_of (Codec.encode (Wal.Operation (Tid.a, op))))
  in
  Bytes.set_int64_le payload (Bytes.length payload - 10) 7L;
  refused ~reason:"implausible length" (reframe (Bytes.to_string payload));
  refused ~reason:"trailing bytes in payload"
    (reframe (payload_of (Codec.encode (Wal.Commit Tid.a)) ^ "\000"))

let sample_records =
  [
    Wal.Begin Tid.a;
    Wal.Operation (Tid.a, BA.deposit 5);
    Wal.Commit Tid.a;
    Wal.Begin Tid.b;
    Wal.Operation (Tid.b, BA.withdraw_ok 2);
  ]

let test_codec_truncate_intent_roundtrip () =
  let r = Wal.Truncate_intent { at = 12345; new_len = 678 } in
  Helpers.check_bool "record kind" true
    (String.equal (Wal.record_kind r) "truncate_intent");
  let bytes = Codec.encode_all (sample_records @ [ r ]) in
  match Codec.decode_all bytes with
  | Error c -> Alcotest.failf "decode failed: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "round trips" true
        (List.equal Wal.equal_record (sample_records @ [ r ]) d.Codec.records)

(* The resynchronisation probe behind torn-vs-interior verdicts: an
   intact frame after the damage means interior, no such frame means
   torn tail — and an adversarial log dense with false frame anchors
   must exhaust the probe budget into the conservative (interior,
   refuse) verdict rather than scanning quadratically. *)
let test_valid_frame_after () =
  let frame = Codec.encode (Wal.Begin Tid.a) in
  let garbage = String.make 40 Codec.magic0 in
  Helpers.check_bool "intact frame after damage" true
    (Codec.valid_frame_after (garbage ^ frame) 1);
  Helpers.check_bool "pure torn tail has no frame after" false
    (Codec.valid_frame_after garbage 1);
  (* An adversarial tail dense with plausible-but-bad frames: every copy
     anchors a full decode probe (header checks pass, CRC fails).  With
     budget, the scan pays for each probe and still answers torn; a
     one-probe budget must give up into the conservative interior
     verdict — never a cheap torn-drop. *)
  let bad_crc =
    let hdr = Codec.header_size Codec.write_version in
    let b = Bytes.of_string frame in
    Bytes.set b (hdr - 1) (Char.chr (Char.code (Bytes.get b (hdr - 1)) lxor 1));
    Bytes.to_string b
  in
  let adversarial = String.concat "" (List.init 5 (fun _ -> bad_crc)) in
  Helpers.check_bool "all probes fail = torn" false
    (Codec.valid_frame_after adversarial 0);
  Helpers.check_bool "budget exhaustion is conservative (interior)" true
    (Codec.valid_frame_after ~budget:1 adversarial 0)

let test_codec_frame_shape () =
  Helpers.check_int "write format version" 2 Codec.write_version;
  Alcotest.(check (list int))
    "supported versions" [ 1; 2 ] Codec.supported_versions;
  let frame = Codec.encode (Wal.Begin Tid.a) in
  Helpers.check_bool "frame longer than header" true
    (String.length frame > Codec.header_size Codec.write_version);
  Helpers.check_bool "magic byte 0" true (frame.[0] = '\xd7');
  Helpers.check_bool "magic byte 1" true (frame.[1] = 'W');
  Helpers.check_int "version byte" Codec.write_version (Char.code frame.[2]);
  (* v2 carries a little-endian shard id (written as 0 for now) between
     the version byte and the payload length *)
  Helpers.check_int "shard id" 0
    (Char.code frame.[3] lor (Char.code frame.[4] lsl 8));
  let v1 = Codec.encode ~version:Codec.v1 (Wal.Begin Tid.a) in
  Helpers.check_int "v1 version byte" 1 (Char.code v1.[2]);
  Helpers.check_int "v2 header is 2 bytes wider" 2
    (String.length frame - String.length v1)

let test_codec_torn_tail () =
  let bytes = Codec.encode_all sample_records in
  (* Drop the last byte: the final frame is torn, the rest decodes. *)
  match Codec.decode_all (String.sub bytes 0 (String.length bytes - 1)) with
  | Error c -> Alcotest.failf "misclassified as interior: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "torn tail reported" true (d.Codec.torn <> None);
      Helpers.check_int "one record lost" 4 (List.length d.Codec.records);
      Helpers.check_bool "survivors are a prefix" true
        (is_record_prefix d.Codec.records sample_records)

let test_codec_interior_corruption () =
  let bytes = Codec.encode_all sample_records in
  (* Flip a payload byte of the FIRST frame: later intact frames prove
     the damage is interior, so decode must refuse with the offset — and
     the verdict names the frame's format version. *)
  let b = Bytes.of_string bytes in
  let i = Codec.header_size Codec.write_version in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  match Codec.decode_all (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "interior corruption decoded silently"
  | Error c ->
      Helpers.check_int "corruption offset" 0 c.Codec.offset;
      Alcotest.(check (option int))
        "corruption carries frame version" (Some Codec.write_version) c.Codec.version

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

(* Satellite: interior-corruption verdicts must carry both the byte
   offset and the damaged frame's format version, for v1 and v2 frames
   alike — the negative-space counterpart of the golden files. *)
let test_corruption_offset_and_version () =
  List.iter
    (fun version ->
      (* good v-frame, then a corrupted v-frame, then a good one: the
         middle frame's CRC fails, the trailing intact frame forces the
         interior verdict. *)
      let f r = Codec.encode ~version r in
      let first = f (Wal.Begin Tid.a) in
      let victim = f (Wal.Operation (Tid.a, BA.deposit 5)) in
      let b = Bytes.of_string victim in
      let i = Codec.header_size version in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x08));
      let bytes = first ^ Bytes.to_string b ^ f (Wal.Commit Tid.a) in
      match Codec.decode_all bytes with
      | Ok _ -> Alcotest.failf "v%d interior corruption decoded silently" version
      | Error c ->
          Helpers.check_int
            (Fmt.str "v%d corruption offset" version)
            (String.length first) c.Codec.offset;
          Alcotest.(check (option int))
            (Fmt.str "v%d corruption version" version)
            (Some version) c.Codec.version;
          (* the rendered verdict names the version too *)
          Helpers.check_bool
            (Fmt.str "v%d verdict mentions the version" version)
            true
            (contains_sub
               (Fmt.str "%a" Codec.pp_corruption c)
               (Fmt.str "(v%d frame)" version)))
    Codec.supported_versions

(* A frame whose version byte names a future format is a foreign-version
   frame: with intact frames after it, refused with its offset and the
   unsupported version number; at the very tail, contained as a torn
   tail (indistinguishable from crash debris) — never misread as the
   current layout. *)
let test_foreign_version_refused () =
  let foreign =
    let b = Bytes.of_string (Codec.encode (Wal.Begin Tid.a)) in
    Bytes.set b 2 '\x09';
    Bytes.to_string b
  in
  let first = Codec.encode (Wal.Commit Tid.b) in
  (match Codec.decode_all (first ^ foreign ^ Codec.encode (Wal.Abort Tid.b)) with
  | Ok _ -> Alcotest.fail "interior foreign-version frame decoded silently"
  | Error c ->
      Helpers.check_int "foreign frame offset" (String.length first)
        c.Codec.offset;
      Alcotest.(check (option int)) "foreign version reported" (Some 9)
        c.Codec.version);
  match Codec.decode_all (first ^ foreign) with
  | Error c ->
      Alcotest.failf "foreign tail should be contained as torn: %a"
        Codec.pp_corruption c
  | Ok d ->
      Helpers.check_int "intact prefix kept" 1 (List.length d.Codec.records);
      (match d.Codec.torn with
      | Some c ->
          Alcotest.(check (option int)) "torn verdict names the version"
            (Some 9) c.Codec.version
      | None -> Alcotest.fail "foreign tail not reported as torn")

(* Version-negotiation round trips: pure v1, pure v2, and interleaved
   frames all decode to the same records — payload encoding is shared,
   only the frame header differs. *)
let test_mixed_version_roundtrip () =
  let v1 = Codec.encode_all ~version:Codec.v1 sample_records in
  let v2 = Codec.encode_all ~version:Codec.v2 sample_records in
  Helpers.check_bool "v1 and v2 images differ" true (not (String.equal v1 v2));
  List.iter
    (fun (label, bytes) ->
      match Codec.decode_all bytes with
      | Error c -> Alcotest.failf "%s refused: %a" label Codec.pp_corruption c
      | Ok d ->
          Helpers.check_bool (label ^ " round trips") true
            (List.equal Wal.equal_record sample_records d.Codec.records
            && d.Codec.torn = None))
    [ ("pure v1", v1); ("pure v2", v2) ];
  let mixed =
    String.concat ""
      (List.mapi
         (fun i r ->
           Codec.encode ~version:(if i mod 2 = 0 then Codec.v1 else Codec.v2) r)
         sample_records)
  in
  match Codec.decode_all mixed with
  | Error c -> Alcotest.failf "mixed-version log refused: %a" Codec.pp_corruption c
  | Ok d ->
      Helpers.check_bool "mixed-version log round trips" true
        (List.equal Wal.equal_record sample_records d.Codec.records)

(* A v1 log loaded by the current binary: replays bit-for-bit, appends
   land in v2 (a mixed log), and checkpoint_truncate rewrites pure v2 —
   the incremental upgrade path. *)
let test_disk_wal_v1_upgrade () =
  let v1_bytes = Codec.encode_all ~version:Codec.v1 sample_records in
  let storage = Storage.of_string v1_bytes in
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "v1 log refused: %a" Codec.pp_corruption c
  | Ok dw ->
      let wal = Disk_wal.wal dw in
      Helpers.check_bool "v1 records replay bit-for-bit" true
        (List.equal Wal.equal_record sample_records (Wal.records wal));
      Wal.append wal (Wal.Commit Tid.b);
      Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
      Wal.force wal;
      (* the log is now mixed: the v1 prefix untouched, v2 appended *)
      let mixed = Storage.read_all storage in
      Helpers.check_bool "v1 prefix untouched" true
        (String.length mixed > String.length v1_bytes
        && String.equal v1_bytes (String.sub mixed 0 (String.length v1_bytes)));
      Helpers.check_int "appends use the write version" Codec.write_version
        (Char.code mixed.[String.length v1_bytes + 2]);
      (match Disk_wal.load storage with
      | Error c -> Alcotest.failf "mixed log refused: %a" Codec.pp_corruption c
      | Ok dw2 ->
          Helpers.check_bool "mixed log reloads" true
            (List.equal Wal.equal_record (Wal.records wal)
               (Wal.records (Disk_wal.wal dw2))));
      ignore (Disk_wal.checkpoint_truncate dw);
      let compacted = Storage.read_all storage in
      (* every surviving frame was rewritten in the write version *)
      let rec check pos =
        if pos < String.length compacted then
          match Codec.read_header compacted pos with
          | Error c ->
              Alcotest.failf "compacted log unreadable at %d: %a" pos
                Codec.pp_corruption c
          | Ok h ->
              Helpers.check_int
                (Fmt.str "frame at %d is write-version" pos)
                Codec.write_version h.Codec.h_version;
              check (pos + h.Codec.h_size + h.Codec.h_payload_len)
      in
      check 0

(* ------------------------------------------------------------------ *)
(* Storage backends.                                                   *)

let test_memory_semantics () =
  let s = Storage.memory () in
  Helpers.check_int "empty" 0 (Storage.size s);
  Storage.write_at s ~pos:0 "hello";
  Helpers.check_int "size" 5 (Storage.size s);
  (* WAL semantics: a write at pos discards everything beyond it. *)
  Storage.write_at s ~pos:2 "xy";
  Alcotest.(check string) "overwrite truncates" "hexy" (Storage.read_all s);
  Alcotest.check_raises "past-end write rejected"
    (Invalid_argument "Storage.write_at(memory): pos 9 outside [0,4]") (fun () ->
      Storage.write_at s ~pos:9 "z");
  let seeded = Storage.of_string "abc" in
  Helpers.check_int "seeded size" 3 (Storage.size seeded);
  (* read_all is a snapshot: later writes, appends or interior
     overwrites, leave a returned string as it was. *)
  let snapshot = Storage.read_all seeded in
  Storage.write_at seeded ~pos:3 "defgh";
  Storage.write_at seeded ~pos:1 "XY";
  Alcotest.(check string) "snapshot unchanged" "abc" snapshot;
  Alcotest.(check string) "interior write truncates after it" "aXY"
    (Storage.read_all seeded);
  (* Many appends grow the buffer; the contents are exactly the writes. *)
  let grown = Storage.memory () in
  let chunks =
    List.init 200 (fun i -> String.make ((i mod 7) + 1) (Char.chr (65 + (i mod 26))))
  in
  List.iter (fun c -> Storage.write_at grown ~pos:(Storage.size grown) c) chunks;
  Alcotest.(check string) "appends concatenate" (String.concat "" chunks)
    (Storage.read_all grown)

let test_file_backend () =
  let path = Filename.temp_file "tm_storage" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Storage.file path in
      Storage.write_at s ~pos:0 "hello world";
      Storage.write_at s ~pos:6 "wal";
      Storage.force s;
      Alcotest.(check string) "pwrite + ftruncate" "hello wal" (Storage.read_all s);
      Storage.close s;
      (* Reopen: the bytes survived the handle. *)
      let s2 = Storage.file path in
      Alcotest.(check string) "persistent" "hello wal" (Storage.read_all s2);
      Helpers.check_int "size" 9 (Storage.size s2);
      Storage.close s2)

(* The file handle tracks the end of the file instead of asking for it:
   appends grow it, an interior write still truncates, a write past the
   end is refused, and a reopened handle reads the size from the file. *)
let test_file_backend_tracked_end () =
  let path = Filename.temp_file "tm_storage_end" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Storage.file path in
      List.iter (fun c -> Storage.write_at s ~pos:(Storage.size s) c) [ "abc"; "defg"; "hi" ];
      Helpers.check_int "appends grow the end" 9 (Storage.size s);
      Storage.write_at s ~pos:2 "XY";
      Helpers.check_int "interior write moves the end back" 4 (Storage.size s);
      Helpers.check_int "and truncates the file" 4 (Unix.stat path).Unix.st_size;
      Alcotest.(check string) "contents" "abXY" (Storage.read_all s);
      (match Storage.write_at s ~pos:5 "z" with
      | () -> Alcotest.fail "write past the end accepted"
      | exception Invalid_argument _ -> ());
      Storage.write_at s ~pos:4 "tail";
      Storage.close s;
      let s2 = Storage.file path in
      Helpers.check_int "reopened size" 8 (Storage.size s2);
      Alcotest.(check string) "reopened contents" "abXYtail" (Storage.read_all s2);
      Storage.write_at s2 ~pos:8 "!";
      Alcotest.(check string) "append after reopen" "abXYtail!" (Storage.read_all s2);
      Storage.close s2)

let test_faulty_torn_write () =
  let inner = Storage.memory () in
  let cfg = { Storage.no_faults with torn_write = 1. } in
  let s = Storage.faulty ~seed:42 cfg inner in
  let reg = Tm_obs.Metrics.create () in
  Storage.attach_metrics s reg;
  (match Storage.write_at s ~pos:0 "0123456789" with
  | () -> Alcotest.fail "torn write did not raise"
  | exception Storage.Transient _ -> ());
  let persisted = Storage.read_all inner in
  Helpers.check_bool "strict prefix persisted" true
    (String.length persisted > 0
    && String.length persisted < 10
    && String.equal persisted (String.sub "0123456789" 0 (String.length persisted)));
  Helpers.check_int "fault counted" 1 (Storage.fault_count s);
  Helpers.check_int "fault metric" 1
    (Tm_obs.Metrics.counter_value reg "tm_storage_faults_total"
       ~labels:[ ("backend", "memory"); ("kind", "torn_write") ]);
  (* Retrying at the same position overwrites the torn prefix. *)
  let clean = Storage.faulty ~seed:42 Storage.no_faults inner in
  Storage.write_at clean ~pos:0 "0123456789";
  Alcotest.(check string) "retry overwrites debris" "0123456789"
    (Storage.read_all inner)

(* ------------------------------------------------------------------ *)
(* Disk_wal: persistence, reload, retry.                               *)

let append_sample wal = List.iter (Wal.append wal) sample_records

let test_disk_wal_roundtrip () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  append_sample (Disk_wal.wal dw);
  Wal.force (Disk_wal.wal dw);
  Helpers.check_bool "bytes persisted" true (Storage.size storage > 0);
  Helpers.check_int "bytes_written = backend size" (Storage.size storage)
    (Disk_wal.bytes_written dw);
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "load failed: %a" Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_bool "records survive reload" true
        (List.equal Wal.equal_record sample_records (Wal.records (Disk_wal.wal dw2)))

let test_disk_wal_create_discards_stale () =
  let storage = Storage.of_string "stale garbage from a previous log" in
  let dw = Disk_wal.create storage in
  Helpers.check_int "backend emptied" 0 (Storage.size storage);
  Wal.append (Disk_wal.wal dw) (Wal.Begin Tid.a);
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "load failed: %a" Codec.pp_corruption c
  | Ok dw2 -> Helpers.check_int "only new record" 1 (Wal.length (Disk_wal.wal dw2))

let test_disk_wal_torn_tail_truncated () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  append_sample (Disk_wal.wal dw);
  (* Crash mid-append: the backend holds a torn final frame. *)
  let bytes = Storage.read_all storage in
  let torn = Storage.of_string (String.sub bytes 0 (String.length bytes - 3)) in
  (match Disk_wal.load torn with
  | Error c -> Alcotest.failf "torn tail misclassified: %a" Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_int "torn record dropped" 4 (Wal.length (Disk_wal.wal dw2));
      (* The next append lands where the intact prefix ends, overwriting
         the debris; a reload then sees the fresh record. *)
      Wal.append (Disk_wal.wal dw2) (Wal.Commit Tid.b);
      match Disk_wal.load torn with
      | Error c -> Alcotest.failf "post-repair load failed: %a" Codec.pp_corruption c
      | Ok dw3 ->
          Helpers.check_bool "repair overwrote debris" true
            (List.equal Wal.equal_record
               (List.filteri (fun i _ -> i < 4) sample_records @ [ Wal.Commit Tid.b ])
               (Wal.records (Disk_wal.wal dw3))))

let test_disk_wal_interior_corruption_refused () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  append_sample (Disk_wal.wal dw);
  let bytes = Storage.read_all storage in
  let b = Bytes.of_string bytes in
  let hdr = Codec.header_size Codec.write_version in
  Bytes.set b hdr (Char.chr (Char.code (Bytes.get b hdr) lxor 1));
  match Disk_wal.load (Storage.of_string (Bytes.to_string b)) with
  | Ok _ -> Alcotest.fail "interior corruption loaded silently"
  | Error c -> Helpers.check_int "offset of corrupt frame" 0 c.Codec.offset

let test_disk_wal_checkpoint_truncate () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  let wal = Disk_wal.wal dw in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Commit Tid.a ];
  Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
  Wal.append wal (Wal.Commit Tid.b);
  let before = Storage.size storage in
  let dropped = Disk_wal.checkpoint_truncate dw in
  Helpers.check_int "records dropped" 3 dropped;
  Helpers.check_bool "backend compacted" true (Storage.size storage < before);
  match Disk_wal.load storage with
  | Error c -> Alcotest.failf "load after truncate: %a" Codec.pp_corruption c
  | Ok dw2 ->
      let c1, l1 = Wal.replay (Wal.records wal) in
      let c2, l2 = Wal.replay (Wal.records (Disk_wal.wal dw2)) in
      Alcotest.check Helpers.ops "replay preserved" c1 c2;
      Helpers.check_bool "losers preserved" true (Tid.Set.equal l1 l2)

(* --- crash-atomic compaction: the journal + redo protocol --- *)

(* A disk log with a checkpoint, plus the three byte images the
   compaction protocol moves between: the old log, the journal
   (intent + compacted image) appended after it, and the image alone.
   The image is shorter than the old log, so the journal has no zero
   fill and [intent] is exactly the intent frame. *)
let compaction_fixture () =
  let storage = Storage.memory () in
  let dw = Disk_wal.create storage in
  let wal = Disk_wal.wal dw in
  List.iter (Wal.append wal)
    [ Wal.Begin Tid.a; Wal.Operation (Tid.a, BA.deposit 1); Wal.Commit Tid.a ];
  Wal.append wal (Wal.Checkpoint (Wal.fuzzy_checkpoint (Wal.records wal)));
  Wal.append wal (Wal.Commit Tid.b);
  let old_bytes = Storage.read_all storage in
  let mirror = Wal.of_records (Wal.records wal) in
  ignore (Wal.truncate_to_checkpoint mirror);
  let image = Codec.encode_all (Wal.records mirror) in
  let journal = Disk_wal.journal ~shard:0 ~old_len:(String.length old_bytes) image in
  let intent = String.sub journal 0 (String.length journal - String.length image) in
  Helpers.check_bool "fixture image shrinks" true
    (String.length image < String.length old_bytes);
  (Wal.records wal, Wal.records mirror, old_bytes, intent, image)

(* Crash after the journal write was cut short: the compaction never
   committed, so reload rolls it back to exactly the old log — and the
   debris is overwritten by the next append. *)
let test_truncate_journal_rollback () =
  let old_records, _, old_bytes, intent, image = compaction_fixture () in
  List.iter
    (fun cut ->
      let state = old_bytes ^ String.sub (intent ^ image) 0 cut in
      match Disk_wal.load (Storage.of_string state) with
      | Error c ->
          Alcotest.failf "cut %d refused: %a" cut Codec.pp_corruption c
      | Ok dw ->
          Helpers.check_bool
            (Fmt.str "cut %d rolls back to the old log" cut)
            true
            (List.equal Wal.equal_record old_records
               (Wal.records (Disk_wal.wal dw))))
    [ 1; String.length intent; String.length intent + 3 ]

(* Crash inside the install: the complete journal is found and the
   install is redone — reload sees exactly the compacted log, and the
   backend afterwards holds exactly the image (journal erased). *)
let test_truncate_journal_redo () =
  let _, new_records, old_bytes, intent, image = compaction_fixture () in
  let full = old_bytes ^ intent ^ image in
  List.iter
    (fun k ->
      let state =
        String.sub image 0 k
        ^ String.sub full k (String.length full - k)
      in
      let storage = Storage.of_string state in
      match Disk_wal.load storage with
      | Error c -> Alcotest.failf "install byte %d refused: %a" k Codec.pp_corruption c
      | Ok dw ->
          Helpers.check_bool
            (Fmt.str "install byte %d redoes to the compacted log" k)
            true
            (List.equal Wal.equal_record new_records
               (Wal.records (Disk_wal.wal dw)));
          Alcotest.(check string)
            (Fmt.str "install byte %d leaves exactly the image" k)
            image (Storage.read_all storage))
    [ 0; 1; String.length image / 2 ]

(* A committed journal whose image no longer verifies must be refused as
   corruption — redoing the install from damaged bytes would destroy
   the old log with nothing sound to replace it. *)
let test_truncate_journal_damaged_image_refused () =
  let _, _, old_bytes, intent, image = compaction_fixture () in
  let b = Bytes.of_string (old_bytes ^ intent ^ image) in
  (* flip a bit inside the journaled image's first payload *)
  let off =
    String.length old_bytes + String.length intent
    + Codec.header_size Codec.write_version
  in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
  match Disk_wal.load (Storage.of_string (Bytes.to_string b)) with
  | Ok _ -> Alcotest.fail "damaged journal image loaded silently"
  | Error c ->
      Helpers.check_bool "refusal points into the journal image" true
        (c.Codec.offset >= String.length old_bytes + String.length intent)

(* A compaction whose image is longer than the old log: a v1 log (one
   transaction, a checkpoint, 40 more) rewritten as v2, which drops
   little and widens every frame.  The journal is zero-filled up to the
   image's end, so the install never overwrites it. *)
let grown_fixture () =
  let txn i =
    let t = Tid.of_int i in
    [ Wal.Begin t; Wal.Operation (t, BA.deposit 1); Wal.Commit t ]
  in
  let head = txn 0 in
  let recs =
    head
    @ [ Wal.Checkpoint (Wal.fuzzy_checkpoint head) ]
    @ List.concat_map txn (List.init 40 (fun i -> i + 1))
  in
  let old_bytes = Codec.encode_all ~version:Codec.v1 recs in
  let mirror = Wal.of_records recs in
  ignore (Wal.truncate_to_checkpoint mirror);
  let image = Codec.encode_all (Wal.records mirror) in
  Helpers.check_bool "fixture image grows" true
    (String.length image > String.length old_bytes);
  let journal = Disk_wal.journal ~shard:0 ~old_len:(String.length old_bytes) image in
  (recs, Wal.records mirror, old_bytes, journal, image)

(* Crash inside a grown journal's write, before, at and after the end
   of its zero fill: reload rolls back to the old log (the fill decodes
   as a torn tail).  Once the intent frame is whole the resolver finds
   it and also erases the journal debris. *)
let test_grown_journal_rollback () =
  let old_records, _, old_bytes, journal, image = grown_fixture () in
  let fill = String.length image - String.length old_bytes in
  let intent_end = String.length journal - String.length image in
  List.iter
    (fun cut ->
      let storage = Storage.of_string (old_bytes ^ String.sub journal 0 cut) in
      match Disk_wal.load storage with
      | Error c -> Alcotest.failf "cut %d refused: %a" cut Codec.pp_corruption c
      | Ok dw ->
          Helpers.check_bool
            (Fmt.str "cut %d rolls back to the old log" cut)
            true
            (List.equal Wal.equal_record old_records (Wal.records (Disk_wal.wal dw)));
          if cut >= intent_end then
            Alcotest.(check string)
              (Fmt.str "cut %d erases the journal debris" cut)
              old_bytes (Storage.read_all storage))
    [ 1; fill; fill + 1; intent_end; String.length journal - 1 ]

(* Crash inside a grown image's install, including past the old log's
   end: the journal is intact, so the install is redone. *)
let test_grown_journal_redo () =
  let _, new_records, old_bytes, journal, image = grown_fixture () in
  let full = old_bytes ^ journal in
  List.iter
    (fun k ->
      let storage =
        Storage.of_string (String.sub image 0 k ^ String.sub full k (String.length full - k))
      in
      match Disk_wal.load storage with
      | Error c -> Alcotest.failf "install byte %d refused: %a" k Codec.pp_corruption c
      | Ok dw ->
          Helpers.check_bool
            (Fmt.str "install byte %d redoes to the compacted log" k)
            true
            (List.equal Wal.equal_record new_records (Wal.records (Disk_wal.wal dw)));
          Alcotest.(check string)
            (Fmt.str "install byte %d leaves exactly the image" k)
            image (Storage.read_all storage))
    [ 0; String.length old_bytes; String.length old_bytes + 1; String.length image ]

(* The same upgrade through [checkpoint_truncate] itself, on a file. *)
let test_grown_checkpoint_truncate_on_file () =
  let recs, new_records, old_bytes, _, image = grown_fixture () in
  let path = Filename.temp_file "tm_grown" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let f = Storage.file path in
      Storage.write_at f ~pos:0 old_bytes;
      let dw =
        match Disk_wal.load f with
        | Ok dw -> dw
        | Error c -> Alcotest.failf "v1 log refused: %a" Codec.pp_corruption c
      in
      Helpers.check_int "records dropped" (List.length recs - List.length new_records)
        (Disk_wal.checkpoint_truncate dw);
      Storage.close f;
      let f2 = Storage.file path in
      Alcotest.(check string) "the file holds exactly the image" image (Storage.read_all f2);
      (match Disk_wal.load f2 with
      | Ok dw2 ->
          Helpers.check_bool "reloads the compacted log" true
            (List.equal Wal.equal_record new_records (Wal.records (Disk_wal.wal dw2)))
      | Error c -> Alcotest.failf "compacted log refused: %a" Codec.pp_corruption c);
      Storage.close f2)

(* Regression: a fresh log must force the truncation of a stale
   previous-incarnation log before returning — otherwise a crash before
   the first commit flush resurrects the stale log.  Observed through
   the probe wrapper: the force lands after the truncating write. *)
let test_create_forces_stale_truncation () =
  let events = ref [] in
  let probed =
    Storage.probe
      ~on_write:(fun ~pos len -> events := `Write (pos, len) :: !events)
      ~on_force:(fun () -> events := `Force :: !events)
      (Storage.of_string "stale garbage from a previous log")
  in
  ignore (Disk_wal.create probed);
  (match List.rev !events with
  | `Write (0, 0) :: `Force :: _ -> ()
  | _ -> Alcotest.fail "create must truncate at 0 then force");
  (* and on a real file: same ordering through the Unix backend *)
  let path = Filename.temp_file "tm_create_force" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let f = Storage.file path in
      Storage.write_at f ~pos:0 "stale";
      Storage.force f;
      let fevents = ref [] in
      let fprobed =
        Storage.probe
          ~on_write:(fun ~pos len -> fevents := `Write (pos, len) :: !fevents)
          ~on_force:(fun () -> fevents := `Force :: !fevents)
          f
      in
      ignore (Disk_wal.create fprobed);
      Helpers.check_int "file emptied" 0 (Storage.size f);
      (match List.rev !fevents with
      | `Write (0, 0) :: `Force :: _ -> ()
      | _ -> Alcotest.fail "create must truncate the file at 0 then force");
      Storage.close f)

(* Seeded write-side faults: the retry loop absorbs every torn write and
   transient error, the persisted log equals the fault-free run, and the
   absorbed faults are visible in [retries] and the metrics registry. *)
let test_disk_wal_retry_absorbs_faults () =
  let inner = Storage.memory () in
  let faulty = Storage.faulty ~seed:7 Storage.write_faults inner in
  let dw = Disk_wal.create faulty in
  let reg = Tm_obs.Metrics.create () in
  Wal.attach_metrics (Disk_wal.wal dw) reg;
  for i = 0 to 19 do
    let t = Tid.of_int i in
    Wal.append (Disk_wal.wal dw) (Wal.Begin t);
    Wal.append (Disk_wal.wal dw) (Wal.Operation (t, BA.deposit 1));
    Wal.append (Disk_wal.wal dw) (Wal.Commit t);
    Wal.force (Disk_wal.wal dw)
  done;
  Helpers.check_bool "faults were injected" true (Storage.fault_count faulty > 0);
  Helpers.check_bool "retries absorbed them" true (Disk_wal.retries dw > 0);
  Helpers.check_int "retry metric matches" (Disk_wal.retries dw)
    (Tm_obs.Metrics.counter_value reg "tm_storage_retries_total");
  Helpers.check_bool "fault metric populated" true
    (Tm_obs.Metrics.counter_value reg "tm_storage_faults_total"
       ~labels:[ ("backend", "memory"); ("kind", "torn_write") ]
     > 0
    || Tm_obs.Metrics.counter_value reg "tm_storage_faults_total"
         ~labels:[ ("backend", "memory"); ("kind", "write_error") ]
       > 0);
  (* The underlying bytes decode to exactly the appended records. *)
  match Disk_wal.load inner with
  | Error c -> Alcotest.failf "faulty run corrupted the log: %a" Codec.pp_corruption c
  | Ok dw2 ->
      Helpers.check_bool "identical to fault-free log" true
        (List.equal Wal.equal_record
           (Wal.records (Disk_wal.wal dw))
           (Wal.records (Disk_wal.wal dw2)))

let test_disk_wal_gives_up () =
  let cfg = { Storage.no_faults with write_error = 1. } in
  let storage = Storage.faulty ~seed:1 cfg (Storage.memory ()) in
  let dw = Disk_wal.create storage in
  (match Wal.append (Disk_wal.wal dw) (Wal.Begin Tid.a) with
  | () -> Alcotest.fail "append succeeded under write_error = 1"
  | exception Disk_wal.Storage_unavailable { attempts; _ } ->
      Helpers.check_int "constant attempt budget spent" 8 attempts);
  Helpers.check_int "every failed attempt but the last was retried" 7
    (Disk_wal.retries dw)

(* Regression: an append whose storage write gives up must not land in
   memory.  Otherwise the in-memory log holds a commit record storage
   lacks, and a later checkpoint + compaction writes that aborted
   transaction to storage as committed. *)
let test_failed_append_leaves_memory_equal_to_storage () =
  let failing = ref false in
  let inner = Storage.memory () in
  let storage =
    Storage.probe inner ~on_write:(fun ~pos:_ _ ->
        if !failing then raise (Storage.Transient "probe: write refused"))
  in
  let dw = Disk_wal.create storage in
  let wal = Disk_wal.wal dw in
  let db =
    Tm_engine.Durable_database.create ~wal
      [
        Tm_engine.Atomic_object.create ~spec:BA.spec ~conflict:BA.nrbc_conflict
          ~recovery:Tm_engine.Recovery.UIP ();
      ]
  in
  let module DD = Tm_engine.Durable_database in
  let t = DD.begin_txn db in
  ignore (DD.invoke db t ~obj:"BA" (Op.invocation ~args:[ Value.int 5 ] "deposit"));
  let length = Wal.length wal and lsn = Wal.last_lsn wal in
  failing := true;
  (match DD.try_commit db t with
  | _ -> Alcotest.fail "commit succeeded with storage refusing writes"
  | exception Disk_wal.Storage_unavailable _ -> ());
  Helpers.check_int "length unchanged" length (Wal.length wal);
  Helpers.check_int "last_lsn unchanged" lsn (Wal.last_lsn wal);
  failing := false;
  DD.abort db t;
  let on_storage () =
    match Disk_wal.load inner with
    | Ok dw2 -> Wal.records (Disk_wal.wal dw2)
    | Error c -> Alcotest.failf "reload: %a" Codec.pp_corruption c
  in
  Helpers.check_bool "memory equals storage" true
    (List.equal Wal.equal_record (Wal.records wal) (on_storage ()));
  Helpers.check_int "nothing committed" 0
    (Tm_engine.Database.committed_count (DD.database db));
  DD.checkpoint db;
  ignore (Disk_wal.checkpoint_truncate dw);
  let committed, _ = Wal.replay (on_storage ()) in
  Alcotest.check Helpers.ops "the aborted deposit stays aborted" [] committed

let suite =
  [
    prop_roundtrip;
    prop_versioned_roundtrip;
    prop_mixed_version_roundtrip;
    prop_truncation;
    prop_bit_flip;
    Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
    prop_crc32_matches_reference;
    Alcotest.test_case "crc with top bit set round trips" `Quick
      test_crc_top_bit_round_trip;
    Alcotest.test_case "frame reader stays inside its payload" `Quick
      test_frame_reader_stays_in_payload;
    Alcotest.test_case "codec frame shape" `Quick test_codec_frame_shape;
    Alcotest.test_case "codec torn tail" `Quick test_codec_torn_tail;
    Alcotest.test_case "codec interior corruption" `Quick
      test_codec_interior_corruption;
    Alcotest.test_case "corruption carries offset + frame version (v1, v2)"
      `Quick test_corruption_offset_and_version;
    Alcotest.test_case "foreign-version frame refused with offset" `Quick
      test_foreign_version_refused;
    Alcotest.test_case "v1/v2/mixed-version round trips" `Quick
      test_mixed_version_roundtrip;
    Alcotest.test_case "v1 log upgrade: load, mixed appends, v2 rewrite" `Quick
      test_disk_wal_v1_upgrade;
    Alcotest.test_case "codec truncate-intent round trip" `Quick
      test_codec_truncate_intent_roundtrip;
    Alcotest.test_case "valid_frame_after: verdicts and probe budget" `Quick
      test_valid_frame_after;
    Alcotest.test_case "memory semantics" `Quick test_memory_semantics;
    Alcotest.test_case "file backend" `Quick test_file_backend;
    Alcotest.test_case "file backend tracks its end" `Quick
      test_file_backend_tracked_end;
    Alcotest.test_case "faulty torn write" `Quick test_faulty_torn_write;
    Alcotest.test_case "disk wal roundtrip" `Quick test_disk_wal_roundtrip;
    Alcotest.test_case "create discards stale log" `Quick
      test_disk_wal_create_discards_stale;
    Alcotest.test_case "torn tail truncated on load" `Quick
      test_disk_wal_torn_tail_truncated;
    Alcotest.test_case "interior corruption refused" `Quick
      test_disk_wal_interior_corruption_refused;
    Alcotest.test_case "checkpoint truncate compacts backend" `Quick
      test_disk_wal_checkpoint_truncate;
    Alcotest.test_case "truncation journal: rollback" `Quick
      test_truncate_journal_rollback;
    Alcotest.test_case "truncation journal: redo" `Quick
      test_truncate_journal_redo;
    Alcotest.test_case "truncation journal: damaged image refused" `Quick
      test_truncate_journal_damaged_image_refused;
    Alcotest.test_case "grown journal: rollback across the zero fill" `Quick
      test_grown_journal_rollback;
    Alcotest.test_case "grown journal: redo" `Quick test_grown_journal_redo;
    Alcotest.test_case "grown checkpoint truncate on a file" `Quick
      test_grown_checkpoint_truncate_on_file;
    Alcotest.test_case "create forces stale-log truncation" `Quick
      test_create_forces_stale_truncation;
    Alcotest.test_case "retry absorbs injected faults" `Quick
      test_disk_wal_retry_absorbs_faults;
    Alcotest.test_case "storage unavailable after budget" `Quick
      test_disk_wal_gives_up;
    Alcotest.test_case "failed append leaves memory equal to storage" `Quick
      test_failed_append_leaves_memory_equal_to_storage;
  ]
