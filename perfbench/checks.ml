open Tm_core

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let balances ~what ~expected ~got =
  if Array.length expected <> Array.length got then
    fail "%s: %d accounts expected, %d recovered" what (Array.length expected)
      (Array.length got)
  else
    let bad = ref None in
    Array.iteri
      (fun i e ->
        if !bad = None && e <> got.(i) then bad := Some (i, e, got.(i)))
      expected;
    match !bad with
    | None -> Ok ()
    | Some (i, e, g) -> fail "%s: account %d holds %d, expected %d" what i g e

let legal specs_and_ops =
  match
    List.find_opt (fun (spec, ops) -> not (Spec.legal spec ops)) specs_and_ops
  with
  | None -> Ok ()
  | Some (spec, ops) ->
      fail "committed operations of %s (%d ops) are not legal" (Spec.name spec)
        (List.length ops)

let accounting ~admitted ~committed ~gave_up =
  if committed + gave_up = admitted then Ok ()
  else
    fail "%d committed + %d given up <> %d admitted" committed gave_up admitted

let losers ~expected ~got =
  if Tid.Set.equal expected got then Ok ()
  else
    fail "loser set has %d transactions, expected %d (%d missing, %d extra)"
      (Tid.Set.cardinal got) (Tid.Set.cardinal expected)
      (Tid.Set.cardinal (Tid.Set.diff expected got))
      (Tid.Set.cardinal (Tid.Set.diff got expected))
