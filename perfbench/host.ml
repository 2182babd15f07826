let nproc () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | ic ->
      let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      Option.value n ~default:(Domain.recommended_domain_count ())
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

let under ~mount path =
  mount = "/"
  || path = mount
  || String.length path > String.length mount
     && String.sub path 0 (String.length mount) = mount
     && path.[String.length mount] = '/'

(* The filesystem of the longest mount point containing [dir]. *)
let fs_type dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  match open_in "/proc/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let best = ref ("", "unknown") in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | _ :: mount :: fs :: _
             when under ~mount path && String.length mount >= String.length (fst !best) ->
               best := (mount, fs)
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      snd !best
