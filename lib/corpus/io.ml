module N = Bignum.Nat

exception Corrupt of string

let write_int oc n =
  if n < 0 || n > 0x3FFFFFFF then invalid_arg "Corpus.Io.write_int: out of range";
  output_binary_int oc n

let read_int ic =
  let n = input_binary_int ic in
  if n < 0 then raise (Corrupt "negative length field");
  n

let write_string oc s =
  write_int oc (String.length s);
  output_string oc s

(* A fuzzed or truncated header can claim up to two billion elements:
   compare the count against what is actually left in the channel
   before anything is allocated from it. Checkpoint channels are always
   files; a non-seekable channel (Sys_error from the length probe)
   skips the check and falls back to the End_of_file of the reads. *)
let read_count ic ~min_bytes =
  let n = read_int ic in
  (match in_channel_length ic with
  | total ->
    if n * min_bytes > total - pos_in ic then
      raise (Corrupt "count overruns remaining input")
  | exception Sys_error _ -> ());
  n

let read_string ic =
  let len = read_count ic ~min_bytes:1 in
  try really_input_string ic len
  with End_of_file -> raise (Corrupt "truncated string record")

let write_nat oc n = write_string oc (N.to_bytes_be n)
let read_nat ic = N.of_bytes_be (read_string ic)
