(* A pass's result: one JSON object printed as a single line on stdout,
   read back by run.py. *)

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      kvs;
    Buffer.add_char b '}'

let print v =
  let b = Buffer.create 4096 in
  write b v;
  Buffer.add_char b '\n';
  print_string (Buffer.contents b);
  flush stdout

(* Allocation and heap figures from the GC, in MiB. [quick_stat]
   covers every domain of the process. *)
let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

let allocated_mb () =
  let s = Gc.quick_stat () in
  words_mb (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

let peak_heap_mb () =
  words_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

let spans () =
  List
    (List.map
       (fun (s : Span.t) ->
         List
           [ Str s.Span.name; Num s.Span.start; Num s.Span.stop;
             Int s.Span.parent ])
       (Span.all ()))

let findings fs =
  List
    (List.map
       (fun (f : Batchgcd.Batch_gcd.finding) ->
         List
           [ Str (Bignum.Nat.to_hex f.Batchgcd.Batch_gcd.modulus);
             Str (Bignum.Nat.to_hex f.Batchgcd.Batch_gcd.divisor) ])
       fs)
