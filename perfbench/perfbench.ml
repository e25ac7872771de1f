(* One benchmark pass in a fresh process, driven by run.py:

     perfbench.exe info
     perfbench.exe study  --seed S --scale X [--trace]
     perfbench.exe bulk   --moduli FILE [--trace]
     perfbench.exe extend --base FILE --deltas FILE --dir DIR [--trace]
     perfbench.exe traffic --seed S --scale X

   Prints one JSON object on stdout. With --trace the object also
   carries every span the pass recorded. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (info | study | bulk | extend | traffic) \
     [--OPTION VALUE]... [--trace]";
  exit 2

let options args =
  let rec go acc = function
    | "--trace" :: rest -> go (("trace", "1") :: acc) rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let info () =
  let module N = Bignum.Nat in
  Out.Obj
    [
      ("nproc", Out.Int (Domain.recommended_domain_count ()));
      ("pool_domains", Out.Int (Parallel.Pool.size (Parallel.Pool.get ())));
      ( "nat_thresholds",
        Out.Obj
          [
            ("karatsuba", Out.Int !N.karatsuba_threshold);
            ("toom3", Out.Int !N.toom3_threshold);
            ("ntt", Out.Int !N.ntt_threshold);
            ("burnikel_ziegler", Out.Int !N.burnikel_ziegler_threshold);
            ("recip", Out.Int !N.recip_threshold);
            ("barrett", Out.Int !N.barrett_threshold);
            ("parallel_mul", Out.Int !N.parallel_mul_threshold);
            ("hgcd", Out.Int !N.hgcd_threshold);
          ] );
      ( "all_to_all_threshold",
        Out.Int (Batchgcd.Backend.all_to_all_threshold ()) );
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "info" :: _ -> Out.print (info ())
  | _ :: cmd :: args ->
    let opts = options args in
    let get key =
      match List.assoc_opt key opts with
      | Some v -> v
      | None ->
        Printf.eprintf "perfbench: %s needs --%s\n" cmd key;
        exit 2
    in
    let trace = List.mem_assoc "trace" opts in
    Span.tracing := trace;
    let fields =
      match cmd with
      | "study" ->
        Study.run ~seed:(get "seed")
          ~scale:(float_of_string (get "scale"))
          ~trace
      | "bulk" -> Bulk.run ~moduli_file:(get "moduli") ~trace
      | "extend" ->
        Extend.run ~base_file:(get "base") ~deltas_file:(get "deltas")
          ~dir:(get "dir") ~trace
      | "traffic" ->
        Traffic.run ~seed:(get "seed") ~scale:(float_of_string (get "scale"))
      | _ -> usage ()
    in
    let wall_s = Span.now () in
    Out.print
      (Out.Obj
         (fields
         @ [
             ("wall_s", Out.Num wall_s);
             ("peak_heap_mb", Out.Num (Out.peak_heap_mb ()));
             ("alloc_total_mb", Out.Num (Out.allocated_mb ()));
             ("spans", Out.spans ());
           ]))
  | _ -> usage ()
