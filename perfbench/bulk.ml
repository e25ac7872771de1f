(* The [bulk] workload: the CLI [factor] default — dedup, then the
   k = 16 subset batch GCD — over one key dump. The traced pass adds
   the single-tree backend, [factor_batch] recomposed from its public
   steps, the root multiply and a run on [nproc] domains (the timed
   passes run on the default pool, which run.py sizes to one domain). *)

module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd
module B = Batchgcd.Backend
module PT = Batchgcd.Product_tree
module RT = Batchgcd.Remainder_tree

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.trim l with "" -> None | l -> Some l)

let parse_hex lines =
  Array.of_list (List.map (fun l -> N.of_string ("0x" ^ l)) lines)

(* [factor_batch] step by step: tree, Barrett precompute (cold: the
   tree is fresh), mod-square descent, then one gcd per leaf. *)
let recomposed moduli =
  let pool = Parallel.Pool.get () in
  let tree, tree_s =
    Span.measure "batchgcd.product_tree" (fun () -> PT.build ~pool moduli)
  in
  let (), pre_s =
    Span.measure "batchgcd.precompute" (fun () ->
        PT.precompute ~pool ~squares:true tree)
  in
  let zs, descent_s =
    Span.measure "batchgcd.descent" (fun () ->
        RT.remainders_mod_square ~pool tree (PT.root tree))
  in
  let findings, leaf_s =
    Span.measure "batchgcd.leaf_gcd" (fun () ->
        let divisors =
          Array.mapi
            (fun i m -> N.gcd m (BG.own_subset_component m zs.(i)))
            moduli
        in
        BG.collect divisors moduli)
  in
  let depth = PT.depth tree in
  let root_mul_s =
    match if depth < 2 then [||] else PT.level tree (depth - 2) with
    | [| a; b |] ->
      snd (Span.measure "bignum.root_mul" (fun () -> N.mul a b))
    | _ -> 0.
  in
  ( findings,
    [
      ("product_tree_s", Out.Num tree_s);
      ("precompute_s", Out.Num pre_s);
      ("descent_s", Out.Num descent_s);
      ("leaf_gcd_s", Out.Num leaf_s);
      ("root_mul_ms", Out.Num (root_mul_s *. 1000.));
      ("tree_limbs", Out.Int (PT.total_limbs tree));
    ] )

let run ~moduli_file ~trace =
  (* Set-up is loading the dump: read, parse and dedup, once, cold. *)
  let moduli, setup_s =
    Span.measure "corpus.load_dedup" (fun () ->
        BG.dedup (parse_hex (read_lines moduli_file)))
  in
  let ksubset = B.ksubset_k B.default_subsets in
  let findings, factor_s =
    Span.measure "batchgcd.backend.ksubset" (fun () ->
        B.factor ksubset moduli)
  in
  let base =
    [
      ("total_s", Out.Num factor_s);
      ("setup_s", Out.Num setup_s);
      ("moduli", Out.Int (Array.length moduli));
      ("findings", Out.Int (List.length findings));
      ("findings_list", Out.findings findings);
    ]
  in
  if not trace then base
  else begin
    let tree_findings, tree_s =
      Span.measure "batchgcd.backend.tree" (fun () -> B.factor B.tree moduli)
    in
    let steps_findings, steps = recomposed moduli in
    let wide_findings, wide_s =
      Span.measure "parallel.ksubset_nproc" (fun () ->
          B.factor ksubset
            ~domains:(Domain.recommended_domain_count ())
            moduli)
    in
    let agree =
      Span.span "check.backends_agree" (fun () ->
          List.for_all
            (BG.findings_equal findings)
            [ tree_findings; steps_findings; wide_findings ])
    in
    base
    @ steps
    @ [
        ("ksubset_s", Out.Num factor_s);
        ("tree_s", Out.Num tree_s);
        ("bulk_speedup", Out.Num (factor_s /. wide_s));
        ("backends_agree", Out.Bool agree);
      ]
  end
