module N = Bignum.Nat
module Pool = Parallel.Pool

type finding = { index : int; modulus : N.t; divisor : N.t }

let resolve_pool pool domains =
  match pool with Some p -> p | None -> Pool.get ?domains ()

let dedup moduli =
  let store = Corpus.Store.create ~size:(Array.length moduli) () in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m)) moduli;
  Corpus.Store.to_array store

let finding_of index modulus divisor =
  if N.is_one divisor || N.is_zero divisor then None
  else Some { index; modulus; divisor }

let collect per_index_divisors moduli =
  let out = ref [] in
  for i = Array.length moduli - 1 downto 0 do
    match finding_of i moduli.(i) per_index_divisors.(i) with
    | Some f -> out := f :: !out
    | None -> ()
  done;
  !out

let naive moduli =
  let n = Array.length moduli in
  let divisors =
    Array.init n (fun i ->
        let m = moduli.(i) in
        let acc = ref N.one in
        for j = 0 to n - 1 do
          if j <> i then acc := N.rem (N.mul !acc (N.rem moduli.(j) m)) m
        done;
        N.gcd m !acc)
  in
  collect divisors moduli

let naive_pairwise_hits moduli =
  let n = Array.length moduli in
  let hits = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let g = N.gcd moduli.(i) moduli.(j) in
      if not (N.is_one g) then hits := (i, j, g) :: !hits
    done
  done;
  !hits

(* Divisor of leaf [m] from a remainder-mod-square descent (the
   Sharded sweep's): z = P mod m^2 is divisible by m, and
   z/m = (P/m) mod m. *)
let own_subset_component m z =
  let y, r = N.divmod z m in
  assert (N.is_zero r);
  y

(* The cross-subset job (i, j): reduce root j modulo root i and fold it
   into the running product [x] of the other subsets modulo root i. *)
let fold_cross_root ~root_i x root_j =
  let c = N.rem root_j root_i in
  if N.is_one x then c else N.rem (N.mul x c) root_i

let factor_subsets_trees ?pool ?domains ~k moduli =
  let n = Array.length moduli in
  if n = 0 then ([||], [])
  else begin
    let pool = resolve_pool pool domains in
    let k = Stdlib.max 1 (Stdlib.min k n) in
    (* Contiguous split; subset s covers [starts.(s), starts.(s+1)). *)
    let starts =
      Array.init (k + 1) (fun s -> s * n / k)
    in
    let subset s = Array.sub moduli starts.(s) (starts.(s + 1) - starts.(s)) in
    (* Outer parallelism is across subsets; the per-job tree kernels
       also receive the pool, so whichever level has spare domains
       (k = 1, or a single huge subset) still scales. Nested calls
       from inside pool workers degrade to serial automatically. *)
    let trees =
      Pool.map ~pool (fun s -> Product_tree.build ~pool (subset s))
        (Array.init k (fun s -> s))
    in
    let roots = Array.map Product_tree.root trees in
    (* Per subset i: the k - 1 cross jobs (i, j), j <> i, fold
       R_j mod R_i into X_i = (product of the other subsets) mod R_i,
       all at root size; then one complement descent of X_i through
       tree i leaves (P / m) mod m at every leaf m, P the product of
       the whole input — the same value the single tree reaches. A
       worker holds one subset's descent at a time. *)
    let subset_divisors i =
      let root_i = roots.(i) in
      let x = ref N.one in
      Array.iteri
        (fun j root_j -> if j <> i then x := fold_cross_root ~root_i !x root_j)
        roots;
      let tree = trees.(i) in
      Array.map2 N.gcd (Product_tree.leaves tree)
        (Remainder_tree.complements ~pool tree !x)
    in
    (* The leaf step the whole pipeline funnels into: one N.gcd per
       modulus, at modulus-sized operands — N.gcd dispatches these to
       the Lehmer kernel past WEAKKEYS_HGCD_THRESHOLD limbs (the
       gcd-outside-nat lint keeps that dispatch unbypassed). *)
    let divisors =
      Array.concat (Array.to_list (Pool.init ~pool k subset_divisors))
    in
    let segments = Array.mapi (fun s tree -> (starts.(s), tree)) trees in
    (segments, collect divisors moduli)
  end

let factor_batch ?pool ?domains moduli =
  snd (factor_subsets_trees ?pool ?domains ~k:1 moduli)

let factor_subsets ?pool ?domains ~k moduli =
  snd (factor_subsets_trees ?pool ?domains ~k moduli)

let findings_equal a b =
  let cmp f g =
    match Int.compare f.index g.index with
    | 0 -> (
      match N.compare f.modulus g.modulus with
      | 0 -> N.compare f.divisor g.divisor
      | c -> c)
    | c -> c
  in
  let sort l = List.sort cmp l in
  List.equal (fun f g -> cmp f g = 0) (sort a) (sort b)
