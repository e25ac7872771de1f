module N = Bignum.Nat
module Pool = Parallel.Pool

(* Barrett precomps are built lazily per level (or eagerly via
   [precompute]) and memoised in the option slots. The caches are
   single-writer: descents fill them from the calling domain before
   fanning a level out, and callers precompute a tree before sharing it
   across a parallel phase, so workers only ever read. Only the
   mod-square descent reads them; the plain and complement descents
   do not. *)
type t = {
  levels : N.t array array;
  sq_pre : N.precomp array option array;
}

(* Level-parallel cutoffs: a level fans out onto the pool only when it
   has enough independent nodes to share and each node is wide enough
   that the multiply dwarfs the dispatch cost. Near the root both
   conditions fail (one giant N.mul) and the build stays serial. *)
let min_par_nodes = 4
let min_par_limbs = 4

let level_parallel ~nodes ~width =
  nodes >= min_par_nodes && width >= min_par_limbs

(* Width of a level is its widest node: gating on the first node alone
   misclassifies a level whose leading node happens to be a narrow
   odd-one-out (e.g. a tiny modulus sorted first). *)
let max_width lvl =
  Array.fold_left (fun acc x -> Stdlib.max acc (N.size_limbs x)) 0 lvl

let build ?pool inputs =
  if Array.length inputs = 0 then invalid_arg "Product_tree.build: empty";
  Array.iter
    (fun x -> if N.is_zero x then invalid_arg "Product_tree.build: zero input")
    inputs;
  let rec up acc level =
    let n = Array.length level in
    if n = 1 then List.rev (level :: acc)
    else begin
      let pairs = (n + 1) / 2 in
      let node i =
        if (2 * i) + 1 < n then N.mul level.(2 * i) level.((2 * i) + 1)
        else level.(2 * i)
      in
      let next =
        if level_parallel ~nodes:pairs ~width:(max_width level) then
          Pool.init ?pool pairs node
        else Array.init pairs node
      in
      up (level :: acc) next
    end
  in
  let levels = Array.of_list (up [] inputs) in
  let d = Array.length levels in
  { levels; sq_pre = Array.make d None }

(* Reconstruct a tree from serialized levels (checkpoint restore).
   Only the shape is validated — the node values are trusted to be the
   products they claim to be, exactly as [build] trusts its inputs.
   Precomp caches start empty and refill lazily or via [precompute]. *)
let of_levels levels =
  let d = Array.length levels in
  if d = 0 then invalid_arg "Product_tree.of_levels: no levels";
  if Array.length levels.(d - 1) <> 1 then
    invalid_arg "Product_tree.of_levels: top level must hold one node";
  for k = 0 to d - 2 do
    let n = Array.length levels.(k) in
    if n = 0 then invalid_arg "Product_tree.of_levels: empty level";
    if Array.length levels.(k + 1) <> (n + 1) / 2 then
      invalid_arg "Product_tree.of_levels: level sizes do not halve"
  done;
  { levels; sq_pre = Array.make d None }

let leaves t = t.levels.(0)
let depth t = Array.length t.levels
let root t = t.levels.(depth t - 1).(0)

let level t k =
  if k < 0 || k >= depth t then invalid_arg "Product_tree.level: out of range"
  else t.levels.(k)

let total_limbs t =
  Array.fold_left
    (fun acc lvl ->
      Array.fold_left (fun acc n -> acc + N.size_limbs n) acc lvl)
    0 t.levels

(* Build one level's precomp array, fanning out under the same policy
   as the build itself (a precompute is a reciprocal, i.e. multiplies). *)
let precomp_level ?pool make lvl =
  let n = Array.length lvl in
  let node i = make lvl.(i) in
  if level_parallel ~nodes:n ~width:(max_width lvl) then
    Pool.init ?pool n node
  else Array.init n node

let sq_precomps ?pool t k =
  match t.sq_pre.(k) with
  | Some ps -> ps
  | None ->
    let ps =
      precomp_level ?pool (fun node -> N.precompute (N.sqr node)) t.levels.(k)
    in
    t.sq_pre.(k) <- Some ps;
    ps

(* Root-level precomps are never needed: the mod-square descent
   special-cases the top (the value pushed down is already smaller than
   root^2), so eager precomputation stops one level short. Only squared
   nodes are ever cached, so [~squares:false] has nothing to build. *)
let precompute ?pool ~squares t =
  if squares then
    for k = 0 to depth t - 2 do
      ignore (sq_precomps ?pool t k)
    done
