(** Remainder trees: push a value down a product tree to obtain, for
    every leaf, what batch GCD needs there, in quasilinear total time
    (Bernstein; as used in the paper's Section 3.2). Three descents:
    {!complements} ([(x * R / leaf_i) mod leaf_i], the one {!Batch_gcd}
    and {!Incremental} run), {!remainders_mod_square}
    ([v mod leaf_i^2]) and {!remainders} ([v mod leaf_i]).

    All descents are level-parallel: nodes within a level depend only
    on the level above, so they reduce concurrently on the given pool
    (default: the process-wide {!Parallel.Pool.get} pool) under the
    same node-count/operand-width cutoff as {!Product_tree.build}.

    The mod-square descent, by default ([precomp = true]), sends each
    level's divisors through the tree's cached Barrett precomps
    ({!Product_tree.sq_precomps}): the reciprocal of every squared node
    is computed once per tree and each descent step becomes two
    multiplies instead of a division. The caches build lazily on the
    calling domain the first time a level is descended; precompute
    eagerly ({!Product_tree.precompute}) before running concurrent
    descents over one tree. [precomp = false] is the plain division
    path. {!remainders} and {!complements} always divide plainly. *)

val remainders_mod_square :
  ?pool:Parallel.Pool.t ->
  ?precomp:bool ->
  Product_tree.t ->
  Bignum.Nat.t ->
  Bignum.Nat.t array
(** [remainders_mod_square tree v] returns [v mod (leaf_i ^ 2)] for
    each leaf, by descending the tree: the root gets [v mod root^2],
    each child the parent's remainder reduced mod the child squared.
    (The precomp path skips the root squaring outright whenever
    [num_bits v] shows [v < root^2], which holds for every product of
    the tree's own leaves.) *)

val remainders :
  ?pool:Parallel.Pool.t -> Product_tree.t -> Bignum.Nat.t -> Bignum.Nat.t array
(** [remainders tree v] returns [v mod leaf_i] (no squaring), by plain
    division at every node — the descent {!Incremental.extend} pushes a
    delta product through each cached segment tree. *)

val complements :
  ?pool:Parallel.Pool.t -> Product_tree.t -> Bignum.Nat.t -> Bignum.Nat.t array
(** [complements tree x] returns [(x * R / m_i) mod m_i] for each leaf
    [m_i], where [R] is the root: with [x = 1] that is the product of
    every other leaf modulo [m_i], the value whose gcd with [m_i] batch
    GCD wants. Each child [a] of a node [v] with sibling [b] gets
    [(X_v mod a) * (b mod a) mod a]; an only child inherits [X_v]. Uses
    only {!Bignum.Nat.mul} and {!Bignum.Nat.rem} on node-sized operands
    — no squared nodes and no Barrett precomps — under the same
    level-parallel cutoff as the other descents. *)
