(** Batch GCD: find every modulus in a set that shares a prime factor
    with any other, in quasilinear time (paper Section 3.2).

    Three implementations with identical results:
    - {!naive}: quadratic modular accumulation, the baseline the paper
      calls infeasible at scale;
    - {!factor_batch}: Bernstein product/remainder trees;
    - {!factor_subsets}: the paper's k-subset modification that trades
      total work (quadratic in [k]) for cluster parallelism and a
      smaller peak tree.

    Inputs are expected to be distinct; duplicates are reported with
    the whole modulus as divisor (see {!dedup}). *)

type finding = {
  index : int;  (** position in the input array *)
  modulus : Bignum.Nat.t;
  divisor : Bignum.Nat.t;
      (** [gcd (modulus, product of all other inputs)]; strictly
          between 1 and the modulus for the classic shared-prime case,
          equal to the modulus when every prime is shared (IBM-style
          cliques or duplicate inputs) *)
}

val dedup : Bignum.Nat.t array -> Bignum.Nat.t array
(** Sort-free deduplication preserving first occurrence order. *)

val naive : Bignum.Nat.t array -> finding list
(** O(n^2): for each modulus, accumulate the product of all others
    modulo it, then one GCD. *)

val naive_pairwise_hits : Bignum.Nat.t array -> (int * int * Bignum.Nat.t) list
(** Every pair (i, j, gcd) with a nontrivial common divisor — O(n^2)
    GCDs; useful for tests and for post-processing small flagged
    sets. *)

val factor_batch :
  ?pool:Parallel.Pool.t -> ?domains:int -> Bignum.Nat.t array -> finding list
(** Single product tree + one complement descent
    ({!Remainder_tree.complements} of 1, leaving [(P / m) mod m] at each
    leaf), with level-parallel kernels run on [pool] ([domains] sizes a
    memoized pool when no explicit pool is given; default
    {!Parallel.Pool.default_domains}). The [k = 1] case of
    {!factor_subsets}. *)

val factor_subsets :
  ?pool:Parallel.Pool.t ->
  ?domains:int -> k:int -> Bignum.Nat.t array -> finding list
(** The distributed variant: split the input into [k] subsets and
    build a product tree per subset. The [k (k - 1)] cross-subset jobs
    reduce every product modulo every other subset's root and fold it
    into that subset's running complement [X_i = (product of the other
    subsets) mod R_i] ({!fold_cross_root}); one complement descent of
    [X_i] per tree then gives each leaf its [(P / m) mod m]. Subsets run
    as jobs on the domain pool. [k] is clamped to the input size.
    Results are identical to {!factor_batch}. *)

val findings_equal : finding list -> finding list -> bool
(** Order-insensitive comparison, for cross-implementation tests. *)

(**/**)

val factor_subsets_trees :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  k:int ->
  Bignum.Nat.t array ->
  (int * Product_tree.t) array * finding list
(** {!factor_subsets} that also returns the per-subset product trees
    (with their leaf offset into the input array) so {!Incremental}
    can seed its segment forest without rebuilding them. Subsets are
    contiguous: concatenating the segments' leaves in offset order
    reproduces the input. *)

val own_subset_component : Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t
(** [own_subset_component m z] with [z = P mod m^2] and [m | P] is
    [(P / m) mod m], the value {!Remainder_tree.complements} of 1
    leaves at [m] directly. Used after a mod-square descent
    ({!Sharded}). *)

val fold_cross_root :
  root_i:Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t
(** [fold_cross_root ~root_i x root_j] is [x * (root_j mod root_i) mod
    root_i] — one cross-subset job of {!factor_subsets}, folding
    another tree's product into the running complement [x] of tree
    [i] ([x = 1] is the empty fold). Shared with {!Incremental}. *)

val collect : Bignum.Nat.t array -> Bignum.Nat.t array -> finding list
(** [collect divisors moduli] keeps the nontrivial per-index divisors
    as findings, in index order. Shared with {!Incremental}. *)
