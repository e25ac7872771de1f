(** Incremental batch GCD over a growing corpus.

    The paper's measurement is longitudinal — new scan snapshots are
    folded into an 81 M-modulus corpus month after month — yet the
    product/remainder-tree cost of a full recompute is dominated by
    the {e old} corpus, exactly the part that does not change. This
    module keeps a {b segment forest}: one product tree per ingested
    batch (the k contiguous subset trees of
    {!Batch_gcd.factor_subsets} for the initial corpus, then one tree
    per {!extend} delta). Folding in [d] new moduli against [n] old
    ones costs one tree over the delta plus one remainder descent per
    segment — quasilinear in [n + d] with a small constant — instead
    of rebuilding the full forest.

    Results are {e exactly} the full-recompute findings, not an
    approximation: for an old modulus [m] with previous divisor
    [d_old] and delta product [P], the updated divisor
    [gcd (m, d_old * (P mod m))] equals
    [gcd (m, (product of all other moduli) mod m)] because
    [gcd (m, a*b) = gcd (m, gcd (m, a) * gcd (m, b))] holds
    prime-power by prime-power. Tests assert
    {!Batch_gcd.findings_equal} against a from-scratch run.

    Moduli must be distinct across the whole corpus (intern through
    {!Corpus.Store} first, as [Weakkeys.Pipeline] does); a duplicate
    is reported with the whole modulus as divisor, matching
    {!Batch_gcd.factor_batch} on an input containing duplicates. *)

type t
(** Cached state: the segment forest and the current findings. The
    corpus order (concatenated segment leaves) is the order moduli
    were first presented, so finding indexes are stable across
    {!extend} calls. *)

val create :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?backend:string ->
  ?k:int ->
  Bignum.Nat.t array ->
  t
(** Initial run. [backend] names the {!Backend} decomposition that
    seeds the forest: ["ksubset"] (the default) runs
    {!Batch_gcd.factor_subsets_trees} with [k] (default 1) subset
    trees, ["tree"] is its [k = 1] case, ["all_to_all"] sweeps a
    single tree by {!All_to_all} node-pair pruning. Findings are
    identical whichever seeded.
    @raise Backend.Unknown_backend on an unknown name. *)

val extend :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?backend:string ->
  t ->
  Bignum.Nat.t array ->
  t
(** [extend t fresh] folds a batch of new moduli into the corpus.
    The default ["tree"] strategy builds one product tree over
    [fresh], reduces its root through every cached segment tree by
    plain remainders (old-vs-new), folds every segment root into the
    old corpus's product modulo the fresh root and runs one complement
    descent of it through the fresh tree (new-vs-old and new-vs-new at
    once), then merges divisors with the cached findings. The
    ["all_to_all"] strategy instead prunes segment-vs-delta node
    pairs by gcd ({!All_to_all.cross_hits}) — one root gcd discharges
    an entire untouched segment, the shape that wins on small deltas
    against big corpora. Either way no old tree is rebuilt, findings
    equal a full recompute, and the input is returned unchanged when
    [fresh] is empty.
    @raise Backend.Unknown_backend on an unknown name.
    @raise Invalid_argument on a backend without the incremental
    capability (["ksubset"]). *)

val factor_delta :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  old_tree:Product_tree.t ->
  old_findings:Batch_gcd.finding list ->
  Bignum.Nat.t array ->
  Batch_gcd.finding list
(** One-shot form: given a cached product tree over the old corpus and
    its findings, the findings over old-corpus ++ delta —
    [findings_equal] to {!Batch_gcd.factor_subsets} over the
    concatenation. *)

val findings : t -> Batch_gcd.finding list
(** Current findings, in corpus-index order. *)

val corpus : t -> Bignum.Nat.t array
(** Concatenated segment leaves — every modulus ingested so far, in
    index order (a fresh array). *)

val corpus_size : t -> int
val segment_count : t -> int

val segments : t -> (int * Product_tree.t) array
(** The forest as (leaf offset, tree) pairs in offset order (a fresh
    array; the trees are shared). With {!of_segments} this lets
    {!Sharded} re-group one corpus-wide forest by id range. *)

val of_segments :
  findings:Batch_gcd.finding list -> (int * Product_tree.t) array -> t
(** Reassemble a state from segments and their findings. Offsets must
    be contiguous from 0 and finding indexes in range.
    @raise Invalid_argument otherwise. *)

val total_limbs : t -> int
(** Sum of {!Product_tree.total_limbs} over the forest — the resident
    cost of keeping the cache. *)

val save : out_channel -> t -> unit
(** Serialize the forest and findings (binary, see {!Corpus.Io}). *)

val load : in_channel -> t
(** @raise Corpus.Io.Corrupt on a malformed or truncated checkpoint.
    @raise End_of_file on an empty channel. *)
