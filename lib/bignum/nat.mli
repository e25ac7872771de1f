(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    31-bit limbs (base [2^31]) with no trailing zero limb, so that limb
    products fit comfortably in OCaml's 63-bit native integers.

    This module exists because the reproduction container has no zarith /
    GMP binding; it provides everything the batch-GCD pipeline needs:
    schoolbook and Karatsuba multiplication, Knuth Algorithm-D and
    Burnikel-Ziegler division, binary and Euclidean GCD, and modular
    exponentiation. *)

type t

val limb_bits : int
(** Bits per limb (31). The representation base is [2 ^ limb_bits]. *)

val zero : t
val one : t
val two : t

(** {1 Construction and conversion} *)

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int option
(** [to_int n] is [Some i] when [n] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit. *)

val of_limbs : int array -> t
(** Build from little-endian base-[2^31] limbs; copies and normalizes.
    @raise Invalid_argument on out-of-range limbs. *)

val to_limbs : t -> int array
(** Little-endian limbs, no trailing zero. [to_limbs zero = [||]]. *)

val of_string : string -> t
(** Decimal, or hexadecimal with a ["0x"] prefix. Underscores allowed.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_hex : t -> string
(** Lowercase hexadecimal, no prefix, ["0"] for zero. *)

val of_bytes_be : string -> t
(** Interpret a byte string as a big-endian unsigned integer. *)

val to_bytes_be : t -> string
(** Minimal-length big-endian bytes; [""] for zero. *)

(** {1 Comparison and predicates} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Bit-level operations} *)

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val size_limbs : t -> int
(** Number of limbs in the normalized representation;
    [size_limbs zero = 0]. Equals [ceil (num_bits / limb_bits)]. *)

val testbit : t -> int -> bool
val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Arithmetic} *)

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val sub_int : t -> int -> t

val mul : t -> t -> t
(** Schoolbook below [karatsuba_threshold] limbs, Karatsuba above,
    Toom-Cook-3 once both operands reach [toom3_threshold] limbs and
    are near-balanced, and a two-prime CRT number-theoretic transform
    (quasi-linear) once they reach [ntt_threshold] limbs. Past
    [parallel_mul_threshold] limbs the independent sub-products of one
    recursion level (or the NTT's per-prime convolutions) fan out onto
    {!Parallel.Pool}; the pool's nesting guard keeps recursive and
    tree-level parallel calls inline, so this composes with
    [Product_tree]/[Remainder_tree] level parallelism deadlock-free. *)

val mul_int : t -> int -> t

val sqr : t -> t
(** Dedicated squaring: schoolbook with the symmetric cross products
    computed once below [karatsuba_threshold] limbs, Karatsuba with
    three recursive squarings above, Toom-3 with five recursive
    squarings above [toom3_threshold], and the NTT tier (one forward
    transform per prime instead of two) above [ntt_threshold] —
    measurably cheaper than [mul a a] on the remainder tree's
    mod-square descent. Parallelises like {!mul}. *)

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [0 <= r < b].
    Knuth Algorithm D below [burnikel_ziegler_threshold] limbs in the
    divisor, Burnikel-Ziegler recursive division above. A quotient at
    most half as long as the divisor is estimated from the top limbs
    of both operands and corrected, so its cost follows the quotient
    length rather than the divisor's.
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t

val rem : t -> t -> t
(** Remainder only. Below the Burnikel-Ziegler threshold this runs a
    dedicated Algorithm-D variant that never allocates or writes the
    quotient. *)

val divmod_int : t -> int -> t * int
val mod_int : t -> int -> int

(** {1 Precomputed reduction}

    Bernstein's scaled-remainder trick for the remainder-tree descent:
    compute the shifted reciprocal of a divisor once, then replace each
    division by it with two multiplies (Barrett reduction). *)

val recip : t -> t
(** [recip b] is [floor (base^(2n) / b)] for [n = size_limbs b],
    computed by Newton-Raphson iteration on the top halves (so its cost
    is a constant number of multiplies at each size, inheriting the
    subquadratic kernels) with an exact final correction.
    @raise Division_by_zero if [b] is zero. *)

type precomp
(** A divisor together with its cached Barrett state. *)

val precompute : t -> precomp
(** [precompute b] caches [b] and, when [size_limbs b >=
    !barrett_threshold], its shifted reciprocal.
    @raise Division_by_zero if [b] is zero. *)

val precomp_divisor : precomp -> t
(** The divisor the precomp was built from. *)

val rem_precomp : t -> precomp -> t
(** [rem_precomp a p = rem a (precomp_divisor p)], via Barrett block
    reduction when the reciprocal is cached (any dividend length; large
    dividends fold base^n blocks from the top), plain {!rem} otherwise. *)

val pow : t -> int -> t
(** [pow b e] with a non-negative native exponent. *)

val sqrt : t -> t
(** Integer square root (floor). *)

(** {1 Number theory} *)

val gcd : t -> t -> t
(** Lehmer/half-GCD above [hgcd_threshold] limbs: single-precision
    extended Euclid on the top 62 bits of both operands accumulates a
    2x2 cofactor matrix that is applied to the full values once per
    round, so each O(n) pass retires ~30 quotient bits instead of the
    binary loop's one or two. At or below the threshold this is the
    binary (Stein) GCD with a Euclidean first step for unbalanced
    sizes. *)

val gcd_binary : t -> t -> t
(** The binary (Stein) GCD the dispatcher falls back to, exposed for
    the ablation bench and cross-kernel equivalence tests. *)

val gcd_euclid : t -> t -> t
(** Pure Euclidean GCD, kept for the ablation bench. *)

val pow_mod : t -> t -> t -> t
(** [pow_mod b e m] is [b^e mod m]. @raise Division_by_zero if [m] is 0. *)

val invert_mod : t -> t -> t option
(** [invert_mod a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1]. *)

(** {1 Randomness}

    Sampling is driven by an explicit byte generator so device-RNG
    simulations control every bit that enters key generation. *)

val random_bits : (int -> string) -> int -> t
(** [random_bits gen n]: [gen k] must return [k] uniform random bytes;
    the result is uniform in [\[0, 2^n)]. *)

val random_below : (int -> string) -> t -> t
(** Uniform in [\[0, bound)] by rejection sampling.
    @raise Invalid_argument if the bound is zero. *)

(** {1 Tuning}

    Kernel dispatch thresholds, in limbs. Each can be overridden at
    startup from the environment (EXPERIMENTS.md threshold-sweep
    recipe): [WEAKKEYS_KARATSUBA_THRESHOLD], [WEAKKEYS_TOOM_THRESHOLD],
    [WEAKKEYS_NTT_THRESHOLD], [WEAKKEYS_BZ_THRESHOLD],
    [WEAKKEYS_RECIP_THRESHOLD], [WEAKKEYS_BARRETT_THRESHOLD],
    [WEAKKEYS_PARMUL_THRESHOLD] and [WEAKKEYS_HGCD_THRESHOLD];
    malformed or dangerously small values raise [Invalid_argument] at
    module initialisation, mirroring [WEAKKEYS_DOMAINS]. *)

val karatsuba_threshold : int ref
val burnikel_ziegler_threshold : int ref

val toom3_threshold : int ref
(** Minimum limb count of the {e smaller} operand before [mul]/[sqr]
    switch from Karatsuba to Toom-3 (default 96). *)

val ntt_threshold : int ref
(** Minimum limb count of the {e smaller} operand before near-balanced
    [mul]/[sqr] switch from Toom-3 to the two-prime CRT NTT (default
    2048). Products too large for the primes' 2-adicity (~1 Gbit)
    stay on Toom-3 regardless. *)

val hgcd_threshold : int ref
(** Maximum limb count of the smaller operand for which {!gcd} runs
    the plain binary loop; above it the Lehmer leading-digit rounds
    drive the reduction (default 8). *)

val recip_threshold : int ref
(** Divisor size (limbs) at or below which {!recip} just divides; also
    the seed precision of the Newton ladder above it (default 64). *)

val barrett_threshold : int ref
(** Minimum divisor size (limbs) for {!precompute} to cache a
    reciprocal; smaller divisors reduce via plain {!rem} (default 48). *)

val parallel_mul_threshold : int ref
(** Minimum size (limbs) of the smaller operand before one level of
    [mul]/[sqr] recursion fans its sub-products onto the domain pool
    (default 512). *)

val pp : Format.formatter -> t -> unit

(** Infix operators, meant to be used via [Nat.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
