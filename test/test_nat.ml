(* Unit and property tests for Nat: ring axioms, division invariants,
   Karatsuba vs schoolbook, Burnikel-Ziegler vs Knuth D, conversions. *)

module N = Bignum.Nat

let nat = Alcotest.testable N.pp N.equal

(* Deterministic byte generator for reproducible random Nats. *)
let mk_gen seed =
  let st = Random.State.make [| seed |] in
  fun n -> String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* QCheck generator: random Nat with size up to [max_bits] bits. *)
let arb_nat ?(max_bits = 700) () =
  let open QCheck2.Gen in
  int_range 0 max_bits >>= fun bits ->
  if bits = 0 then return N.zero
  else
    let bytes = (bits + 7) / 8 in
    map
      (fun s -> N.random_bits (fun _ -> s) bits)
      (string_size ~gen:(map Char.chr (int_range 0 255)) (return bytes))

let prop name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_small_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "to_int (of_int i)" (Some i)
        (N.to_int (N.of_int i)))
    [ 0; 1; 2; 41; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 45; max_int ]

let test_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("decimal " ^ s) s (N.to_string (N.of_string s)))
    [
      "0";
      "1";
      "999999999";
      "1000000000";
      "123456789012345678901234567890";
      "340282366920938463463374607431768211456";
    ]

let test_hex () =
  Alcotest.(check string) "hex" "deadbeef" (N.to_hex (N.of_string "0xDEAD_BEEF"));
  Alcotest.(check string)
    "hex big" "123456789abcdef0123456789abcdef"
    (N.to_hex (N.of_string "0x0123456789abcdef0123456789abcdef"))

let test_bytes_roundtrip () =
  let x = N.of_string "0x0102030405060708090a0b0c0d0e0f" in
  Alcotest.check nat "bytes roundtrip" x (N.of_bytes_be (N.to_bytes_be x));
  Alcotest.(check string) "zero bytes" "" (N.to_bytes_be N.zero)

let test_known_arithmetic () =
  let a = N.of_string "123456789123456789123456789" in
  let b = N.of_string "987654321987654321" in
  Alcotest.(check string)
    "mul" "121932631356500531469135800347203169112635269"
    (N.to_string (N.mul a b));
  let q, r = N.divmod a b in
  Alcotest.(check string) "div" "124999998" (N.to_string q);
  Alcotest.(check string) "rem" "850308642973765431" (N.to_string r);
  Alcotest.check nat "a = q*b + r" a (N.add (N.mul q b) r)

let test_pow () =
  Alcotest.(check string)
    "2^128" "340282366920938463463374607431768211456"
    (N.to_string (N.pow N.two 128));
  Alcotest.check nat "x^0 = 1" N.one (N.pow (N.of_int 12345) 0)

let test_shift_consistency () =
  let x = N.of_string "0xfedcba9876543210fedcba9876543210" in
  Alcotest.check nat "shl then shr" x (N.shift_right (N.shift_left x 77) 77);
  Alcotest.check nat "shl = mul 2^k" (N.mul x (N.pow N.two 77))
    (N.shift_left x 77)

let test_sub_negative_raises () =
  Alcotest.check_raises "sub raises" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (N.sub N.one N.two))

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (N.num_bits N.zero);
  Alcotest.(check int) "bits 1" 1 (N.num_bits N.one);
  Alcotest.(check int) "bits 2^31" 32 (N.num_bits (N.shift_left N.one 31));
  Alcotest.(check int) "bits 2^100-1" 100
    (N.num_bits (N.sub (N.shift_left N.one 100) N.one))

let test_sqrt_exact () =
  let x = N.of_string "123456789123456789" in
  let s = N.sqrt (N.sqr x) in
  Alcotest.check nat "sqrt of square" x s

let test_gcd_known () =
  let p = N.of_string "1000000007" in
  let a = N.mul p (N.of_string "999999937") in
  let b = N.mul p (N.of_string "1000000021") in
  Alcotest.check nat "shared prime" p (N.gcd a b);
  Alcotest.check nat "euclid agrees" (N.gcd a b) (N.gcd_euclid a b);
  Alcotest.check nat "gcd 0 b" b (N.gcd N.zero b);
  Alcotest.check nat "gcd a 0" a (N.gcd a N.zero)

let test_invert_mod () =
  let m = N.of_string "1000000007" in
  let a = N.of_string "123456789" in
  (match N.invert_mod a m with
  | None -> Alcotest.fail "inverse must exist mod prime"
  | Some x -> Alcotest.check nat "a*x = 1" N.one (N.rem (N.mul a x) m));
  Alcotest.(check bool)
    "no inverse when gcd > 1" true
    (N.invert_mod (N.of_int 6) (N.of_int 9) = None)

let test_pow_mod_fermat () =
  (* Fermat: a^(p-1) = 1 mod p for prime p not dividing a. *)
  let p = N.of_string "170141183460469231731687303715884105727" (* 2^127-1 *) in
  let a = N.of_string "123456789123456789" in
  Alcotest.check nat "fermat" N.one (N.pow_mod a (N.sub p N.one) p)

let test_random_below_in_range () =
  let gen = mk_gen 42 in
  let bound = N.of_string "987654321987654321987654321" in
  for _ = 1 to 50 do
    let x = N.random_below gen bound in
    Alcotest.(check bool) "x < bound" true (N.compare x bound < 0)
  done

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let pair g = QCheck2.Gen.pair g g
let triple g = QCheck2.Gen.triple g g g

let props =
  let g = arb_nat () in
  [
    prop "add commutative" (pair g) (fun (a, b) -> N.equal (N.add a b) (N.add b a));
    prop "add associative" (triple g) (fun (a, b, c) ->
        N.equal (N.add a (N.add b c)) (N.add (N.add a b) c));
    prop "mul commutative" (pair g) (fun (a, b) -> N.equal (N.mul a b) (N.mul b a));
    prop "mul associative" ~count:100 (triple g) (fun (a, b, c) ->
        N.equal (N.mul a (N.mul b c)) (N.mul (N.mul a b) c));
    prop "distributivity" ~count:100 (triple g) (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "add/sub inverse" (pair g) (fun (a, b) ->
        N.equal a (N.sub (N.add a b) b));
    prop "division invariant" (pair g) (fun (a, b) ->
        if N.is_zero b then true
        else begin
          let q, r = N.divmod a b in
          N.equal a (N.add (N.mul q b) r) && N.compare r b < 0
        end);
    prop "string roundtrip" g (fun a -> N.equal a (N.of_string (N.to_string a)));
    prop "hex roundtrip" g (fun a ->
        N.equal a (N.of_string ("0x" ^ N.to_hex a)));
    prop "bytes roundtrip" g (fun a -> N.equal a (N.of_bytes_be (N.to_bytes_be a)));
    prop "limbs roundtrip" g (fun a -> N.equal a (N.of_limbs (N.to_limbs a)));
    prop "gcd binary = euclid" (pair g) (fun (a, b) ->
        N.equal (N.gcd a b) (N.gcd_euclid a b));
    prop "gcd divides both" (pair g) (fun (a, b) ->
        if N.is_zero a && N.is_zero b then true
        else begin
          let gg = N.gcd a b in
          N.is_zero (N.rem a gg) && N.is_zero (N.rem b gg)
        end);
    prop "sqrt bounds" g (fun a ->
        let s = N.sqrt a in
        N.compare (N.sqr s) a <= 0
        && N.compare (N.sqr (N.add s N.one)) a > 0);
    prop "shift roundtrip" (QCheck2.Gen.pair g (QCheck2.Gen.int_range 0 200))
      (fun (a, k) -> N.equal a (N.shift_right (N.shift_left a k) k));
    prop "compare antisym" (pair g) (fun (a, b) ->
        N.compare a b = -N.compare b a);
  ]

(* Cross-check the kernels against each other by moving dispatch
   thresholds for the duration of a test. Every knob not passed is
   pinned so each test exercises exactly the ladder rung it names. *)
let with_kernels ?(kara = !N.karatsuba_threshold) ?(toom = max_int)
    ?(ntt = max_int) ?(bz = !N.burnikel_ziegler_threshold)
    ?(recip = !N.recip_threshold) ?(barrett = !N.barrett_threshold)
    ?(hgcd = !N.hgcd_threshold) f =
  let k0 = !N.karatsuba_threshold
  and t0 = !N.toom3_threshold
  and n0 = !N.ntt_threshold
  and b0 = !N.burnikel_ziegler_threshold
  and r0 = !N.recip_threshold
  and ba0 = !N.barrett_threshold
  and h0 = !N.hgcd_threshold in
  N.karatsuba_threshold := kara;
  N.toom3_threshold := toom;
  N.ntt_threshold := ntt;
  N.burnikel_ziegler_threshold := bz;
  N.recip_threshold := recip;
  N.barrett_threshold := barrett;
  N.hgcd_threshold := hgcd;
  Fun.protect
    ~finally:(fun () ->
      N.karatsuba_threshold := k0;
      N.toom3_threshold := t0;
      N.ntt_threshold := n0;
      N.burnikel_ziegler_threshold := b0;
      N.recip_threshold := r0;
      N.barrett_threshold := ba0;
      N.hgcd_threshold := h0)
    f

let with_thresholds km bz f = with_kernels ~kara:km ~bz f

let test_karatsuba_vs_schoolbook () =
  let gen = mk_gen 7 in
  for _ = 1 to 30 do
    let a = N.random_bits gen 4000 and b = N.random_bits gen 3500 in
    let fast = with_thresholds 4 1000 (fun () -> N.mul a b) in
    let slow = with_thresholds 100000 1000 (fun () -> N.mul a b) in
    Alcotest.check nat "karatsuba = schoolbook" slow fast
  done

let test_bz_vs_knuth () =
  let gen = mk_gen 9 in
  for _ = 1 to 20 do
    let a = N.random_bits gen 9000 and b = N.random_bits gen 2500 in
    let fast_q, fast_r = with_thresholds 4 4 (fun () -> N.divmod a b) in
    let slow_q, slow_r = with_thresholds 24 100000 (fun () -> N.divmod a b) in
    Alcotest.check nat "bz quotient = knuth" slow_q fast_q;
    Alcotest.check nat "bz remainder = knuth" slow_r fast_r
  done

let test_bz_balanced_and_edge_shapes () =
  let gen = mk_gen 11 in
  List.iter
    (fun (abits, bbits) ->
      let a = N.random_bits gen abits and b = N.add (N.random_bits gen bbits) N.one in
      let q, r = with_thresholds 4 4 (fun () -> N.divmod a b) in
      Alcotest.check nat "invariant" a (N.add (N.mul q b) r);
      Alcotest.(check bool) "r < b" true (N.compare r b < 0))
    [
      (5000, 5000); (5000, 4999); (5000, 2501); (5000, 2500); (10000, 1300);
      (2600, 2600); (2600, 1300); (1, 5000); (0, 5000); (5000, 1);
    ]

(* Quotients shorter than the divisor (m < n limbs), where the default
   ladder divides the top 2m limbs by the top m and corrects, against
   Knuth D at the default multiply thresholds. The closing shape has
   the largest quotient b * (base^m - 1) + (b - 1) allows, the worst
   case for the correction loop. *)
let test_short_quotient_vs_knuth () =
  let gen = mk_gen 13 in
  let limbs l = N.random_bits gen (31 * l) in
  let check_against_knuth name a b =
    let q, r = N.divmod a b in
    let kq, kr =
      with_thresholds !N.karatsuba_threshold max_int (fun () -> N.divmod a b)
    in
    Alcotest.check nat (name ^ " quotient") kq q;
    Alcotest.check nat (name ^ " remainder") kr r;
    Alcotest.check nat (name ^ " rem") kr (N.rem a b)
  in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          for trial = 1 to 2 do
            let b = N.add (limbs n) N.one in
            let a = N.add (N.mul b (limbs m)) (N.rem (limbs n) b) in
            check_against_knuth (Printf.sprintf "m=%d n=%d #%d" m n trial) a b
          done)
        [ 40; n / 4; n / 2; n - 1 ])
    [ 64; 512; 4096 ];
  let b = N.add (limbs 512) N.one and m = 256 in
  let qmax = N.sub (N.shift_left N.one (31 * m)) N.one in
  let a = N.add (N.mul b qmax) (N.sub b N.one) in
  check_against_knuth "largest quotient" a b;
  Alcotest.check nat "largest quotient is base^m - 1" qmax (N.div a b);
  (* Smallest normalized top half with all-ones low limbs: the
     truncated quotient overshoots by 3, so a single correction step
     would leave r >= b. *)
  let low = N.sub (N.shift_left N.one (31 * m)) N.one in
  let b = N.add (N.shift_left N.one ((31 * 512) - 1)) low in
  let a = N.sub (N.shift_left b (31 * m)) N.one in
  check_against_knuth "overshooting estimate" a b;
  Alcotest.check nat "overshooting estimate quotient" low (N.div a b)

(* Toom-3 against Karatsuba and schoolbook across shapes straddling
   the dispatch boundaries: balanced at/around a lowered threshold,
   unbalanced enough to fall back to Karatsuba, aliased operands. *)
let test_toom3_vs_karatsuba () =
  let gen = mk_gen 13 in
  List.iter
    (fun (abits, bbits) ->
      let a = N.random_bits gen abits and b = N.random_bits gen bbits in
      let school =
        with_kernels ~kara:max_int (fun () -> N.mul a b)
      in
      let kara = with_kernels ~kara:4 (fun () -> N.mul a b) in
      let toom = with_kernels ~kara:4 ~toom:8 (fun () -> N.mul a b) in
      Alcotest.check nat "karatsuba = schoolbook" school kara;
      Alcotest.check nat "toom3 = schoolbook" school toom;
      let sq_school = with_kernels ~kara:max_int (fun () -> N.sqr a) in
      let sq_toom = with_kernels ~kara:4 ~toom:8 (fun () -> N.sqr a) in
      Alcotest.check nat "sqr toom3 = schoolbook" sq_school sq_toom;
      let mul_self = with_kernels ~kara:4 ~toom:8 (fun () -> N.mul a a) in
      Alcotest.check nat "sqr = mul a a (aliased)" sq_toom mul_self)
    [
      (200, 200); (247, 247); (248, 248); (249, 230); (300, 160);
      (4000, 3500); (6000, 1000); (5000, 5000); (5000, 0);
    ]

(* Around the default 96-limb boundary with production thresholds:
   2976 bits is exactly 96 limbs. *)
let test_toom3_default_boundary () =
  let gen = mk_gen 15 in
  List.iter
    (fun bits ->
      let a = N.random_bits gen bits and b = N.random_bits gen bits in
      let def = with_kernels ~toom:!N.toom3_threshold (fun () -> N.mul a b) in
      let kara = with_kernels (fun () -> N.mul a b) in
      Alcotest.check nat "default ladder = karatsuba-only" kara def)
    [ 2940; 2976; 3007; 6200 ]

(* Cross-kernel GCD equivalence: the Lehmer/half-GCD dispatch, the
   binary loop and pure Euclid must agree pairwise on 10k random pairs
   whose sizes straddle the hgcd threshold, plus the structured edge
   shapes (equal, zero, one-limb, shared factor, powers of two). The
   hgcd threshold is dropped to 1 so even small pairs exercise the
   Lehmer rounds. *)
let test_hgcd_equivalence () =
  let gen = mk_gen 37 in
  let st = Random.State.make [| 41 |] in
  let check_triple tag a b =
    let h = with_kernels ~hgcd:1 (fun () -> N.gcd a b) in
    let bin = N.gcd_binary a b in
    if not (N.equal h bin) then
      Alcotest.failf "%s: hgcd <> binary (a=%s b=%s)" tag (N.to_hex a)
        (N.to_hex b);
    if not (N.equal h (N.gcd_euclid a b)) then
      Alcotest.failf "%s: hgcd <> euclid (a=%s b=%s)" tag (N.to_hex a)
        (N.to_hex b)
  in
  for i = 1 to 10_000 do
    (* Sizes from one bit to ~700 bits: the default threshold is 8
       limbs = 248 bits, so both sides of the dispatch get hit even
       before the ~hgcd:1 override. *)
    let bits () = 1 + Random.State.int st 700 in
    let a = N.random_bits gen (bits ()) and b = N.random_bits gen (bits ()) in
    let a, b =
      match i mod 10 with
      | 0 -> (a, a) (* equal *)
      | 1 -> (a, N.zero)
      | 2 -> (N.zero, b)
      | 3 -> (a, N.of_int (1 + Random.State.int st 100)) (* one-limb *)
      | 4 ->
        (* planted shared factor: the batch-GCD leaf shape *)
        let f = N.add (N.random_bits gen 120) N.one in
        (N.mul a f, N.mul b f)
      | 5 ->
        (* shared power of two, stressing the common-shift bookkeeping *)
        let k = Random.State.int st 80 in
        (N.shift_left a k, N.shift_left b k)
      | 6 -> (N.mul a b, b) (* exact multiple: gcd = b *)
      | _ -> (a, b)
    in
    check_triple (Printf.sprintf "pair %d" i) a b
  done;
  (* A few large pairs so several Lehmer rounds run back to back. *)
  for i = 1 to 10 do
    let a = N.random_bits gen 6000 and b = N.random_bits gen 6000 in
    check_triple (Printf.sprintf "large %d" i) a b
  done

(* The default dispatch (threshold 8) against binary on
   batch-GCD-shaped inputs: modulus x (z below modulus^2). *)
let test_hgcd_default_dispatch () =
  let gen = mk_gen 43 in
  for _ = 1 to 50 do
    let m = N.add (N.random_bits gen 2048) N.one in
    let z = N.rem (N.random_bits gen 4096) (N.sqr m) in
    Alcotest.check nat "default gcd = binary" (N.gcd_binary m z) (N.gcd m z)
  done

(* NTT against Toom-3, Karatsuba and schoolbook on sizes bracketing
   every threshold, including all-ones operands (maximal convolution
   coefficients, the worst case for the CRT carry chain), unbalanced
   shapes that must fall back, and aliased squaring. *)
let test_ntt_vs_toom3 () =
  let gen = mk_gen 47 in
  List.iter
    (fun (abits, bbits) ->
      let a = N.random_bits gen abits and b = N.random_bits gen bbits in
      let school = with_kernels ~kara:max_int (fun () -> N.mul a b) in
      let kara = with_kernels ~kara:4 (fun () -> N.mul a b) in
      let toom = with_kernels ~kara:4 ~toom:8 (fun () -> N.mul a b) in
      let ntt = with_kernels ~kara:4 ~ntt:8 (fun () -> N.mul a b) in
      Alcotest.check nat "karatsuba = schoolbook" school kara;
      Alcotest.check nat "toom3 = schoolbook" school toom;
      Alcotest.check nat "ntt = schoolbook" school ntt;
      let sq_school = with_kernels ~kara:max_int (fun () -> N.sqr a) in
      let sq_ntt = with_kernels ~kara:4 ~ntt:8 (fun () -> N.sqr a) in
      Alcotest.check nat "sqr ntt = schoolbook" sq_school sq_ntt;
      let mul_self = with_kernels ~kara:4 ~ntt:8 (fun () -> N.mul a a) in
      Alcotest.check nat "sqr = mul a a (aliased)" sq_ntt mul_self)
    [
      (200, 200); (247, 247); (248, 248); (249, 230); (300, 160);
      (4000, 3500); (6000, 1000); (5000, 5000); (5000, 0); (5000, 2600);
      (* one piece, piece boundaries, transform-size power-of-two edges *)
      (14, 14); (15, 15); (16, 16); (960, 960); (961, 961);
    ];
  (* all-ones operands: every 15-bit piece is 2^15 - 1, so convolution
     coefficients and the carry chain peak *)
  List.iter
    (fun bits ->
      let a = N.sub (N.shift_left N.one bits) N.one in
      let toom = with_kernels ~kara:4 ~toom:8 (fun () -> N.mul a a) in
      let ntt = with_kernels ~kara:4 ~ntt:8 (fun () -> N.mul a a) in
      Alcotest.check nat "all-ones ntt = toom3" toom ntt;
      Alcotest.check nat "all-ones sqr"
        (with_kernels ~kara:4 ~toom:8 (fun () -> N.sqr a))
        (with_kernels ~kara:4 ~ntt:8 (fun () -> N.sqr a)))
    [ 496; 4096; 7688 ]

(* Around the default 2048-limb boundary with production thresholds:
   63488 bits is exactly 2048 limbs. Toom-3 alone vs the full ladder
   with the NTT rung live. *)
let test_ntt_default_boundary () =
  let gen = mk_gen 53 in
  List.iter
    (fun bits ->
      let a = N.random_bits gen bits and b = N.random_bits gen bits in
      let toom =
        with_kernels ~toom:!N.toom3_threshold (fun () -> N.mul a b)
      in
      let ladder =
        with_kernels ~toom:!N.toom3_threshold ~ntt:!N.ntt_threshold (fun () ->
            N.mul a b)
      in
      Alcotest.check nat "default ladder = toom3-only" toom ladder;
      Alcotest.check nat "sqr default ladder = toom3-only"
        (with_kernels ~toom:!N.toom3_threshold (fun () -> N.sqr a))
        (with_kernels ~toom:!N.toom3_threshold ~ntt:!N.ntt_threshold
           (fun () -> N.sqr a)))
    [ 63300; 63488; 63700; 127000 ]

let test_recip_bounds () =
  let gen = mk_gen 17 in
  with_kernels ~recip:4 (fun () ->
      List.iter
        (fun bits ->
          let b = N.add (N.random_bits gen bits) N.one in
          let n = N.size_limbs b in
          let q = N.recip b in
          let beta2n = N.shift_left N.one (2 * n * N.limb_bits) in
          Alcotest.(check bool)
            "q*b <= beta^2n" true
            (N.compare (N.mul q b) beta2n <= 0);
          Alcotest.(check bool)
            "(q+1)*b > beta^2n" true
            (N.compare (N.mul (N.add q N.one) b) beta2n > 0))
        (* below/at/above the lowered recursion base, through several
           doublings, plus a power of two and a top-heavy divisor *)
        [ 31; 124; 125; 155; 300; 1000; 4000 ]);
  Alcotest.check nat "recip 1" (N.shift_left N.one (2 * N.limb_bits))
    (N.recip N.one);
  Alcotest.check_raises "recip 0" Division_by_zero (fun () ->
      ignore (N.recip N.zero))

let test_rem_precomp_matches_rem () =
  let gen = mk_gen 19 in
  with_kernels ~recip:4 ~barrett:6 (fun () ->
      List.iter
        (fun dlimbs ->
          (* divisors one limb below/at/above the barrett cutoff *)
          let b = N.add (N.random_bits gen (dlimbs * N.limb_bits)) N.one in
          let p = N.precompute b in
          Alcotest.check nat "precomp_divisor" b (N.precomp_divisor p);
          List.iter
            (fun abits ->
              let a = N.random_bits gen abits in
              Alcotest.check nat
                (Printf.sprintf "rem_precomp %d-limb div, %d-bit a" dlimbs
                   abits)
                (N.rem a b) (N.rem_precomp a p))
            [ 0; 50; dlimbs * N.limb_bits; 2 * dlimbs * N.limb_bits;
              (7 * dlimbs * N.limb_bits / 2); 9 * dlimbs * N.limb_bits ])
        [ 5; 6; 7; 12; 40 ]);
  (* a = multiple of b reduces to zero through the barrett path *)
  with_kernels ~recip:4 ~barrett:4 (fun () ->
      let b = N.add (N.random_bits (mk_gen 23) 400) N.one in
      let p = N.precompute b in
      let a = N.mul b (N.random_bits (mk_gen 29) 900) in
      Alcotest.check nat "exact multiple" N.zero (N.rem_precomp a p))

(* Production-scale spot check: default thresholds, divisor above the
   48-limb barrett cutoff, dividend spanning several blocks. *)
let test_rem_precomp_default_thresholds () =
  let gen = mk_gen 31 in
  let b = N.add (N.random_bits gen 1600) N.one in
  let p = N.precompute b in
  List.iter
    (fun abits ->
      let a = N.random_bits gen abits in
      Alcotest.check nat "default-threshold rem_precomp" (N.rem a b)
        (N.rem_precomp a p))
    [ 1500; 1600; 3200; 9000 ]

let test_infix () =
  let open N.Infix in
  let a = N.of_int 100 and b = N.of_int 7 in
  Alcotest.check nat "+" (N.of_int 107) (a + b);
  Alcotest.check nat "-" (N.of_int 93) (a - b);
  Alcotest.check nat "*" (N.of_int 700) (a * b);
  Alcotest.check nat "/" (N.of_int 14) (a / b);
  Alcotest.check nat "mod" (N.of_int 2) (a mod b);
  Alcotest.(check bool) "<" true (b < a);
  Alcotest.(check bool) ">=" true (a >= a);
  Alcotest.(check bool) "=" false (a = b)

let tests =
  [
    Alcotest.test_case "small int roundtrip" `Quick test_small_roundtrip;
    Alcotest.test_case "decimal roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "hex" `Quick test_hex;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "known mul/div" `Quick test_known_arithmetic;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "shifts" `Quick test_shift_consistency;
    Alcotest.test_case "sub negative raises" `Quick test_sub_negative_raises;
    Alcotest.test_case "divide by zero" `Quick test_divmod_by_zero;
    Alcotest.test_case "num_bits" `Quick test_num_bits;
    Alcotest.test_case "sqrt exact" `Quick test_sqrt_exact;
    Alcotest.test_case "gcd known" `Quick test_gcd_known;
    Alcotest.test_case "invert_mod" `Quick test_invert_mod;
    Alcotest.test_case "pow_mod fermat" `Quick test_pow_mod_fermat;
    Alcotest.test_case "random_below range" `Quick test_random_below_in_range;
    Alcotest.test_case "karatsuba vs schoolbook" `Slow test_karatsuba_vs_schoolbook;
    Alcotest.test_case "toom3 vs karatsuba/schoolbook" `Slow test_toom3_vs_karatsuba;
    Alcotest.test_case "toom3 default boundary" `Slow test_toom3_default_boundary;
    Alcotest.test_case "hgcd vs binary vs euclid" `Slow test_hgcd_equivalence;
    Alcotest.test_case "hgcd default dispatch" `Quick test_hgcd_default_dispatch;
    Alcotest.test_case "ntt vs toom3/karatsuba/schoolbook" `Slow test_ntt_vs_toom3;
    Alcotest.test_case "ntt default boundary" `Slow test_ntt_default_boundary;
    Alcotest.test_case "burnikel-ziegler vs knuth" `Slow test_bz_vs_knuth;
    Alcotest.test_case "division edge shapes" `Quick test_bz_balanced_and_edge_shapes;
    Alcotest.test_case "short quotient vs knuth" `Quick
      test_short_quotient_vs_knuth;
    Alcotest.test_case "recip bounds" `Quick test_recip_bounds;
    Alcotest.test_case "rem_precomp vs rem" `Quick test_rem_precomp_matches_rem;
    Alcotest.test_case "rem_precomp default thresholds" `Quick
      test_rem_precomp_default_thresholds;
    Alcotest.test_case "infix operators" `Quick test_infix;
  ]
  @ props
