"""Seeded key fixtures for the bulk and extend workloads.

Every modulus is the product of two random probable primes drawn from a
`random.Random` seeded by (workload, shape, seed), so the same seed
always gives the same inputs. Which moduli share a prime is planted
here, so the expected findings are known without running the program
under test. Fixtures are cached on disk, keyed by seed and shape; the
time spent generating them is never part of a measurement.
"""

import json
import math
import os
import random
from itertools import compress

_SIEVE = [p for p in range(3, 1 << 15) if all(p % q for q in range(2, math.isqrt(p) + 1))]
# Miller-Rabin bases: deterministic below 3.4e14 (so for 48-bit
# primes); at 256 bits three rounds after the sieve leave a composite
# chance far below anything a fixture could notice.
_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17)
_BASES_LARGE = (2, 3, 5)
_WINDOW = 4096


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def window_primes(start, bits):
    """Probable primes among the odd numbers start, start+2, ...,
    start + 2*(_WINDOW-1) that still have `bits` bits: an interval
    sieve by the primes below 2^15, then Miller-Rabin."""
    alive = bytearray(b"\x01") * _WINDOW
    zeros = bytes(_WINDOW)
    for p in _SIEVE:
        # start + 2i = 0 (mod p)  <=>  i = -start / 2 (mod p)
        i = (p - start % p) * ((p + 1) >> 1) % p
        if i < _WINDOW:
            alive[i::p] = zeros[: (_WINDOW - 1 - i) // p + 1]
    bases = _BASES_SMALL if bits <= 48 else _BASES_LARGE
    out = []
    for i in compress(range(_WINDOW), alive):
        n = start + 2 * i
        if n.bit_length() != bits:
            break
        if all(_strong_probable_prime(n, a) for a in bases):
            out.append(n)
    return out


class Primes:
    """Distinct random primes of a fixed size (top two bits set, so a
    product of two has exactly twice the bits): each window of odd
    numbers from a random start is sieved at once, and its primes are
    handed out in shuffled order."""

    def __init__(self, rng, bits):
        self.rng, self.bits, self.seen, self.pool = rng, bits, set(), []

    def __call__(self):
        while True:
            if not self.pool:
                start = self.rng.getrandbits(self.bits) | (3 << (self.bits - 2)) | 1
                self.pool = window_primes(start, self.bits)
                self.rng.shuffle(self.pool)
                continue
            p = self.pool.pop()
            if p not in self.seen:
                self.seen.add(p)
                return p


class Truth:
    """Which moduli share a prime with another distinct modulus, kept
    up to date as moduli are added."""

    def __init__(self):
        self.factors = {}  # modulus -> (p, q)
        self.users = {}  # prime -> moduli using it

    def add(self, p, q):
        m = p * q
        if m in self.factors:
            return m
        self.factors[m] = (p, q)
        for r in (p, q):
            self.users.setdefault(r, []).append(m)
        return m

    def divisor(self, m):
        d = 1
        for r in self.factors[m]:
            if len(self.users[r]) >= 2:
                d *= r
        return d

    def findings(self):
        """{modulus: divisor} for every modulus with a nontrivial divisor."""
        out = {}
        for users in self.users.values():
            if len(users) >= 2:
                for m in users:
                    out[m] = self.divisor(m)
        return out


def make_bulk(seed, n, bits, share_every):
    rng = random.Random(f"bulk:{n}:{bits}:{share_every}:{seed}")
    prime = Primes(rng, bits // 2)
    truth = Truth()
    weak = rng.sample(range(n), 2 * (n // (2 * share_every)))
    partner = {}
    for a, b in zip(weak[0::2], weak[1::2]):
        p = prime()
        partner[a] = partner[b] = p
    moduli = [truth.add(partner.get(i) or prime(), prime()) for i in range(n)]
    return {"moduli": moduli, "findings": truth.findings()}


# The monthly snapshot traffic the extend deltas replay, one row per
# scan month after the first: (month, fresh, repeats, shared). `fresh`
# moduli appear in no earlier month, `repeats` are the month's other
# distinct moduli, and `shared` fresh moduli share a prime with a
# modulus seen earlier or in the same month. Measured on the netsim
# world the study workload builds (scale 0.03, seed "perfbench-101")
# with `perfbench.exe traffic --seed perfbench-101 --scale 0.03`; see
# README.md. Four months (2010-12, 2011-10, 2012-06 and Censys's first,
# 2015-07) carry more than 48 fresh moduli.
STUDY_MONTHS = (
    (201012, 187, 388, 4), (201110, 228, 484, 3), (201206, 203, 640, 4),
    (201207, 32, 820, 0), (201208, 30, 839, 2), (201209, 25, 849, 0),
    (201210, 28, 851, 1), (201211, 24, 853, 1), (201212, 26, 871, 0),
    (201301, 26, 870, 0), (201302, 30, 874, 1), (201303, 26, 890, 0),
    (201304, 31, 894, 0), (201305, 25, 905, 0), (201306, 35, 909, 0),
    (201307, 27, 929, 0), (201308, 24, 920, 0), (201309, 32, 921, 0),
    (201310, 30, 969, 1), (201311, 26, 978, 0), (201312, 34, 973, 0),
    (201401, 29, 988, 0), (201402, 25, 925, 0), (201403, 33, 929, 1),
    (201404, 28, 936, 0), (201405, 28, 916, 0), (201406, 24, 946, 0),
    (201407, 26, 964, 0), (201408, 28, 960, 0), (201409, 24, 955, 0),
    (201410, 27, 966, 0), (201411, 32, 962, 0), (201412, 27, 963, 0),
    (201501, 26, 977, 0), (201502, 29, 982, 1), (201503, 28, 996, 0),
    (201504, 27, 988, 0), (201505, 30, 997, 2), (201507, 52, 1041, 0),
    (201508, 33, 1066, 2), (201509, 32, 1073, 0), (201510, 31, 1082, 1),
    (201511, 30, 1086, 1), (201512, 27, 1091, 1), (201601, 32, 1091, 1),
    (201602, 28, 1095, 0), (201603, 24, 1108, 0), (201604, 28, 1115, 0),
    (201605, 21, 1106, 0),
)


def make_extend(seed, base, bits, months=STUDY_MONTHS):
    """A base corpus (1 in 64 moduli sharing a prime with another) and
    one delta per row of `months`, in order: `fresh` new moduli, of
    which `shared` reuse a prime of a modulus seen before them, plus
    `repeats` moduli drawn from those seen before the delta, shuffled
    together. Returns the expected findings and, per delta, the fresh
    count and the finding count after it."""
    rng = random.Random(f"extend:{base}:{bits}:{len(months)}:{seed}")
    prime = Primes(rng, bits // 2)
    truth = Truth()
    weak = set(rng.sample(range(base), base // 64))
    base_moduli = []
    for i in range(base):
        if i in weak and base_moduli:
            p = rng.choice(truth.factors[rng.choice(base_moduli)])
        else:
            p = prime()
        base_moduli.append(truth.add(p, prime()))
    seen = list(base_moduli)
    deltas, fresh_counts, counts = [], [], []
    for _, fresh, repeats, shared in months:
        delta = rng.sample(seen, repeats)
        sharing = set(rng.sample(range(fresh), shared))
        for j in range(fresh):
            p = rng.choice(truth.factors[rng.choice(seen)]) if j in sharing else prime()
            m = truth.add(p, prime())
            delta.append(m)
            seen.append(m)
        rng.shuffle(delta)
        deltas.append(delta)
        fresh_counts.append(fresh)
        counts.append(len(truth.findings()))
    return {
        "base": base_moduli,
        "deltas": deltas,
        "findings": truth.findings(),
        "fresh": fresh_counts,
        "counts": counts,
    }


def _write_lines(path, lines):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write("".join(line + "\n" for line in lines))
    os.replace(tmp, path)


def _hex(m):
    return format(m, "x")


def cached(cache_dir, name, make):
    """Fixture directory `cache_dir/name`, generated by `make` on a miss.

    Holds the program's inputs as hex text files and `truth.json` with
    the expected findings; `truth.json` is written last, so its
    presence marks a complete fixture."""
    d = os.path.join(cache_dir, name)
    truth_path = os.path.join(d, "truth.json")
    if not os.path.exists(truth_path):
        os.makedirs(d, exist_ok=True)
        fx = make()
        if "moduli" in fx:
            _write_lines(os.path.join(d, "moduli.txt"), map(_hex, fx["moduli"]))
        else:
            _write_lines(os.path.join(d, "base.txt"), map(_hex, fx["base"]))
            _write_lines(
                os.path.join(d, "deltas.txt"),
                (",".join(map(_hex, delta)) for delta in fx["deltas"]),
            )
        truth = {
            "findings": {_hex(m): _hex(dv) for m, dv in fx["findings"].items()},
            "fresh": fx.get("fresh", []),
            "counts": fx.get("counts", []),
        }
        _write_lines(truth_path, [json.dumps(truth, sort_keys=True)])
    with open(truth_path) as f:
        return d, json.load(f)
