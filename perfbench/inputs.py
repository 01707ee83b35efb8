"""Seeded inputs for the three benchmark workloads.

Standard library only: generating inputs never runs the code under test,
and the same (workload, seed, smoke) always gives the same inputs.

The primes are drawn from narrow bands so that the work in a run barely
depends on the seed (sweep cost grows like p^2, query cost like p): two
seeds change which primes are used, not how much work they are.
"""

from __future__ import annotations

import random

WORKLOADS = ("anchor-session", "prime-range", "point-eval")

# full size: anchor primes near 10^4, verify range 5..~1200, and seven
# point-eval primes spread log-evenly over [10^3, 2.9 * 10^4]
_ANCHOR_BAND = {False: (10000, 10100), True: (300, 400)}
_PMAX_BAND = {False: (1190, 1210), True: (110, 130)}
_EVAL_SPAN = {False: (1000, 29000), True: (100, 700)}
_EVAL_PRIMES = 7
_QUERIES_PER_PRIME = {False: 286, True: 10}
_AP_SAMPLE = 16


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's primes stay below 10^5."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def g2_class(p: int) -> bool:
    """p = 1 (mod 6): the 2G2 family is integral; else 6G6 (p = 2 mod 3)."""
    return p % 6 == 1


def family_for(p: int) -> str:
    return "2g2" if g2_class(p) else "6g6"


def _pick(rng: random.Random, lo: int, hi: int, want_g2: bool) -> int:
    cands = [q for q in range(lo, hi + 1) if is_prime(q) and g2_class(q) == want_g2]
    return rng.choice(cands)


def anchor_session(seed: int, smoke: bool = False) -> dict:
    rng = random.Random(f"anchor-session:{seed}")
    lo, hi = _ANCHOR_BAND[smoke]
    primes = [_pick(rng, lo, hi, True), _pick(rng, lo, hi, False)]
    # lambdas at which the a_p sweep is compared with a direct point count
    ap_sample = {p: sorted(rng.sample(range(2, p), _AP_SAMPLE)) for p in primes}
    return {"primes": primes, "ap_sample": ap_sample}


def prime_range(seed: int, smoke: bool = False) -> dict:
    rng = random.Random(f"prime-range:{seed}")
    lo, hi = _PMAX_BAND[smoke]
    pmax = rng.randint(lo, hi)
    primes = [q for q in range(5, pmax + 1) if is_prime(q)]
    return {"pmin": 5, "pmax": pmax, "primes": primes}


def point_eval(seed: int, smoke: bool = False) -> dict:
    """One prime per log-spaced band, classes alternating, and an equal
    number of queries per prime in seeded order.

    Equal counts keep the per-query cost mix fixed across seeds, and an
    odd prime count puts the median query inside one prime's band.
    """
    rng = random.Random(f"point-eval:{seed}")
    lo, hi = _EVAL_SPAN[smoke]
    primes = []
    for k in range(_EVAL_PRIMES):
        c = round(lo * (hi / lo) ** (k / (_EVAL_PRIMES - 1)))
        primes.append(_pick(rng, c, c + c // 50 + 30, k % 2 == 0))
    queries = []
    for p in primes:
        fam = family_for(p)
        for _ in range(_QUERIES_PER_PRIME[smoke]):
            queries.append((p, fam + rng.choice(("", "t")), rng.randint(2, p - 2)))
    rng.shuffle(queries)
    return {"primes": primes, "queries": queries}


def generate(workload: str, seed: int, smoke: bool = False) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    fn = {"anchor-session": anchor_session, "prime-range": prime_range,
          "point-eval": point_eval}[workload]
    return fn(seed, smoke)
