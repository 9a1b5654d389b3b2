"""Seeded inputs for the benchmark workloads.

Everything here is made without m0nbar, so the program under test only ever
sees the values these functions return.  The seed picks values, never the
amount of work: every workload gets lists of the same length, drawn from
ranges in which the program's cost does not depend on the value drawn.
"""

from __future__ import annotations

import random

# Deterministic Miller-Rabin with the first 13 prime bases is exact below
# 3.3 * 10^24 (Sorenson and Webster, arXiv:1509.00864).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981

# The q list that `m0nbar verify` uses by default; census probes reuse it.
VERIFY_DEFAULT_Q = (2, 3, 4, 5, 7, 8, 9, 11)

CENSUS_N = 8
KEEL_DEEP_N = 120
KEEL_DEEP_PRIMES = 4
QUERIES_N = 7
QUERIES_Q = 160
QUERIES_ORDERS = tuple(range(2, 11))   # 10 is the CLI's series-order guard


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m >= MR_LIMIT:
        raise ValueError("%d is beyond the exact Miller-Rabin range" % m)
    for p in MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    while not is_prime(m):
        m += 1
    return m


def prime_powers(lo: int, hi: int) -> list:
    """All p^k with lo <= p^k <= hi, k >= 1, from a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, hi + 1, i)))
    out = []
    for p in range(2, hi + 1):
        if sieve[p]:
            power = p
            while power <= hi:
                if power >= lo:
                    out.append(power)
                power *= p
    return sorted(out)


def make_inputs(workload: str, seed: int) -> dict:
    """The generated values for one run of one workload."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "census":
        # four-digit q, so the count column has the same width for every seed
        return {"n": CENSUS_N, "q": rng.choice(prime_powers(1000, 9999))}
    if workload == "keel-deep":
        # trial division costs ~sqrt(p); within 2^40 + 2^32 that varies by 0.2%
        primes = set()
        while len(primes) < KEEL_DEEP_PRIMES:
            primes.add(next_prime(2 ** 40 + rng.randrange(2 ** 32)))
        return {"n": KEEL_DEEP_N, "primes": sorted(primes)}
    if workload == "queries":
        qs = rng.sample(prime_powers(2, 10 ** 4), QUERIES_Q)
        return {"n": QUERIES_N, "qs": qs, "orders": list(QUERIES_ORDERS)}
    raise ValueError("unknown workload %r" % workload)
