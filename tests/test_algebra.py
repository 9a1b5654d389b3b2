import random
import re
import time
from fractions import Fraction
from math import factorial

import pytest

from m0nbar.algebra import (
    _MR_BASES,
    _iroot,
    MILLER_RABIN_LIMIT,
    BiSeries,
    biseries_x,
    factorization_str,
    intpoly,
    is_prime,
    is_prime_power,
    normalize,
    poly_add,
    poly_eval,
    poly_mul,
    poly_str,
    require_int,
    require_prime,
    require_prime_power,
    require_size,
    series_compose,
    _strong_probable_prime,
)
from m0nbar.report import all_pass
from m0nbar.zeta import verify_zeta_counts


def ratpoly(*coeffs):
    """A polynomial with Fraction coefficients, in canonical form."""
    return normalize(Fraction(c) for c in coeffs)


def poly_degree(p) -> int:
    """Degree of a canonical polynomial; the zero polynomial has degree -1."""
    return len(p) - 1


def test_add_basic():
    assert poly_add(intpoly(1, 1), intpoly(0, 1)) == (1, 2)
    p = intpoly(3, 0, 7)
    assert poly_add(p, ()) == p
    # cancellation must land on the canonical zero
    assert poly_add(intpoly(1, 1), intpoly(-1, -1)) == ()


def test_mul_basic():
    assert poly_mul(intpoly(1, 1), intpoly(1, 1)) == (1, 2, 1)
    p = intpoly(2, 0, 5)
    assert poly_mul(p, intpoly(1)) == p
    assert poly_mul(intpoly(1, 1), ()) == ()


def test_eval():
    assert poly_eval(intpoly(1, 5, 1), 2) == 15
    assert poly_eval(intpoly(1), 12345) == 1
    assert poly_eval((), 7) == 0


def test_degree_and_normalization():
    assert poly_degree(()) == -1
    assert intpoly(1, 2, 0, 0) == (1, 2)
    assert normalize((Fraction(1, 2), 0)) == (Fraction(1, 2),)


def _random_poly(rng, rational=False):
    deg = rng.randrange(0, 5)
    coeffs = [rng.randrange(-9, 10) for _ in range(deg + 1)]
    if rational:
        coeffs = [Fraction(c, rng.randrange(1, 5)) for c in coeffs]
        return ratpoly(*coeffs)
    return intpoly(*coeffs)


@pytest.mark.parametrize("rational", [False, True])
def test_ring_axioms(rational):
    rng = random.Random(20260808)
    for _ in range(60):
        a, b, c = (_random_poly(rng, rational) for _ in range(3))
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))


def test_no_zero_divisors_and_degree_additivity():
    rng = random.Random(7)
    for _ in range(80):
        a, b = _random_poly(rng), _random_poly(rng)
        if not a or not b:
            assert poly_mul(a, b) == ()
            continue
        assert poly_degree(poly_mul(a, b)) == poly_degree(a) + poly_degree(b)


def test_eval_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(60):
        a, b = _random_poly(rng), _random_poly(rng)
        x = rng.randrange(-6, 7)
        assert poly_eval(poly_add(a, b), x) == poly_eval(a, x) + poly_eval(b, x)
        assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)


def test_series_validation():
    with pytest.raises(ValueError):
        BiSeries(2, ((), (1,), ()))  # length mismatch
    s = BiSeries(3, ((), (1, 0), ()))
    assert s.coeffs == ((), (1,), ())  # trailing zero series term kept
    # the coefficients n! [x^n] are integer polynomials in s
    for bad in (Fraction(1, 2), Fraction(1), 1.0, "1"):
        with pytest.raises(ValueError, match="must be integer polynomials"):
            BiSeries(2, ((), (0, bad)))
    # the order is a nonnegative int, even where its value fits the coefficients
    for bad in (4.0, Fraction(4), "4", None):
        with pytest.raises(ValueError, match="^truncation order = %s is not an int$"
                                             % re.escape(repr(bad))):
            BiSeries(bad, ((),) * 4)
    with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
        BiSeries(-1, ())


def test_compose_identity_both_sides():
    rng = random.Random(11)
    for _ in range(20):
        order = rng.randrange(2, 6)
        coeffs = [_random_poly(rng) for _ in range(order)]
        f = BiSeries(order, coeffs)
        coeffs[0] = ()
        g = BiSeries(order, coeffs)
        x = biseries_x(order)
        assert series_compose(f, x) == f
        assert series_compose(x, g) == g


def test_compose_hand_example():
    # f = x^2, g = x + x^2, truncation order 4: f(g) = x^2 + 2x^3, each
    # stored as n! [x^n]
    f = BiSeries(4, [(), (), (2,), ()])
    g = BiSeries(4, [(), (1,), (2,), ()])
    assert series_compose(f, g) == BiSeries(4, [(), (), (2,), (12,)])


def _ordinary(series):
    # [x^n] = n! [x^n] / n!, with Fraction coefficients
    return [ratpoly(*(Fraction(c, factorial(n)) for c in p))
            for n, p in enumerate(series.coeffs)]


def _compose_by_powers(f, g):
    # the Fraction power loop series_compose used before its integer kernel,
    # kept as an independent oracle on the ordinary coefficients f[n] and
    # g[n]: sum_n f_n g^n with g^n built by repeated truncated
    # multiplication
    order = len(f)
    if order == 0:
        return []
    out = [()] * order
    out[0] = f[0]
    gpow = list(g)
    for n in range(1, order):
        if f[n]:
            for m in range(n, order):
                out[m] = poly_add(out[m], poly_mul(f[n], gpow[m]))
        nxt = [()] * order
        for i, ca in enumerate(gpow):
            for j in range(order - i):
                nxt[i + j] = poly_add(nxt[i + j], poly_mul(ca, g[j]))
        gpow = nxt
    return out


def test_compose_matches_the_power_loop():
    rng = random.Random(1302)
    cases = []
    for _ in range(150):
        order = rng.randrange(0, 10)
        f = [_random_poly(rng) for _ in range(order)]
        g = [()] + [_random_poly(rng) for _ in range(order - 1)]
        cases.append((BiSeries(order, f), BiSeries(order, g[:order])))
    for order in range(1, 10):
        zero = BiSeries(order, [()] * order)
        # f has a nonzero constant term, and both have ordinary coefficients
        # that are not integers
        f = BiSeries(order, [(n + 1, -n - 2) for n in range(order)])
        g = BiSeries(order, [()] + [(2 * n + 1, n % 5) for n in range(1, order)])
        cases += [(f, g), (g, g), (f, biseries_x(order)), (f, zero), (zero, g), (zero, zero)]
    nonintegral = 0
    for f, g in cases:
        nonintegral += any(c.denominator > 1 for p in _ordinary(g) for c in p)
        assert _ordinary(series_compose(f, g)) == _compose_by_powers(_ordinary(f), _ordinary(g)), (f, g)
    assert nonintegral > 100


def test_compose_rejects_bad_input():
    f = biseries_x(4)
    with pytest.raises(ValueError):
        series_compose(f, BiSeries(4, [(1,), (1,), (), ()]))  # constant term
    with pytest.raises(ValueError):
        series_compose(f, biseries_x(5))  # mixed truncation orders


def test_poly_str():
    assert poly_str(intpoly(1, 16, 16, 1), "t", power_scale=2) == "1 + 16*t^2 + 16*t^4 + t^6"
    assert poly_str(intpoly(-2, 1), "q", descending=True) == "q - 2"
    assert poly_str(intpoly(6, -5, 1), "q", descending=True) == "q^2 - 5*q + 6"
    assert poly_str((), "q") == "0"
    assert poly_str((0, 1)) == "s"
    assert poly_str((Fraction(1, 3), Fraction(-1, 6)), "s") == "1/3 - 1/6*s"
    assert poly_str(intpoly(1, 16), "t", power_scale=2, latex=True) == "1 + 16t^{2}"


def test_prime_powers():
    assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [m for m in range(2, 28) if is_prime_power(m)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
    ]
    require_prime_power(9)
    with pytest.raises(ValueError, match=r"2 \* 3"):
        require_prime_power(6)
    with pytest.raises(ValueError):
        require_prime_power(1)
    assert factorization_str(12) == "2^2 * 3"
    assert factorization_str(1) == "1"
    for p in (1, 0):
        with pytest.raises(ValueError, match="^p = %d is not prime$" % p):
            require_prime(p)


def test_prime_checks_refuse_non_ints():
    for m in (2.5, 7.5, 9.0):
        for check in (is_prime, is_prime_power):
            with pytest.raises(ValueError, match=r"^m = %r is not an int" % m):
                check(m)
    # the int answers are unchanged, the memoized ones included
    assert [is_prime(m) for m in (2, 7, 9)] == [True, True, False]
    assert [is_prime_power(m) for m in (2, 7, 9, 10)] == [True, True, True, False]


def test_sizes_refuse_bool():
    # bool subclasses int, so an isinstance check alone would take True as 1
    for value in (True, False):
        for check in (lambda v: require_int("n", v), lambda v: require_size("n", v, 0)):
            with pytest.raises(ValueError, match="^n = %r is not an int$" % value):
                check(value)
    require_int("n", 1)
    require_size("n", 0, 0)


def test_prime_power_memo_is_typed():
    # 9.0, 1.0 and True hash like 9 and 1; each is refused by name on every
    # call, after the ints' answers are in the memo, and never read from it
    assert is_prime_power(9) and not is_prime_power(1)
    for bad in (9.0, 1.0, Fraction(1), True):
        for _ in range(2):
            with pytest.raises(ValueError, match="^m = %s is not an int$" % re.escape(repr(bad))):
                is_prime_power(bad)


def test_prime_power_memo_keeps_every_check():
    require_prime_power(5)
    require_prime_power(9)
    for _ in range(3):
        for q in (6, 1, 0, -4):
            with pytest.raises(ValueError, match="not a prime power"):
                require_prime_power(q)
        require_prime_power(5)
        require_prime_power(9)
    # a raise is never memoized: an uncertifiable prime is refused every time
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot certify"):
            is_prime_power(2**89 - 1)
    assert is_prime_power.cache_info().maxsize is not None


def test_prime_power_memo_answers_cold_and_warm():
    limit = 5000
    sieve = [True] * limit
    for p in range(2, limit):
        if sieve[p]:
            for m in range(p * p, limit, p):
                sieve[m] = False
    powers = set()
    for p in range(2, limit):
        if sieve[p]:
            power = p
            while power < limit:
                powers.add(power)
                power *= p
    # chunks that fit the memo: each is read once cold, then once warm
    is_prime_power.cache_clear()
    cold, warm = [], []
    for start in range(2, limit, 500):
        chunk = range(start, min(start + 500, limit))
        cold += [m for m in chunk if is_prime_power(m)]
        warm += [m for m in chunk if is_prime_power(m)]
    info = is_prime_power.cache_info()
    assert info.misses == info.hits == limit - 2
    assert cold == warm == sorted(powers)


def _trial_division_reference(limit):
    # smallest prime factor of every 2 <= m < limit, by plain trial division
    primes = []     # the primes below sqrt(limit)
    out = {}
    for m in range(2, limit):
        factor = m
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                factor = p
                break
        out[m] = factor
        if factor == m and m * m < limit:
            primes.append(m)
    return out


def test_prime_checks_match_trial_division():
    for m in range(-3, 2):
        assert not is_prime(m) and not is_prime_power(m)
    for m, p in _trial_division_reference(200_000).items():
        rest = m
        while rest % p == 0:
            rest //= p
        assert is_prime(m) == (p == m), m
        assert is_prime_power(m) == (rest == 1), m


# consecutive primes just above 2^40
P40 = 2**40 + 15
P40_NEXT = 2**40 + 27

# Carmichael numbers, then psi_1 .. psi_12: the least strong pseudoprime to
# the first k prime bases (psi_7 = psi_8 and psi_9 = psi_10 = psi_11)
PSEUDOPRIMES = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


def test_pseudoprimes_are_composite():
    for m in PSEUDOPRIMES:
        assert not is_prime(m), m
        assert not is_prime_power(m), m
    # psi_12 fools the first 12 bases and base 41 catches it; psi_13 fools
    # all 13, which is why it is the bound, and so it is refused
    assert _strong_probable_prime(PSEUDOPRIMES[-1], _MR_BASES[:12])
    assert not _strong_probable_prime(PSEUDOPRIMES[-1], _MR_BASES)
    assert _strong_probable_prime(MILLER_RABIN_LIMIT, _MR_BASES)
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(MILLER_RABIN_LIMIT)


def test_large_prime_powers():
    assert is_prime(P40) and is_prime(P40_NEXT)
    assert not any(is_prime(m) for m in range(P40 + 1, P40_NEXT))
    for k in (1, 2, 3):
        assert is_prime_power(P40 ** k), k
        assert is_prime(P40 ** k) == (k == 1)
        assert not is_prime_power(2 * P40 ** k)
        assert not is_prime_power(P40 ** k * P40_NEXT)
    assert is_prime_power(P40 ** 6) and is_prime_power(3 ** 90)
    assert not is_prime_power((P40 * P40_NEXT) ** 2)
    # a prime exponent beyond the primes below the trial bound
    assert is_prime_power(1009 ** 1009)
    assert not is_prime_power((1009 * 1013) ** 1009)
    require_prime_power(1009 ** 1009)
    # p^3 lies above the Miller-Rabin bound, its base prime below it
    assert P40 ** 3 > MILLER_RABIN_LIMIT
    require_prime_power(P40 ** 3)


def test_iroot_is_the_floor_root():
    rng = random.Random(9)
    for _ in range(2000):
        k = rng.randrange(2, 60)
        root = rng.getrandbits(rng.randrange(1, 80)) or 1
        for m in (root ** k - 1, root ** k, root ** k + 1, rng.getrandbits(400)):
            if m >= 1:
                r = _iroot(m, k)
                assert r ** k <= m < (r + 1) ** k, (m, k)
    for k in (2, 1009):
        for m in (1009 ** k - 1, 1009 ** k, (10**300 + 7) ** k):
            r = _iroot(m, k)
            assert r ** k <= m < (r + 1) ** k, (m, k)


def test_prime_checks_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1509)
    for _ in range(300):
        m = rng.getrandbits(rng.randrange(40, 81)) | 1
        assert is_prime(m) == sympy.isprime(m), m
    for _ in range(30):
        p = sympy.nextprime(rng.getrandbits(rng.randrange(40, 81)))
        k = rng.randrange(1, 4)
        assert is_prime_power(p ** k), (p, k)
        assert not is_prime_power(p ** k * sympy.nextprime(p))


def test_zeta_counts_at_large_prime():
    assert all_pass(verify_zeta_counts(120, P40, 3))


def test_large_inputs_are_answered_fast():
    t0 = time.perf_counter()
    require_prime_power(2**61 - 1)
    require_prime(2**61 - 1)
    assert time.perf_counter() - t0 < 0.01


def test_uncertifiable_and_unfactored_inputs():
    # 2^89 - 1 is prime, but above the bound the 13 bases prove nothing
    with pytest.raises(ValueError, match="cannot certify"):
        require_prime_power(2**89 - 1)
    product = P40 * P40_NEXT
    t0 = time.perf_counter()
    assert factorization_str(product) == "%d (no prime factor up to 65536)" % product
    assert factorization_str(12 * P40 ** 2) == (
        "2^2 * 3 * %d (no prime factor up to 65536)" % P40 ** 2
    )
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(ValueError, match="is not a prime power"):
        require_prime_power(product)
    assert factorization_str(2**32 - 5) == "4294967291"
    assert factorization_str(2 * 3**5 * 65537) == "2 * 3^5 * 65537"


def test_numbers_too_long_to_print_are_refused_by_size():
    # past 4300 digits str() refuses to print an int, so the message gives its size
    with pytest.raises(ValueError, match=r"^q = a 16611-bit number = 2\^5001 \* 5\^5000 is not"):
        require_prime_power(2 * 10**5000)
    with pytest.raises(ValueError, match=r"^p = a 16610-bit number = 2\^5000 \* 5\^5000 is not"):
        require_prime(10**5000)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from m0nbar import *", namespace)
    import m0nbar
    assert [name for name in m0nbar.__all__ if name not in namespace] == []
