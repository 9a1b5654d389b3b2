"""Exact arithmetic kernel: dense univariate polynomials and truncated series.

A polynomial is a tuple of coefficients, index i holding the coefficient of
the i-th power of the indeterminate.  Canonical form has no trailing zeros,
so the zero polynomial is the empty tuple and structural equality (==) is
mathematical equality.  Coefficients are Python ints (IntPoly); all
arithmetic is exact and there is no floating point anywhere in the package.
poly_str also renders fractions.Fraction coefficients, for the printed
ordinary coefficients of Getzler's series.

A truncated power series (BiSeries) carries an explicit truncation order
(exclusive) and retains trailing zeros.  It is a series in x whose
coefficients are polynomials in a second indeterminate s, stored in
exponential form: coeffs[n] is n! [x^n], an IntPoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, log2

IntPoly = tuple


class InexactDivisionError(ArithmeticError):
    """An integer division that must be exact left a nonzero remainder."""


def normalize(coeffs) -> tuple:
    """Strip trailing zeros; the canonical zero polynomial is the empty tuple."""
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def intpoly(*coeffs: int) -> IntPoly:
    return normalize(coeffs)


def poly_add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def poly_neg(a) -> tuple:
    return tuple(-c for c in a)


def poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return normalize(out)


def poly_scale(a, c) -> tuple:
    return normalize(x * c for x in a)


def poly_eval(p, x):
    """Exact Horner evaluation."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _coeff_str(c, latex: bool) -> str:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            if latex:
                return r"\frac{%d}{%d}" % (c.numerator, c.denominator)
            return "%d/%d" % (c.numerator, c.denominator)
        return str(c.numerator)
    return str(c)


def poly_str(p, var: str = "s", power_scale: int = 1,
             descending: bool = False, latex: bool = False) -> str:
    """Render a polynomial as text, e.g. "1 + 16*t^2 + 16*t^4 + t^6".

    power_scale stretches exponents (Poincare polynomials live in s = t^2
    but print in t).  Descending order reads better for monic q-polynomials
    such as "q^2 - 5*q + 6".
    """
    if not p:
        return "0"
    indices = range(len(p) - 1, -1, -1) if descending else range(len(p))
    parts = []
    for k in indices:
        c = p[k]
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        power = k * power_scale
        if power == 0:
            body = _coeff_str(mag, latex)
        else:
            if power == 1:
                v = var
            else:
                v = "%s^{%d}" % (var, power) if latex else "%s^%d" % (var, power)
            if mag == 1:
                body = v
            else:
                body = _coeff_str(mag, latex) + ("" if latex else "*") + v
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# truncated series

@dataclass(frozen=True)
class BiSeries:
    """Series in x truncated at `order`; coeffs[n] = n! [x^n], an IntPoly in s."""
    order: int
    coeffs: tuple

    def __post_init__(self):
        require_size("truncation order", self.order, 0)
        coeffs = tuple(normalize(c) for c in self.coeffs)
        if len(coeffs) != self.order:
            raise ValueError(
                "bivariate series wants exactly %d coefficients, got %d"
                % (self.order, len(coeffs))
            )
        if not all(isinstance(c, int) and not isinstance(c, bool)
                   for poly in coeffs for c in poly):
            raise ValueError("coefficients n! [x^n] must be integer polynomials: %r" % (coeffs,))
        object.__setattr__(self, "coeffs", coeffs)


def biseries_x(order: int) -> BiSeries:
    """The identity series x at the given truncation order."""
    coeffs = [()] * order
    if order > 1:
        coeffs[1] = (1,)
    return BiSeries(order, coeffs)


def series_compose(f: BiSeries, g: BiSeries) -> BiSeries:
    """Substitute g into f, exactly, truncated at the shared order.

    g must have zero constant term (otherwise the substitution is not
    defined as a truncated series), and mixing two truncation orders is an
    error rather than a silent truncation.

    The kernel is Faa di Bruno's formula in exponential form (Comtet,
    Advanced Combinatorics, ch. 3).  With F_k = f.coeffs[k] = k! [x^k] f
    and G_j = g.coeffs[j],

        m! [x^m] f(g) = sum_k F_k B_{m,k}(G),

    where the partial Bell polynomial B_{m,k} sums prod G_|block| over the
    partitions of m labels into k blocks.  Split off the block that holds
    the last label:

        B_{m,k} = sum_j C(m-1, j-1) G_j B_{m-j,k-1}.

    All of it runs in integers.  Each integer polynomial in s is carried as
    its value at s = 2^width (Kronecker substitution), so a product of
    polynomials is one product of ints.  The same sums over the
    coefficients' absolute values at s = 1 bound every output coefficient,
    and width leaves room for that bound and a sign, so each coefficient is
    read back from its slot exactly.
    """
    if f.order != g.order:
        raise ValueError(
            "cannot compose series of different orders (%d vs %d)"
            % (f.order, g.order)
        )
    order = f.order
    if order == 0:
        return BiSeries(0, ())
    if g.coeffs[0] != ():
        raise ValueError("composition needs a zero constant term in g")

    def bell_sums(fv, gv):
        # sum_k fv[k] B_{m,k}(gv) for m = 1 .. order-1
        bell = [[1]]                # bell[m][k] = B_{m,k}; B_{0,0} = 1
        sums = []
        for m in range(1, order):
            weighted = [0] + [comb(m - 1, j - 1) * gv[j] for j in range(1, m + 1)]
            row = [0]               # B_{m,0} = 0 for m >= 1
            total = 0
            for k in range(1, m + 1):
                b = sum(weighted[j] * bell[m - j][k - 1] for j in range(1, m - k + 2))
                row.append(b)
                total += fv[k] * b
            bell.append(row)
            sums.append(total)
        return sums

    norms = bell_sums([sum(map(abs, p)) for p in f.coeffs],
                      [sum(map(abs, p)) for p in g.coeffs])
    width = max(norms, default=0).bit_length() + 1
    mask, half = (1 << width) - 1, 1 << (width - 1)
    packed = bell_sums([sum(c << (width * i) for i, c in enumerate(p)) for p in f.coeffs],
                       [sum(c << (width * i) for i, c in enumerate(p)) for p in g.coeffs])
    out = [f.coeffs[0]]
    for value in packed:
        coeffs = []
        while value:
            c = value & mask
            if c >= half:
                c -= 1 << width
            coeffs.append(c)
            value = (value - c) >> width
        out.append(tuple(coeffs))
    return BiSeries(order, out)


# ---------------------------------------------------------------------------
# integer plumbing: primality, prime powers and factorization
#
# Primality is certified by trial division up to _TRIAL_BOUND and then by the
# strong probable-prime test on the first 13 prime bases, which no composite
# below MILLER_RABIN_LIMIT passes (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86 (2017), arXiv:1509.00864).  Above the
# limit a witness still proves a number composite; one without a witness is
# refused, not guessed.

def _primes_below(bound: int) -> tuple:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


_TRIAL_BOUND = 1000
_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
_PRIME_SQUARES = tuple((p, p * p) for p in _SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]          # 2, 3, 5, ..., 41
MILLER_RABIN_LIMIT = 3317044064679887385961981
FACTOR_CAP = 1 << 16                    # largest trial divisor in factorization_str


def _decimal(m: int) -> str:
    """m in decimal, or its bit length when m is too long to print."""
    try:
        return str(m)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        return "a %d-bit number" % m.bit_length()


def _strong_probable_prime(m: int, bases) -> bool:
    """m odd and coprime to every base: does m pass Miller-Rabin on each one?"""
    d, r = m - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in bases:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _certify_prime(m: int) -> bool:
    """Primality of an m with no prime factor below _TRIAL_BOUND.

    Above MILLER_RABIN_LIMIT no set of bases is a proof, so one base is
    tried: a witness still proves m composite, and otherwise m is refused.
    """
    if m < MILLER_RABIN_LIMIT:
        return _strong_probable_prime(m, _MR_BASES)
    if not _strong_probable_prime(m, _MR_BASES[:1]):
        return False
    raise ValueError(
        "cannot certify %s as prime: Miller-Rabin on the first 13 prime bases "
        "is a proof only below %d" % (_decimal(m), MILLER_RABIN_LIMIT)
    )


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by integer Newton steps from above.

    The steps start from a float estimate of the root raised by a margin, so
    they take few iterations even for large k; should the estimate not lie
    above the root, they start from 2**ceil(bits / k), which always does.
    """
    bits = m.bit_length()
    shift = max(bits - 64, 0)
    e, frac = divmod((log2(m >> shift) + shift) / k, 1.0)
    x = int(2.0 ** frac * (1 << 53))
    e = int(e) - 53
    x = x << e if e >= 0 else x >> -e
    x += (x >> 32) + 1
    if x ** k <= m:
        x = 1 << -(-bits // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _power_base(m: int) -> int:
    """The r with m = r**e for some e >= 1 and r no perfect power; m has no
    factor below _TRIAL_BOUND.

    A k-th root of such an m exceeds _TRIAL_BOUND > 2**9, so k < bit_length/9
    bounds the prime exponents k worth trying.
    """
    bound = m.bit_length() // 9 + 2
    primes = _SMALL_PRIMES if bound <= _TRIAL_BOUND else _primes_below(bound)
    for k in primes:
        if _TRIAL_BOUND ** k > m:
            break
        root = _iroot(m, k)
        while root ** k == m:
            m = root
            root = _iroot(m, k)
    return m


def is_prime(m: int) -> bool:
    """Exact primality; raises ValueError where no proof is at hand, or if
    m is not an int."""
    require_int("m", m)
    for p, square in _PRIME_SQUARES:
        if square > m:
            return m >= 2
        if m % p == 0:
            return m == p
    return _certify_prime(m)


@lru_cache(maxsize=1024, typed=True)
def is_prime_power(m: int) -> bool:
    """Is m = p^k for a prime p and k >= 1?  Raises ValueError if m is not
    an int, or if p cannot be certified (it passes Miller-Rabin but lies
    above MILLER_RABIN_LIMIT).

    Answers are memoized, since every per-q call validates its q again; a
    raise is not, so an uncertifiable m raises on every call.  The memo is
    typed, as strata_table's is, so 9.0 never reads the entry of 9."""
    require_int("m", m)
    for p, square in _PRIME_SQUARES:
        if square > m:
            return m >= 2
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
    return _certify_prime(_power_base(m))


def factorization_str(m: int) -> str:
    """m as prime powers, e.g. "2^2 * 3", by trial division up to FACTOR_CAP."""
    if m < 2:
        return str(m)
    parts = []
    d = 2
    while d * d <= m and d <= FACTOR_CAP:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            parts.append(str(d) if e == 1 else "%d^%d" % (d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        parts.append(str(m) if d * d > m
                     else "%s (no prime factor up to %d)" % (_decimal(m), FACTOR_CAP))
    return " * ".join(parts)


def require_int(name: str, value) -> None:
    """Reject a value that is not an int, naming it; bool is refused too,
    though it subclasses int, so True never passes as 1.  Callers check
    first, so no memo ever sees a float key such as 5.0, which hashes like 5."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s = %r is not an int" % (name, value))


def require_size(name: str, value, least: int, guard: int = None, bound: str = "") -> None:
    """Reject a size that is not an int from least up to guard, naming it;
    bound names the guard, as in "n = 176 exceeds the Keel row bound (175)"."""
    require_int(name, value)
    if value < least:
        raise ValueError("%s must be >= %d" % (name, least))
    if guard is not None and value > guard:
        raise ValueError("%s = %d exceeds %s (%d)" % (name, value, bound, guard))


def require_order(order, least: int, guard: int) -> None:
    """Reject an order that is not an int from least to guard, naming both."""
    require_int("order", order)
    if not least <= order <= guard:
        raise ValueError("order must be between %d and %d" % (least, guard))


def require_prime_power(q: int) -> None:
    """Reject q unless it is an int and a prime power, naming the
    factorization.  The type is checked first, so no memo downstream ever
    sees a float key such as 2.0, which hashes like 2."""
    require_int("q", q)
    if q < 2:
        raise ValueError("q = %r is not a prime power" % (q,))
    if not is_prime_power(q):
        raise ValueError(
            "q = %s = %s is not a prime power" % (_decimal(q), factorization_str(q))
        )


def require_prime(p: int) -> None:
    """Reject p unless it is an int and a prime, naming the factorization."""
    require_int("p", p)
    if not is_prime(p):
        if p >= 2:
            raise ValueError("p = %s = %s is not prime" % (_decimal(p), factorization_str(p)))
        raise ValueError("p = %r is not prime" % (p,))
