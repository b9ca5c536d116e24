"""Binary and n-ary vector-partition counting and transform identities.

Power-of-two part systems: the 1D binary partition function, the 0/1-digit
indicator for two-component base-n partitions into distinct parts, the
two-variable beta grid with its four computation routes, and the sides of
the 2D/3D distinct-to-unrestricted product transforms that are not plain
lattice products.
"""

from __future__ import annotations

from . import determinants
from .lattice import PartitionGrid, count_grid, count_partitions, DISTINCT
from .series import Caps, EXACT, Series, SeriesError, binomial_product


def powers_upto(cap: int, base: int = 2):
    out, p = [], 1
    while p <= cap:
        out.append(p)
        p *= base
    return out


def binary_count(n: int) -> int:
    """b(n): partitions of n into powers of 2, computed two ways.

    Route one is the plain product over 1/(1 - q^(2^k)); route two is the
    multiplicity-capped product (1+x)(1+x^2)^2 (1+x^4)^3 ...; the two must
    agree (2^(m-1) used at most m times).
    """
    if n < 0:
        raise SeriesError("n must be >= 0")
    caps = Caps.of([n])
    one_way = binary_count_series(n)
    other = binomial_product(
        (((p,), 1, k + 1, 1) for k, p in enumerate(powers_upto(n))),
        ("q",), caps)
    if one_way != other:
        raise AssertionError("binary partition routes disagree")
    return int(one_way.coefficient((n,)))


def binary_count_series(cap: int) -> Series:
    return binomial_product((((p,), 1, -1, -1) for p in powers_upto(cap)),
                            ("q",), Caps.of([cap]))


def repunits(base: int, limit: int):
    """All sums 1 + base + ... + base^(m-1) up to limit."""
    out, value, power = [], 0, 1
    while True:
        value += power
        if value > limit:
            return out
        out.append(value)
        power *= base


def _digits_zero_one(n: int, base: int) -> bool:
    while n:
        if n % base > 1:
            return False
        n //= base
    return True


def b_indicator(a: int, b: int, base: int = 2) -> int:
    """1 iff base-`base` digits of a and b are all 0/1 and a+b is a repunit.

    Equals the coefficient of p^a q^b in 1 + sum_k prod_{j<=k}
    (p^(base^j) + q^(base^j)); endpoint terms with a zero component are
    admitted, matching the expanded polynomials.
    """
    if a < 0 or b < 0 or base < 2:
        raise SeriesError("need a, b >= 0 and base >= 2")
    if a == 0 and b == 0:
        return 1  # the empty product contributes the constant term
    if not (_digits_zero_one(a, base) and _digits_zero_one(b, base)):
        return 0
    return 1 if (a + b) in repunits(base, a + b) else 0


def b_indicator_series(caps: Caps, base: int = 2) -> Series:
    """1 + sum_k prod_{j<=k} (p^(base^j) + q^(base^j)) truncated to caps."""
    names = ("p", "q")
    out = Series.one(names, caps)
    limit = max(caps.limits)
    chain = Series.one(names, caps)
    power = 1
    total = 0
    while total + power <= 2 * limit:
        term = Series(names, caps, EXACT, {(power, 0): 1, (0, power): 1})
        chain = chain * term
        out = out + chain
        total += power
        power *= base
    return out


def _limits(caps: Caps, names) -> tuple:
    """The caps' per-variable limits, one for each of the names."""
    if len(caps.limits) != len(names):
        raise SeriesError(f"caps arity {len(caps.limits)} does not fit "
                          f"{len(names)} variables")
    return caps.limits


def beta2_product_series(caps: Caps, names=("q", "t")) -> Series:
    """prod over k >= 0 of 1/(1 - q t^(2^k)) truncated to caps (q, t)."""
    return binomial_product((((1, p), 1, -1, -1)
                             for p in powers_upto(_limits(caps, names)[1])),
                            names, caps)


def beta2_distinct_series(caps: Caps) -> Series:
    """prod over 0 <= j <= k of (1 + q^(2^j) t^(2^k))."""
    cap_q, cap_t = _limits(caps, "qt")
    return binomial_product(
        (((pq, pt), 1, 1, 1)
         for k, pt in enumerate(powers_upto(cap_t))
         for j, pq in enumerate(powers_upto(cap_q)) if j <= k),
        ("q", "t"), caps)


def beta2_grid(caps: Caps) -> PartitionGrid:
    """The beta grid, cross-checked over all four computation routes.

    Product route, distinct-product route, determinant route (column
    polynomials A_k), and the enumeration oracle must agree cell by cell.
    """
    series = beta2_product_series(caps)
    distinct = beta2_distinct_series(caps)
    if series != distinct:
        raise AssertionError("beta2 product routes disagree")
    cap_q, cap_t = caps.limits
    for k in range(1, cap_t + 1):
        ak = determinants.binary_Ak(k, cap_q)
        column = {e[0]: c for e, c in series.terms.items() if e[1] == k}
        if column != {e[0]: c for e, c in ak.terms.items()}:
            raise AssertionError(f"determinant route disagrees at t^{k}")
    parts = [(1, p) for p in powers_upto(cap_t)]
    for (j, k), oracle in count_grid(caps, parts).items():
        if oracle != series.terms.get((j, k), 0):
            raise AssertionError(f"oracle disagrees at ({j},{k})")
    return PartitionGrid.from_series(series, caps)


def beta2_oracle(j: int, k: int, distinct_route: bool = False) -> int:
    """beta_2(j,k) by direct enumeration over either part system."""
    if distinct_route:
        parts = [(a, b) for a in powers_upto(j or 1) for b in powers_upto(k or 1)
                 if a <= b]
        return count_partitions((j, k), parts, DISTINCT)
    parts = [(1, p) for p in powers_upto(k or 1)]
    return count_partitions((j, k), parts)


def pyramid3_unrestricted_series(caps: Caps) -> Series:
    """The unrestricted side of prod_{i,k<=j} (1+x^(2^i) y^(2^j) z^(2^k)):

    1/(1-xyz) * prod_j [prod_{i<=j} 1/(1-x^(2^i) y^(2^j) z)
                        * prod_{1<=k<=j} 1/(1-x y^(2^j) z^(2^k))]
    """
    xpows, ypows, zpows = (powers_upto(c) for c in _limits(caps, "xyz"))
    parts = [(1, 1, 1)]
    for j, b in enumerate(ypows[1:], 1):
        parts += [(a, b, 1) for a in xpows[:j + 1]]
        parts += [(1, b, c) for c in zpows[1:j + 1]]
    return binomial_product(((m, 1, -1, -1) for m in parts), ("x", "y", "z"), caps)


def unrestricted_b2_series(caps: Caps) -> Series:
    """B_2(y,z) = prod 1/(1 - y^(2^m) z^(2^n))."""
    cap_y, cap_z = _limits(caps, "yz")
    return binomial_product(
        (((a, b), 1, -1, -1) for a in powers_upto(cap_y)
         for b in powers_upto(cap_z)), ("y", "z"), caps)


def distinct_b2_series(caps: Caps) -> Series:
    """bold B_2(y,z) = prod (1 + y^(2^m) z^(2^n))."""
    cap_y, cap_z = _limits(caps, "yz")
    return binomial_product(
        (((a, b), 1, 1, 1) for a in powers_upto(cap_y)
         for b in powers_upto(cap_z)), ("y", "z"), caps)


def min_index_product(caps: Caps, exponent, sign: int) -> Series:
    """prod (1 + sign*y^(2^m) z^(2^n))^exponent(min(m, n) + 1) over the binary grid.

    Exponent e and sign +1 give B_2(y,z), the product of 1/(1 - y^(2^m) z^(2^n));
    exponent e(e+1)/2 with sign +1 equals exponent -e with sign -1.
    """
    cap_y, cap_z = _limits(caps, "yz")
    return binomial_product(
        (((a, b), 1, exponent(min(m, n) + 1), sign)
         for m, a in enumerate(powers_upto(cap_y))
         for n, b in enumerate(powers_upto(cap_z))), ("y", "z"), caps)
