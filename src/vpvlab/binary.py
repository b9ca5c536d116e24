"""Binary and n-ary vector-partition counting and transform identities.

Power-of-two part systems: the 1D binary partition function, the 0/1-digit
indicator for two-component base-n partitions into distinct parts, the
two-variable beta grid with its four computation routes, the base-2 product
specs the catalog and the grids share, and the min-index products, whose
exponents are read from a base-2 index.
"""

from __future__ import annotations

from . import determinants
from .lattice import (DISTINCT, ORDER_ALL_BELOW_LAST, LatticeRegion, PartitionGrid,
                      ProductSpec, WeightExpr, count_grid, count_partitions,
                      product_series)
from .series import Caps, EXACT, Series, SeriesError, binomial_product


def powers_upto(cap: int, base: int = 2):
    out, p = [], 1
    while p <= cap:
        out.append(p)
        p *= base
    return out


def binary_powers_spec(n, sign, direction, names=None, mapping=None,
                       **region) -> ProductSpec:
    """prod (1 + sign X)^direction over X with every exponent a power of 2.

    `region` holds further `LatticeRegion` fields (order, upper, unit_counts);
    the names default to the last n of x, y, z.
    """
    return ProductSpec(
        region=LatticeRegion(arity=n, base_powers=2, **region),
        factor=WeightExpr(sign=sign, direction=direction, powers=(0,) * n),
        mapping=mapping, names=names or ("x", "y", "z")[-n:])


def beta2_spec(names=("q", "t")) -> ProductSpec:
    """prod over k >= 0 of 1/(1 - q t^(2^k)): the first component is held at 1."""
    return binary_powers_spec(2, -1, -1, names, upper=(1, None))


def beta2_distinct_spec(names=("q", "t")) -> ProductSpec:
    """prod over 2^a <= 2^b of (1 + q^(2^a) t^(2^b)): the distinct side of beta_2."""
    return binary_powers_spec(2, 1, 1, names, order=ORDER_ALL_BELOW_LAST)


def multiplicity_capped_spec(names=("x",)) -> ProductSpec:
    """prod over k >= 0 of (1 + x^(2^k))^(k+1).

    The dropped first component runs over the k+1 powers 2^j <= 2^k, whose
    equal factors `product_series` merges into one exponent.
    """
    return binary_powers_spec(2, 1, 1, names, mapping=(None, 0),
                              order=ORDER_ALL_BELOW_LAST)


def binary_count(n: int) -> int:
    """b(n): partitions of n into powers of 2, computed two ways.

    Route one is the plain product over 1/(1 - q^(2^k)); route two is the
    multiplicity-capped product (1+x)(1+x^2)^2 (1+x^4)^3 ...; the two must
    agree (2^(m-1) used at most m times).
    """
    if n < 0:
        raise SeriesError("n must be >= 0")
    one_way = binary_count_series(n)
    if one_way != product_series(multiplicity_capped_spec(("q",)), Caps.of([n])):
        raise AssertionError("binary partition routes disagree")
    return int(one_way.coefficient((n,)))


def binary_count_series(cap: int) -> Series:
    return product_series(binary_powers_spec(1, -1, -1, ("q",)), Caps.of([cap]))


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


def beta2_grid(caps: Caps) -> PartitionGrid:
    """The beta grid, cross-checked over all four computation routes.

    Product route, distinct-product route, determinant route (column
    polynomials A_k), and the enumeration oracle must agree cell by cell.
    """
    series = product_series(beta2_spec(), caps)
    distinct = product_series(beta2_distinct_spec(), caps)
    if series != distinct:
        raise AssertionError("beta2 product routes disagree")
    cap_q, cap_t = caps.limits
    for k, ak in enumerate(determinants.binary_A_columns(cap_t, cap_q), 1):
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


def min_index_product(caps: Caps, exponent, sign: int) -> Series:
    """prod (1 + sign*y^(2^m) z^(2^n))^exponent(min(m, n) + 1) over the binary grid.

    Exponent e and sign +1 give B_2(y,z), the product of 1/(1 - y^(2^m) z^(2^n));
    exponent e(e+1)/2 with sign +1 equals exponent -e with sign -1.
    """
    if len(caps.limits) != 2:
        raise SeriesError(f"caps arity {len(caps.limits)} does not fit 2 variables")
    cap_y, cap_z = caps.limits
    return binomial_product(
        (((a, b), 1, exponent(min(m, n) + 1), sign)
         for m, a in enumerate(powers_upto(cap_y))
         for n, b in enumerate(powers_upto(cap_z))), ("y", "z"), caps)
