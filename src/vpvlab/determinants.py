"""Determinant coefficient formulas for counting partitions into k parts.

The generating functions handled here all have the shape
``F(t) = exp(sum over m of p_m t^m / m)`` for a sequence of power-sum series
p_m, so the coefficient of t^k is both the k-by-k lower-Hessenberg
determinant over the p_m divided by k! and the solution of the recurrence
``k a_k = sum of p_j a_(k-j)``.  Both routes are implemented; their equality
is itself a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import Caps, EXACT, Series, SeriesError


@dataclass(frozen=True)
class QBinomialSpec:
    """Inputs for the k-part coefficient of the n-variable binomial product."""

    dimension: int
    names: tuple
    a: Fraction = Fraction(0)
    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise SeriesError("order k must be >= 1")
        if len(self.names) != self.dimension:
            raise SeriesError("variable list does not match dimension")


def power_sum(spec: QBinomialSpec, m: int, caps: Caps) -> Series:
    """p_m = (1 - a^m) / prod_i (1 - x_i^m), truncated."""
    names = spec.names
    one = Series.one(names, caps)
    num = one.scale(1 - Fraction(spec.a) ** m)
    for i, _ in enumerate(names):
        mono = tuple(m if j == i else 0 for j in range(len(names)))
        num = num * Series(names, caps, EXACT, {(0,) * len(names): 1, mono: -1}).inverse()
    return num


def coeffs_from_power_sums(power_sums, count: int):
    """a_0..a_count of exp(sum p_m t^m / m) via k a_k = sum p_j a_{k-j}."""
    if not power_sums:
        raise SeriesError("need at least one power sum")
    template = power_sums[0]
    out = [Series.one(template.names, template.caps, template.mode)]
    for k in range(1, count + 1):
        acc = Series.zero(template.names, template.caps, template.mode)
        for j in range(1, k + 1):
            acc = acc + power_sums[j - 1] * out[k - j]
        out.append(acc.scale(Fraction(1, k)))
    return out


def hessenberg_matrix(power_sums, k: int):
    """The k-by-k matrix with p_(i-j+1) below the diagonal and -i above."""
    template = power_sums[0]
    zero = Series.zero(template.names, template.caps, template.mode)
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            if i >= j:
                row.append(power_sums[i - j])
            elif j == i + 1:
                row.append(Series.constant(-i, template.names, template.caps,
                                           template.mode))
            else:
                row.append(zero)
        rows.append(row)
    return rows


def determinant(matrix) -> Series:
    """Exact determinant by cofactor expansion (intended for k <= 6)."""
    k = len(matrix)
    if k == 0:
        raise SeriesError("empty matrix")
    if k == 1:
        return matrix[0][0]
    template = matrix[0][0]
    out = Series.zero(template.names, template.caps, template.mode)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = entry * determinant(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _kth_coefficient(power_sums, k: int, via_determinant: bool) -> Series:
    """a_k of exp(sum p_m t^m / m): the Hessenberg determinant / k!, or the recurrence."""
    if via_determinant:
        det = determinant(hessenberg_matrix(power_sums, k))
        return det.scale(Fraction(1, math.factorial(k)))
    return coeffs_from_power_sums(power_sums, k)[k]


def qbinom_coeff(spec: QBinomialSpec, caps: Caps, via_determinant: bool = False) -> Series:
    """A_k = det/k! for the n-variable binomial product at parameter a."""
    sums = [power_sum(spec, m, caps) for m in range(1, spec.order + 1)]
    return _kth_coefficient(sums, spec.order, via_determinant)


def exact_parts_series(k: int, dimension: int, caps: Caps, names=None) -> Series:
    """Generating series for partitions into (at most) k parts.

    k in {1, 2, 3} uses the closed power-sum forms c1, (c1^2+c2)/2!,
    (c1^3+3c1c2+2c3)/3!; larger k falls back to the general recurrence.
    Equals `qbinom_coeff` at a=0 and the exactly-k counting oracle.
    """
    names = tuple(names) if names is not None else tuple(f"z{i+1}" for i in range(dimension))
    spec = QBinomialSpec(dimension=dimension, names=names, a=Fraction(0), order=k)
    if k > 3:
        return qbinom_coeff(spec, caps)
    c = [power_sum(spec, m, caps) for m in range(1, 4)]
    if k == 1:
        return c[0]
    if k == 2:
        return (c[0] * c[0] + c[1]).scale(Fraction(1, 2))
    return (c[0] * c[0] * c[0] + (c[0] * c[1]).scale(3) + c[2].scale(2)).scale(Fraction(1, 6))


def diagonal_closed_forms(n: int):
    """Closed forms for the two-part and three-part diagonal sequences."""
    if n < 0:
        raise SeriesError("n must be >= 0")
    spade = -((n + 1) ** 2 // -2)  # ceil((n+1)^2 / 2)
    base = (n + 2) ** 2 * (n + 1) ** 2 + 12 * (n // 2 + 1) ** 2
    club = Fraction(base + (8 if n % 3 == 0 else 0), 24)
    return spade, int(club) if club.denominator == 1 else club


def spade_diagonal_series(cap: int) -> Series:
    """(1+q^2)/((1+q)(1-q)^3): generating function of the two-part diagonal."""
    caps = Caps.of([cap])
    names = ("q",)
    one = Series.one(names, caps)
    q = Series.variable("q", names, caps)
    return (one + q * q) * (one + q).inverse() * (one - q).inverse().pow(3)


def club_diagonal_series(cap: int) -> Series:
    """(q^6+3q^4+4q^3+3q^2+1)/((1-q^3)(1-q^2)^2(1-q)^2): three-part diagonal."""
    caps = Caps.of([cap])
    names = ("q",)
    one = Series.one(names, caps)
    q = Series.variable("q", names, caps)
    q2, q3 = q * q, q * q * q
    numerator = one + q2.scale(3) + q3.scale(4) + (q2 * q2).scale(3) + q3 * q3
    return numerator * (one - q3).inverse() * (one - q2).inverse().pow(2) \
        * (one - q).inverse().pow(2)


def spade_diagonal_partial_sum(limit: int) -> float:
    """Float partial sum of 1/floor((n^2+1)/2) for n = 1..limit."""
    return sum(1.0 / ((n * n + 1) // 2) for n in range(1, limit + 1))


def binary_power_sum(m: int, cap_q: int) -> Series:
    """p_m = sum over 2^j | m of 2^j q^(m / 2^j), truncated in q."""
    caps = Caps.of([cap_q])
    terms = {}
    j = 1
    while j <= m:
        if m % j == 0:
            e = m // j
            if e <= cap_q:
                terms[(e,)] = terms.get((e,), 0) + j
        j *= 2
    return Series(("q",), caps, EXACT, terms)


def binary_Ak(k: int, cap_q: int | None = None, via_determinant: bool = False) -> Series:
    """A_k for the binary product: the t^k coefficient of prod 1/(1 - q t^(2^j)).

    Returned as a series (polynomial) in q; q-degree is at most k.
    """
    if k < 1:
        raise SeriesError("k must be >= 1")
    cap_q = cap_q if cap_q is not None else k
    sums = [binary_power_sum(m, cap_q) for m in range(1, k + 1)]
    return _kth_coefficient(sums, k, via_determinant)


def binary_A_columns(cap_t: int, cap_q: int) -> list:
    """[A_1, ..., A_cap_t] from one recurrence over p_1..p_cap_t.

    a_k rests on p_1..p_k and a_0..a_(k-1) alone, so each entry is
    `binary_Ak(k, cap_q)`, with no recurrence run once per k.
    """
    sums = [binary_power_sum(m, cap_q) for m in range(1, cap_t + 1)]
    return coeffs_from_power_sums(sums, cap_t)[1:] if sums else []


def hyperpyramid_power_sum(m: int, names, caps: Caps, repeat: int = 1) -> Series:
    """p_m = prod_i ((1 - x_i^m)/(1 - x_i))^repeat for the pyramid determinants."""
    one = Series.one(names, caps)
    out = one
    for i, _ in enumerate(names):
        mono_m = tuple(m if j == i else 0 for j in range(len(names)))
        mono_1 = tuple(1 if j == i else 0 for j in range(len(names)))
        num = Series(names, caps, EXACT, {(0,) * len(names): 1, mono_m: -1})
        den = Series(names, caps, EXACT, {(0,) * len(names): 1, mono_1: -1})
        out = out * (num * den.inverse()).pow(repeat)
    return out
