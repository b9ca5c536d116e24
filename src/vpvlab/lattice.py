"""Lattice-region enumeration and brute-force vector-partition counting.

Every generating-function claim in the catalog is adjudicated against the
counting oracles in this module: region enumeration is exhaustive over the
truncation window, and the partition counters are direct dynamic programs
over multisets of parts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, inf, isinf, lcm, prod

from .series import (APPROX, EXACT, Caps, NoLogForm, Series, SeriesError, _bits_of_lcm,
                     _charge, _count, _loop_cost, binomial_log, binomial_product,
                     check_power, decimal_str,
                     read_choice, read_int, read_keys, read_list, read_names,
                     read_rational, unit_binomial_pow)

# ordering constraint names
ORDER_NONE = "none"
ORDER_ALL_BELOW_LAST = "all_below_last"            # a_i <= a_n for i < n
ORDER_ALL_BELOW_LAST_STRICT = "all_below_last_strict"  # a_i < a_n
ORDER_STRICT_CHAIN = "strict_chain"                # a_1 < a_2 < ... < a_n

_ORDERS = (ORDER_NONE, ORDER_ALL_BELOW_LAST, ORDER_ALL_BELOW_LAST_STRICT,
           ORDER_STRICT_CHAIN)


class RegionError(SeriesError):
    """A malformed or unbounded region, weight or product spec (exit 2)."""


def _region_checks(post_init):
    """A constructor's field checks, with every bad field raising RegionError."""
    def checked(self):
        try:
            post_init(self)
        except SeriesError as err:
            raise err if isinstance(err, RegionError) else RegionError(str(err)) from None
    return checked


def euler_phi(n: int) -> int:
    """Euler totient by trial division (desk scale: n <= 1e4)."""
    out, k, p = n, n, 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            out -= out // p
        p += 1
    if k > 1:
        out -= out // k
    return out


def moebius(n: int) -> int:
    if n == 1:
        return 1
    out, k, p = 1, n, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    if k > 1:
        out = -out
    return out


@dataclass(frozen=True)
class LatticeRegion:
    """Declarative description of which integer vectors index product factors."""

    arity: int
    lower: tuple = None  # per-component minimum, >= 0
    order: str = ORDER_NONE
    coprime: bool = False
    base_powers: int | None = None  # every component a power of this base
    upper: tuple | None = None  # per-component maximum, None for no bound
    unit_counts: tuple | None = None  # allowed numbers of components equal to 1

    @_region_checks
    def __post_init__(self):
        n = read_int(self.arity, "region.arity", 1)
        put = functools.partial(object.__setattr__, self)
        put("lower", read_list((1,) * n if self.lower is None else self.lower,
                               "region.lower", _count, n))
        if self.upper is not None:
            put("upper", read_list(self.upper, "region.upper", lambda u, field:
                                   u if u is None else _count(u, field), n))
        read_choice(self.order, _ORDERS, "region.order")
        read_choice(self.coprime, (True, False), "region.coprime")
        if self.base_powers is not None:
            read_int(self.base_powers, "region.base_powers", 2)
        if self.unit_counts is not None:
            put("unit_counts", read_list(self.unit_counts, "region.unit_counts",
                                         lambda c, field: read_int(c, field, 0, n)))
            if len(set(self.unit_counts)) != len(self.unit_counts):
                raise SeriesError(f"region.unit_counts {list(self.unit_counts)} repeats a count")

    def contains(self, vec) -> bool:
        if len(vec) != self.arity:
            return False
        if all(v == 0 for v in vec):
            return False  # the origin never indexes a factor
        if any(v < lo for v, lo in zip(vec, self.lower)):
            return False
        if self.upper is not None and any(
                hi is not None and v > hi for v, hi in zip(vec, self.upper)):
            return False
        if self.order == ORDER_ALL_BELOW_LAST:
            if any(v > vec[-1] for v in vec[:-1]):
                return False
        elif self.order == ORDER_ALL_BELOW_LAST_STRICT:
            if any(v >= vec[-1] for v in vec[:-1]):
                return False
        elif self.order == ORDER_STRICT_CHAIN:
            if any(a >= b for a, b in zip(vec, vec[1:])):
                return False
        if self.base_powers is not None:
            for v in vec:
                if v < 1 or not _is_base_power(v, self.base_powers):
                    return False
        if self.coprime and gcd(*vec, 0) != 1:
            return False
        if self.unit_counts is not None and vec.count(1) not in self.unit_counts:
            return False
        return True

    def to_json(self) -> dict:
        return {"arity": self.arity, "lower": list(self.lower), "order": self.order,
                "coprime": self.coprime, "base_powers": self.base_powers,
                "upper": None if self.upper is None else list(self.upper),
                "unit_counts": None if self.unit_counts is None
                else list(self.unit_counts)}

    @classmethod
    def from_json(cls, doc: dict) -> "LatticeRegion":
        read_keys(doc, ("arity", "lower", "upper", "order", "coprime", "base_powers",
                        "unit_counts"), "region")
        return cls(arity=doc["arity"], lower=doc.get("lower"),
                   order=doc.get("order", ORDER_NONE), coprime=doc.get("coprime", False),
                   base_powers=doc.get("base_powers"), upper=doc.get("upper"),
                   unit_counts=doc.get("unit_counts"))


def _is_base_power(v: int, base: int) -> bool:
    while v % base == 0:
        v //= base
    return v == 1


def _component_values(lo: int, hi: int, base: int | None):
    if base is None:
        return range(lo, hi + 1)
    vals, p = [], 1
    while p <= hi:
        if p >= lo:
            vals.append(p)
        p *= base
    return vals


def _members(region: LatticeRegion, bounds):
    """The region members within the bounds (each component's largest value),
    one at a time, unsorted."""
    if len(bounds) != region.arity:
        raise RegionError("bounds arity mismatch")
    # each axis stops at the smaller of its bound and the region's upper bound
    upper = region.upper or (None,) * region.arity
    axes = [_component_values(lo, int(hi) if top is None else min(int(hi), top),
                              region.base_powers)
            for lo, hi, top in zip(region.lower, bounds, upper)]
    return filter(region.contains, _ordered_points(region.order, axes))


def _ordered_points(order: str, axes):
    """The points of the box `axes` that meet an ordering constraint."""
    if order == ORDER_NONE:
        return itertools.product(*axes)
    if order == ORDER_STRICT_CHAIN:
        points = [()]
        for axis in axes:
            points = [p + (v,) for p in points for v in axis if not p or v > p[-1]]
        return points
    return _below_last(axes, order == ORDER_ALL_BELOW_LAST_STRICT)


def _below_last(axes, strict: bool):
    """The points whose leading components are at most (or below) the last."""
    for last in axes[-1]:
        top = last - 1 if strict else last
        clipped = [[v for v in axis if v <= top] for axis in axes[:-1]]
        for p in itertools.product(*clipped):
            yield p + (last,)


# -- counting oracles -----------------------------------------------------------

UNRESTRICTED = "unrestricted"
DISTINCT = "distinct"
DISTINCT_PARITY_DIFF = "distinct_parity_diff"
EXACTLY_K = "exactly_k"      # at most k parts; see count_grid


def _box_dp(limits, parts, sign=1, reverse=False) -> list:
    """The counting recurrence over a box, flattened in lex order.

    Each part is folded in by one sweep over the cells it fits under:
    ascending for multisets, descending (so each part is used at most once)
    for subsets, with `sign` -1 weighting subsets by (-1)^size.
    """
    strides = [1] * len(limits)
    for i in range(len(limits) - 2, -1, -1):
        strides[i] = strides[i + 1] * (limits[i + 1] + 1)
    dp = [0] * prod(t + 1 for t in limits)
    dp[0] = 1
    for part in parts:
        shift = sum(p * s for p, s in zip(part, strides))
        cells = [0]
        for lo, hi, s in zip(part, limits, strides):
            cells = [c + j * s for c in cells for j in range(lo, hi + 1)]
        if reverse:
            cells.reverse()
        for i in cells:
            dp[i] += sign * dp[i - shift]
    return dp


def count_grid(box, parts, mode=UNRESTRICTED, k: int | None = None) -> dict:
    """Count vector partitions into the given nonzero parts at every cell of a box.

    One dynamic program over the box (a limits tuple or a `Caps`) returns
    ``{exponent tuple: int}`` for every cell, in lex order. Modes:
    `unrestricted` (multisets), `distinct` (subsets), `distinct_parity_diff`
    (even-size minus odd-size subsets), and `exactly_k` with the `k`
    argument, which counts multisets of size k drawn from parts plus the
    zero vector, i.e. at most k nonzero parts (the convention the partition
    grids use, where the zero-vector target has one partition for every k).
    Pure integer arithmetic, so the oracle is independent of the series kernel.
    """
    limits = tuple(int(t) for t in getattr(box, "limits", box))
    parts = [tuple(p) for p in parts
             if all(c >= 0 for c in p) and any(c > 0 for c in p)]
    if mode == EXACTLY_K:
        if k is None:
            raise ValueError("exactly-k mode needs k")
        # at most k parts: multisets counted on a trailing part-count axis
        flat = _box_dp(limits + (k,), [p + (1,) for p in parts])
        counts = [sum(flat[i:i + k + 1]) for i in range(0, len(flat), k + 1)]
    elif mode == UNRESTRICTED:
        counts = _box_dp(limits, parts)
    elif mode in (DISTINCT, DISTINCT_PARITY_DIFF):
        counts = _box_dp(limits, parts, 1 if mode == DISTINCT else -1, reverse=True)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return dict(zip(itertools.product(*(range(t + 1) for t in limits)), counts))


def count_partitions(target, parts, mode=UNRESTRICTED, k: int | None = None) -> int:
    """Count vector partitions of `target`: the target cell of `count_grid`."""
    target = tuple(int(t) for t in target)
    return count_grid(target, parts, mode, k)[target]


def count_exactly_k(target, parts, k: int) -> int:
    """Multisets of size <= k of nonzero parts summing to target."""
    return count_partitions(target, parts, EXACTLY_K, k)


# -- weights and product specs ---------------------------------------------------


@dataclass(frozen=True)
class WeightExpr:
    """Per-factor exponent: the factor is (1 + sign*X) ** (direction * w).

    w = prod of component^power (rational powers force approx mode), times
    phi(component)/component when `phi_over` names a component index.
    """

    sign: int = -1
    direction: int = 1
    powers: tuple = ()
    phi_over: int | None = None

    @_region_checks
    def __post_init__(self):
        object.__setattr__(self, "powers", read_list(self.powers, "weight.powers",
                                                     read_rational))
        read_choice(self.sign, (1, -1), "weight.sign")
        read_choice(self.direction, (1, -1), "weight.direction")
        if self.phi_over is not None:
            read_int(self.phi_over, "weight.phi_over", 0)

    def needs_approx(self) -> bool:
        return any(p.denominator != 1 for p in self.powers)

    def weight(self, vec, mode: str):
        if mode == EXACT and self.needs_approx():
            raise SeriesError("irrational weight requires approx mode")
        if mode == EXACT:
            # one Fraction from integer powers: numerator and denominator apart
            num = den = 1
            for v, p in zip(vec, self.powers):
                if p > 0:
                    num *= v ** p.numerator
                elif p < 0:
                    den *= v ** -p.numerator
            if self.phi_over is not None:
                num *= euler_phi(vec[self.phi_over])
                den *= vec[self.phi_over]
            return Fraction(num, den)
        w = 1.0
        for i, (v, p) in enumerate(zip(vec, self.powers)):
            try:
                w *= float(v) ** float(p)
            except OverflowError:
                w = inf
            if isinf(w):  # the power, or the product so far, is no float
                raise SeriesError(f"weight.powers[{i}]: component value {v} to the power "
                                  f"{p} takes the weight past the float range")
        if self.phi_over is not None:
            v = vec[self.phi_over]
            w = w * euler_phi(v) / v
        return w

    def to_json(self) -> dict:
        return {"sign": self.sign, "direction": self.direction,
                "powers": [str(p) for p in self.powers], "phi_over": self.phi_over}

    @classmethod
    def from_json(cls, doc: dict) -> "WeightExpr":
        read_keys(doc, ("sign", "direction", "powers", "phi_over"), "weight")
        return cls(sign=doc.get("sign", -1), direction=doc.get("direction", 1),
                   powers=doc.get("powers", ()), phi_over=doc.get("phi_over"))


GEOMETRIC = "geometric"
MULTIPLICITY = "multiplicity"
SQUARE = "square"
ODD_ONLY = "odd_only"
DISTINCT_BINOMIAL = "distinct_binomial"
_FAMILIES = (GEOMETRIC, MULTIPLICITY, SQUARE, ODD_ONLY, DISTINCT_BINOMIAL)


@dataclass(frozen=True)
class LocalFactorFamily:
    """Per-lattice-point factor given as a weighted multiplicity sum.

    With `defining_sum` set, each factor is its truncated defining sum in
    place of its closed form (so a product checks one against the other).
    """

    kind: str
    exponent: Fraction = Fraction(1)  # for distinct_binomial: (1 + sign X)^exponent
    sign: int = 1
    defining_sum: bool = False

    @_region_checks
    def __post_init__(self):
        read_choice(self.kind, _FAMILIES, "factor.family")
        object.__setattr__(self, "exponent", read_rational(self.exponent, "factor.exponent"))
        read_choice(self.sign, (1, -1), "factor.sign")
        read_choice(self.defining_sum, (True, False), "factor.defining_sum")
        if self.kind != DISTINCT_BINOMIAL and (self.exponent != 1 or self.sign != 1):
            raise RegionError(f"a {self.kind} family takes no exponent or sign")
        if self.defining_sum and self.kind == DISTINCT_BINOMIAL:
            raise RegionError("a distinct_binomial family has no defining sum")

    def defining_terms(self, max_mult: int, mode: str):
        """Coefficients [c_0..c_max] of the defining sum in X."""
        one = Fraction(1) if mode == EXACT else 1.0
        if self.kind == GEOMETRIC:
            return [one] * (max_mult + 1)
        if self.kind == MULTIPLICITY:
            return [one if n == 0 else n * one for n in range(max_mult + 1)]
        if self.kind == SQUARE:
            return [one if n == 0 else n * n * one for n in range(max_mult + 1)]
        if self.kind == ODD_ONLY:
            return [one if n == 0 else (n * one if n % 2 else 0 * one)
                    for n in range(max_mult + 1)]
        raise RegionError(f"no defining sum for {self.kind!r}")

    def series(self, mono, names, caps: Caps, mode: str) -> Series:
        """The local factor as a series; closed form or truncated defining sum."""
        if self.kind == DISTINCT_BINOMIAL:
            return unit_binomial_pow(mono, self.exponent, names, caps, mode, sign=self.sign)
        if self.defining_sum:
            coeffs = self.defining_terms(caps.multiples(mono), mode)
            terms = {tuple(e * n for e in mono): c
                     for n, c in enumerate(coeffs) if c != 0}
            return Series(names, caps, mode, terms)
        if self.kind == GEOMETRIC:
            return unit_binomial_pow(mono, -1, names, caps, mode, sign=-1)
        one = Series.one(names, caps, mode)
        x = Series.monomial(mono, names, caps, mode)
        if self.kind == MULTIPLICITY:
            inv = (one - x).inverse()
            return one + x * inv * inv
        if self.kind == SQUARE:
            return one + x * (one + x) * (one - x).inverse().pow(3)
        x2 = x * x  # ODD_ONLY
        inv2 = (one - x2).inverse()
        return one + x * (one + x2) * inv2 * inv2

    def to_json(self) -> dict:
        return {"family": self.kind, "exponent": str(self.exponent), "sign": self.sign,
                "defining_sum": self.defining_sum}

    @classmethod
    def from_json(cls, doc: dict) -> "LocalFactorFamily":
        read_keys(doc, ("family", "exponent", "sign", "defining_sum"), "factor")
        return cls(kind=doc["family"], exponent=doc.get("exponent", 1),
                   sign=doc.get("sign", 1), defining_sum=doc.get("defining_sum", False))


@dataclass(frozen=True)
class ProductSpec:
    """A lattice product: region, per-point factor, and variable mapping.

    `mapping` assigns each region component either a variable index (int) or a
    scalar value (Fraction) folded into the factor's coefficient; components
    mapped to the same variable merge additively (y^(a+b) style).
    """

    region: LatticeRegion
    factor: object  # WeightExpr | LocalFactorFamily
    mapping: tuple = None  # per component: int index | Fraction scalar
    names: tuple = ()

    @_region_checks
    def __post_init__(self):
        names = read_names(self.names, "vars")
        object.__setattr__(self, "names", names)

        def target(m, field):  # a variable index, a rational scalar, or None (dropped)
            if m is None:
                return None
            if isinstance(m, (str, Fraction)):
                return read_rational(m, field)
            return read_int(m, field, 0, len(names) - 1)
        n = self.region.arity
        object.__setattr__(self, "mapping", tuple(range(n)) if self.mapping is None
                           else read_list(self.mapping, "mapping", target, n))
        w, lower = self.factor, self.region.lower
        if isinstance(w, WeightExpr):
            read_list(w.powers, "weight.powers", n=n)
            if w.phi_over is not None:
                read_int(w.phi_over, "weight.phi_over", 0, n - 1)
            # a component that may be 0 cannot divide the weight
            if any(lo == 0 and (p < 0 or i == w.phi_over)
                   for i, (lo, p) in enumerate(zip(lower, w.powers))):
                raise RegionError("negative power or phi_over on a component "
                                  "with lower bound 0")

    def image(self, vec, mode: str):
        """(monomial exponent vector, scalar) contributed by a region vector."""
        expo = [0] * len(self.names)
        scalar = 1 if mode == EXACT else 1.0
        for v, m in zip(vec, self.mapping):
            if isinstance(m, int):
                expo[m] += v
            elif m is None:
                continue
            else:
                scalar = scalar * (m if mode == EXACT else float(m)) ** v
        return tuple(expo), scalar

    def component_bounds(self, caps: Caps):
        """Upper bounds per component so the image monomial can fit the caps.

        A component mapped to variable m leaves room for the lower bounds of
        the other components mapped to m.  A component mapped to no variable
        is bounded by the region's `upper`.
        """
        upper = self.region.upper or (None,) * self.region.arity
        lower = self.region.lower
        bounds = []
        for i, (m, top) in enumerate(zip(self.mapping, upper)):
            if isinstance(m, int):
                shared = sum(lo for lo, n in zip(lower, self.mapping)
                             if isinstance(n, int) and n == m)
                bounds.append(caps.limits[m] - shared + lower[i])
            else:
                bounds.append(top)
        # unbounded (scalar/dropped) components are capped by an ordering
        # constraint against a bounded one, else the region is infinite
        if all(b is None for b in bounds):
            raise RegionError("region with no capped progress direction")
        order = self.region.order
        for i, b in enumerate(bounds):
            if b is not None:
                continue
            if order in (ORDER_ALL_BELOW_LAST, ORDER_ALL_BELOW_LAST_STRICT) \
                    and i < len(bounds) - 1 and bounds[-1] is not None:
                bounds[i] = bounds[-1]
            elif order == ORDER_STRICT_CHAIN and any(
                    bounds[j] is not None for j in range(i + 1, len(bounds))):
                bounds[i] = next(bounds[j] for j in range(i + 1, len(bounds))
                                 if bounds[j] is not None)
            else:
                raise RegionError("region with no capped progress direction")
        if order == ORDER_STRICT_CHAIN:
            # earlier components sit strictly below later ones
            for i in range(len(bounds) - 2, -1, -1):
                bounds[i] = min(bounds[i], bounds[i + 1] - 1)
        if isinstance(self.factor, WeightExpr):
            # the largest exact weight power k^p is built at the bound
            for i, (p, b) in enumerate(zip(self.factor.powers, bounds)):
                check_power(max(b, 0), p, f"weight.powers[{i}]")
        return tuple(bounds)

    def vectors(self, caps: Caps) -> list:
        """The region vectors whose image the caps admit, lex sorted.

        Each member is tested as it is enumerated, so the members the caps
        reject are never held in a list.
        """
        out = []
        for vec in _members(self.region, self.component_bounds(caps)):
            expo, _ = self.image(vec, APPROX)
            if all(e == 0 for e in expo):
                raise RegionError(f"region vector {vec} feeds no capped variable")
            if caps.admits(expo):
                out.append(vec)
        out.sort()
        return out

    def to_json(self) -> dict:
        factor = self.factor.to_json()
        key = "weight" if isinstance(self.factor, WeightExpr) else "factor"
        return {"region": self.region.to_json(), key: factor,
                "mapping": [m if isinstance(m, int) or m is None else str(m)
                            for m in self.mapping],
                "vars": list(self.names)}

    @classmethod
    def from_json(cls, doc: dict) -> "ProductSpec":
        read_keys(doc, ("region", "weight", "factor", "mapping", "vars"), "product spec")
        # the arity sizes the per-component lists: check it before any is built
        read_int(doc["region"]["arity"], "region.arity", 1,
                 len(read_list(doc["mapping"], "mapping")))
        if "weight" in doc and "factor" in doc:
            raise SeriesError("a product spec takes one of 'weight' and 'factor', not both")
        factor = WeightExpr.from_json(doc["weight"]) if "weight" in doc \
            else LocalFactorFamily.from_json(doc["factor"])
        return cls(region=LatticeRegion.from_json(doc["region"]), factor=factor,
                   mapping=doc["mapping"], names=doc["vars"])


def image_histogram(spec: ProductSpec, caps: Caps) -> tuple:
    """(den, {(image, scalar): [count, weight]}) over `spec.vectors(caps)`,
    exactly: each summed weight is the int numerator of a rational over `den`.

    One dynamic program over the components counts the region instead of
    walking it: the last component comes first under an all-below-last
    ordering.  A state is (partial image, partial scalar, ordering key,
    running gcd, number of components equal to 1) and holds how many
    partial vectors reach it and their summed partial weight, a product of
    per-component factors (1 for a factor family).  Each component's factor
    is read from an int table over its values (see `_weight_table`), its
    values scaled by one denominator d_i, so the weights are ints over
    `den`, the product of the d_i.  A scalar with no denominator is an int,
    so equal factors downstream hash and add as ints.  The key is the last
    component's value (all-below-last) or the previous one (strict chain).
    Outside a coprime region the gcd is clipped to 0 or 1; either way the
    origin ends at gcd 0 and drops out.  Values ascend, so a component's
    loop stops once the partial image leaves the caps.
    """
    region, mapping = spec.region, spec.mapping
    order, n = region.order, region.arity
    bounds, upper = spec.component_bounds(caps), region.upper or (None,) * n
    limits = caps.limits
    w = spec.factor if isinstance(spec.factor, WeightExpr) else None
    # an irrational weight is refused below, once a region vector is found
    irrational = w is not None and w.needs_approx()
    below_last = order in (ORDER_ALL_BELOW_LAST, ORDER_ALL_BELOW_LAST_STRICT)
    chain, strict = order == ORDER_STRICT_CHAIN, order == ORDER_ALL_BELOW_LAST_STRICT
    coprime, units = region.coprime, region.unit_counts is not None
    states = {((0,) * len(spec.names), 1, -1, 0, 0): [1, 1]}
    den = 1
    for step, i in enumerate((n - 1, *range(n - 1)) if below_last else range(n)):
        m, hi = mapping[i], bounds[i] if upper[i] is None else min(bounds[i], upper[i])
        values = _component_values(region.lower[i], hi, region.base_powers)
        keyed, var = chain or (below_last and step == 0), isinstance(m, int)
        table, d = (None, 1) if irrational else _weight_table(w, i, values, caps)
        den *= d
        out = {}
        for (expo, scalar, key, g, ones), (count, weight) in states.items():
            top = limits[m] - expo[m] if var else hi
            if below_last and step:
                top = min(top, key - strict)
            for v in values:
                if v > top:
                    break
                if chain and v <= key:
                    continue
                state = (expo[:m] + (expo[m] + v,) + expo[m + 1:] if var else expo,
                         scalar if var or m is None else scalar * m ** v,
                         v if keyed else key,
                         gcd(g, v) if coprime else 1 if g or v else 0,
                         ones + (v == 1) if units else 0)
                part = weight if table is None else weight * table[v]
                cell = out.get(state)
                if cell is None:
                    out[state] = [count, part]
                else:
                    cell[0] += count
                    cell[1] += part
        states = out
    hist: dict = {}
    for (expo, scalar, _, g, ones), (count, weight) in states.items():
        if g != 1 or units and ones not in region.unit_counts:
            continue
        if not any(expo):
            spec.vectors(caps)  # raises, naming the walk's first such vector
        cell = hist.setdefault((expo, scalar), [0, 0])
        cell[0] += count
        cell[1] += weight
    if hist and irrational:
        raise SeriesError("irrational weight requires approx mode")
    return den, hist


def _weight_table(w: WeightExpr | None, i: int, values, caps: Caps):
    """(table, d): table maps each of `values` to the factor component i puts
    into an exact weight times d, an int, with d the lcm of those factors'
    denominators; (None, 1) for a factor of 1.

    The denominators divide v^(max(-p, 0) + phi), so d divides lcm(1..v)
    to that power, v the largest value: the table's ints are charged to the
    work budget at that width, three passes over them (the totients, the
    lcm, the numerators), before any is built.
    """
    if w is None or w.powers[i] == 0 and w.phi_over != i:
        return None, 1
    p, phi = w.powers[i].numerator, w.phi_over == i
    if values:
        top = values[-1]
        bits = (max(-p, 0) + phi) * _bits_of_lcm(top) + max(p, 0) * top.bit_length()
        _charge(3 * _loop_cost(len(values), bits, 1), caps, "an exact weight table")
    factors = {v: Fraction(v ** max(p, 0) * (euler_phi(v) if phi else 1),
                           v ** max(-p, 0) * (v if phi else 1)) for v in values}
    d = lcm(*(f.denominator for f in factors.values()))
    return {v: f.numerator * (d // f.denominator) for v, f in factors.items()}, d


def product_series(spec: ProductSpec, caps: Caps, mode: str = EXACT,
                   log: bool = False) -> Series:
    """Expand the truncated lattice product factor by factor, or build its log.

    Exact products count their region images with `image_histogram`; approx
    products walk `spec.vectors`, one factor per vector in lex order, so
    their float sums keep their order.  Weight-expression factors, and the
    closed forms of the geometric and distinct-binomial families, stream
    into `binomial_product`, which merges equal image monomials (their
    exponents add) before the binomial expansion; exact weights stream as
    the int numerators of `image_histogram` with its one denominator, which
    the builders divide out once.  The other families, and
    every defining sum, are multiplied once per region vector.  Exact
    results do not depend on the order of the factors.

    With `log` (exact mode only), the product's log series is built with no
    `exp`: the streamed factors through `binomial_log`; every other family
    factor, a series in one monomial X, as the one-variable log of the
    factor at X = t (`_factor_log`, cached per family and length) mapped
    onto the powers of X and multiplied by the image's count.  Approx mode
    raises `NoLogForm` before any work.

    A component mapped to a scalar and bounded by nothing is summed over
    all its values in closed form (see `_folded_log`).
    """
    names = spec.names
    if len(caps.limits) != len(names):
        raise SeriesError(f"caps arity {len(caps.limits)} does not fit "
                          f"{len(names)} variables")
    if log and mode != EXACT:
        raise NoLogForm("the log form is exact only")
    folded = _folded_log(spec, caps, mode)
    if folded is not None:
        return folded if log else folded.exp()
    family = spec.factor
    weighted = isinstance(family, WeightExpr)
    streamed = weighted or not family.defining_sum and family.kind in (
        GEOMETRIC, DISTINCT_BINOMIAL)
    if mode == EXACT:
        den, hist = image_histogram(spec, caps)
        images = ((image, count, weight) for image, (count, weight) in hist.items())
    else:
        den, images = 1, ((spec.image(vec, mode), 1,
                           family.weight(vec, mode) if weighted else 1)
                          for vec in spec.vectors(caps))
    if weighted:
        factors = (image + (weight * family.direction, family.sign)
                   for image, _, weight in images)
    elif streamed:
        exponent, sign = (-1, -1) if family.kind == GEOMETRIC \
            else (family.exponent, family.sign)
        factors = ((_unscaled(image), 1, count * exponent, sign)
                   for image, count, _ in images)
    elif log:
        terms: dict = {}
        for image, count, _ in images:
            mono = _unscaled(image)
            for k, c in enumerate(_factor_log(family, caps.multiples(mono)), 1):
                key = tuple(e * k for e in mono)
                terms[key] = terms.get(key, 0) + count * c
        return Series(names, caps, EXACT, terms)
    else:
        out = Series.one(names, caps, mode)
        for image, count, _ in images:
            factor = family.series(_unscaled(image), names, caps, mode)
            for _ in range(count):
                out = out * factor
        return out
    if log:
        return binomial_log(factors, names, caps, den)
    return binomial_product(factors, names, caps, mode, den)


@functools.cache
def _factor_log(family: LocalFactorFamily, k: int) -> tuple:
    """The coefficients of t^1..t^k in the log of a family's factor at X = t."""
    log = family.series((1,), ("t",), Caps.of((k,)), EXACT).log()
    return tuple(log.coefficient((j,)) for j in range(1, k + 1))


def _folded_log(spec: ProductSpec, caps: Caps, mode: str) -> Series | None:
    """The log of a product with one unbounded scalar component, or None.

    Such a component i, mapped to a scalar q with no upper bound in a region
    with no ordering and no unit_counts, runs over every j >= 1; without this
    fold the region is infinite.  (A unit_counts filter would look at j = 1
    only, while the fold sums over every j, so it is refused.)  The other components are walked as usual (component i held
    at 1), each vector v giving an image X_v and a weight w_v.  Summed over
    j, the log of (1 + sign q^j X_v)^(direction w_v) is the sum over h >= 1
    of direction w_v (-(-sign)^h / h) G(q^h) X_v^h, where G(r) sums r^j over
    the j >= 1 coprime to gcd(v) (to 1 in a region that is not coprime):
    `coprime_geometric_value`, the rational continuation for |q| >= 1.
    """
    region, w = spec.region, spec.factor
    upper = list(region.upper or (None,) * region.arity)
    free = [i for i, (m, top) in enumerate(zip(spec.mapping, upper))
            if isinstance(m, Fraction) and top is None]
    if region.order != ORDER_NONE or not free:
        return None
    i, q = free[0], spec.mapping[free[0]]
    if len(free) > 1 or not isinstance(w, WeightExpr) or region.lower[i] != 1 \
            or region.base_powers is not None or region.unit_counts is not None \
            or w.powers[i] != 0 or w.phi_over == i:
        raise RegionError("an unbounded scalar component folds only alone, with "
                          "lower bound 1, no base_powers or unit_counts and a "
                          "weight free of it")
    if mode != EXACT:
        raise RegionError("an unbounded scalar component folds in exact mode only")
    upper[i] = 1
    walk = replace(spec, region=replace(region, upper=tuple(upper)))
    terms: dict = {}
    for vec in walk.vectors(caps):
        rest = vec[:i] + (0,) + vec[i + 1:]
        expo, scalar = spec.image(rest, EXACT)
        g = gcd(*rest) if region.coprime else 1
        coeff = w.weight(vec, EXACT) * w.direction
        h = 1
        while caps.admits(power := tuple(e * h for e in expo)):
            terms[power] = terms.get(power, 0) + coeff * -(-w.sign) ** h / h \
                * coprime_geometric_value(q ** h, g) * scalar ** h
            h += 1
    return Series(spec.names, caps, EXACT, terms)


def _unscaled(image):
    """The monomial of a family factor's image, whose scalar must be 1."""
    expo, scalar = image
    if scalar != 1:
        raise RegionError("scalar mappings require a weight factor")
    return expo


# -- partition grids --------------------------------------------------------------


@dataclass
class PartitionGrid:
    """Tabulated coefficients with row and column sums (arity <= 3)."""

    axis_names: tuple
    ranges: tuple  # per-axis max index
    cells: dict = field(default_factory=dict)

    @classmethod
    def from_series(cls, series: Series, caps: Caps | None = None) -> "PartitionGrid":
        if len(series.names) > 3:
            raise RegionError("grids support arity <= 3 only")
        caps = caps or series.caps
        grid = cls(axis_names=series.names, ranges=tuple(caps.limits))
        for expo in itertools.product(*(range(r + 1) for r in grid.ranges)):
            value = series.terms.get(expo)
            if value:
                grid.cells[expo] = value
        return grid

    def cell(self, *expo):
        return self.cells.get(tuple(expo), 0)

    def row_sums(self):
        """Sums over the first axis, per value of the remaining axes."""
        out: dict = {}
        for expo, value in self.cells.items():
            out[expo[1:]] = out.get(expo[1:], 0) + value
        return out

    def col_sums(self):
        """Sums over the trailing axes, per value of the first axis."""
        out: dict = {}
        for expo, value in self.cells.items():
            out[(expo[0],)] = out.get((expo[0],), 0) + value
        return out

    def _format_cell(self, value) -> str:
        if isinstance(value, Fraction):
            return decimal_str(value.numerator) if value.denominator == 1 else \
                f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"
        if isinstance(value, float):
            return repr(value)
        return decimal_str(value)

    def to_csv(self) -> str:
        """CSV: header row = first axis values, first column = second axis values."""
        if len(self.axis_names) == 1:
            lines = [",".join(str(a) for a in range(self.ranges[0] + 1))]
            lines.append(",".join(self._format_cell(self.cell(a))
                                  for a in range(self.ranges[0] + 1)))
            return "\n".join(lines) + "\n"
        if len(self.axis_names) == 2:
            return self._csv_2d(lambda a, b: self.cell(a, b))
        blocks = []
        for c in range(self.ranges[2] + 1):
            blocks.append(f"# {self.axis_names[2]}={c}\n"
                          + self._csv_2d(lambda a, b, c=c: self.cell(a, b, c)))
        return "".join(blocks)

    def _csv_2d(self, get) -> str:
        header = [""] + [str(a) for a in range(self.ranges[0] + 1)]
        lines = [",".join(header)]
        for b in range(self.ranges[1] + 1):
            row = [str(b)] + [self._format_cell(get(a, b))
                              for a in range(self.ranges[0] + 1)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "axes": list(self.axis_names),
            "ranges": list(self.ranges),
            "cells": [{"e": list(e), "v": self._format_cell(v)}
                      for e, v in sorted(self.cells.items())],
            "row_sums": [{"e": list(e), "v": self._format_cell(v)}
                         for e, v in sorted(self.row_sums().items())],
            "col_sums": [{"e": list(e), "v": self._format_cell(v)}
                         for e, v in sorted(self.col_sums().items())],
        }


def grid(source, caps: Caps | None = None, mode: str = EXACT) -> PartitionGrid:
    """Tabulate a Series or ProductSpec as a PartitionGrid."""
    if isinstance(source, ProductSpec):
        if caps is None:
            raise RegionError("grid from a ProductSpec needs caps")
        source = product_series(source, caps, mode)
    return PartitionGrid.from_series(source, caps)


# -- closed geometric values ----------------------------------------------------


def coprime_geometric_value(q: Fraction, k: int) -> Fraction:
    """Closed value of sum over j >= 1 coprime to k of q^j.

    Evaluates sum_{d | k} mu(d) q^d / (1 - q^d): the convergent geometric sum
    for |q| < 1 and its rational continuation otherwise.
    """
    q = Fraction(q)
    out = Fraction(0)
    for d in range(1, k + 1):
        if k % d == 0 and moebius(d) != 0:
            qd = q ** d
            if qd == 1:
                raise SeriesError("geometric value has a pole at q^d = 1")
            out += moebius(d) * qd / (1 - qd)
    return out
