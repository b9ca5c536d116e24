"""The identity catalog and its verifier.

Each entry pairs a lattice-product left side with a closed-form right side
(or an enumeration oracle) and records the caps and mode it is verified at.
Entries whose printed source display is known to disagree with the product
are kept as `errata-probe` entries: they are runnable and reported, but do
not gate the suite; the corrected forms carry the primary ids.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import binary as binary_mod
from . import closedform as cf
from . import determinants
from .binary import (beta2_distinct_spec, beta2_spec, binary_powers_spec,
                     multiplicity_capped_spec)
from .closedform import build_closed_form, build_log
from .lattice import (LatticeRegion, ProductSpec, WeightExpr, LocalFactorFamily,
                      GEOMETRIC, MULTIPLICITY, SQUARE, ODD_ONLY,
                      ORDER_ALL_BELOW_LAST, ORDER_ALL_BELOW_LAST_STRICT,
                      ORDER_STRICT_CHAIN, count_grid, product_series,
                      DISTINCT, DISTINCT_PARITY_DIFF, EXACTLY_K, UNRESTRICTED)
from .series import (APPROX, COUNT_NS, Caps, EXACT, NoLogForm, Series, SeriesError,
                     _charge, _layout, binomial_product, decimal_str, first_mismatch,
                     max_rel_error, read_choice, read_keys, read_str, work_budget)

DEFAULT_TOLERANCE = 1e-9

VARS = {1: ("z",), 2: ("y", "z"), 3: ("x", "y", "z"),
        4: ("w", "x", "y", "z"), 5: ("v", "w", "x", "y", "z")}


@dataclass(frozen=True)
class OracleSide:
    """A side counted by the oracle: the part system of `spec` in a counting mode."""

    spec: ProductSpec
    mode: str  # UNRESTRICTED | DISTINCT | DISTINCT_PARITY_DIFF | EXACTLY_K
    k: int | None = None


@dataclass
class IdentityEntry:
    id: str
    mode: str
    caps: tuple
    names: tuple
    lhs: object  # ProductSpec | OracleSide | tree dict | callable(caps) -> Series
    rhs: object  # the same kinds as lhs
    tex_anchor: str = ""
    expected: str = "pass"  # "pass" | "errata-probe"
    note: str = ""

    def build_lhs(self, caps: Caps, log: bool = False) -> Series:
        return self._build(self.lhs, caps, log)

    def build_rhs(self, caps: Caps, log: bool = False) -> Series:
        return self._build(self.rhs, caps, log)

    def _build(self, side, caps: Caps, log: bool) -> Series:
        """The side at the caps or, with `log`, its log series (exact mode).

        Only product and tree sides can have a log form; a side without one
        raises `NoLogForm`.
        """
        if isinstance(side, ProductSpec):
            return product_series(side, caps, self.mode, log)
        if isinstance(side, dict):
            if log:
                return build_log(side, self.names, caps)
            return build_closed_form(side, self.names, caps, self.mode)
        if log:
            raise NoLogForm("oracle and closure sides have no log form")
        if isinstance(side, OracleSide):
            return oracle_series(side.spec, caps, side.mode, side.k)
        return side(caps)


@dataclass
class IdentityCheckReport:
    id: str
    caps: tuple
    mode: str
    verdict: str
    expected: str = "pass"
    mismatch: dict | None = None
    max_rel_error: float | None = None
    seconds: float = 0.0
    lhs_terms: int = 0  # terms of the compared series: the logs on the log route
    rhs_terms: int = 0
    note: str = ""
    route: str | None = None  # "log" when the sides were compared as logs

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        doc = {"id": self.id, "caps": list(self.caps), "mode": self.mode,
               "verdict": self.verdict, "expected": self.expected,
               "wall_time_s": round(self.seconds, 6),
               "lhs_terms": self.lhs_terms, "rhs_terms": self.rhs_terms}
        if self.mismatch is not None:
            doc["mismatch"] = self.mismatch
        if self.max_rel_error is not None:
            doc["max_rel_error"] = self.max_rel_error
        if self.note:
            doc["note"] = self.note
        if self.route is not None:
            doc["route"] = self.route
        return doc


def oracle_series(spec: ProductSpec, caps: Caps, mode: str, k: int | None) -> Series:
    """Coefficient-by-coefficient counting series for a product's part system;
    its DP is charged to the work budget here, so `count_grid` stays pure."""
    parts = []
    seen = set()
    for vec in spec.vectors(caps):
        expo, scalar = spec.image(vec, EXACT)
        if scalar != 1:
            raise SeriesError("oracle route needs unscaled parts")
        if expo in seen:
            raise SeriesError("oracle route needs distinct part monomials")
        seen.add(expo)
        parts.append(expo)
    cells = math.prod(c + 1 for c in caps.limits) * (k + 1 if mode == EXACTLY_K else 1)
    _charge(COUNT_NS * cells * len(parts), caps, "the counting oracle")
    # one DP over the caps box, in lex order: the admitted keys row by row
    grid = count_grid(caps, parts, mode, k)
    keys = itertools.chain.from_iterable(_layout(caps)[3])
    return Series._of(tuple(spec.names), caps, EXACT, 1,
                      {key: v for key, v in zip(keys, grid.values()) if v})


@work_budget()
def verify_identity(entry: IdentityEntry, caps=None, tolerance: float | None = None) -> IdentityCheckReport:
    """Compare both sides coefficient by coefficient, within one work budget.

    An exact entry with a product left side and a tree or product right
    side, compared with no tolerance, compares their logs (the "log" route):
    both sides have constant term 1, and on the caps window, a down-set,
    truncated `exp` and `log` are inverse bijections, so the sides are equal
    exactly when their logs are.  If lhs = exp(B + D) and rhs = exp(B), then
    lhs - rhs = exp(B)(exp(D) - 1), whose lex-first term is D's, as lex
    order is a monomial order; so the lex-first mismatch of the logs is that
    of the sides, and each side's coefficient there is read from its log
    (see `_coefficient_of_exp`).  Every other entry, and one with a side
    that has no log form, expands both sides.
    """
    limits = tuple(caps) if caps is not None else tuple(entry.caps)
    cap_obj = Caps.of(limits)
    tol = tolerance if tolerance is not None else \
        (DEFAULT_TOLERANCE if entry.mode == APPROX else 0.0)
    start = time.perf_counter()
    route = None
    if entry.mode == EXACT and tol == 0.0 and isinstance(entry.lhs, ProductSpec) \
            and isinstance(entry.rhs, (dict, ProductSpec)):
        try:
            lhs = entry.build_lhs(cap_obj, log=True)
            rhs = entry.build_rhs(cap_obj, log=True)
            route = "log"
        except NoLogForm:
            pass
    if route is None:
        lhs = entry.build_lhs(cap_obj)
        rhs = entry.build_rhs(cap_obj)
    mismatch = first_mismatch(lhs, rhs, tol)
    if route is not None and mismatch is not None:
        expo = mismatch[0]
        mismatch = (expo, _coefficient_of_exp(lhs, expo), _coefficient_of_exp(rhs, expo))
    seconds = time.perf_counter() - start
    report = IdentityCheckReport(
        id=entry.id, caps=limits, mode=entry.mode,
        verdict="pass" if mismatch is None else "fail",
        expected=entry.expected, seconds=seconds,
        lhs_terms=len(lhs.by_slot), rhs_terms=len(rhs.by_slot), note=entry.note,
        route=route)
    if entry.mode == APPROX:
        report.max_rel_error = max_rel_error(lhs, rhs)
    if mismatch is not None:
        expo, a, b = mismatch
        report.mismatch = {"e": list(expo), "lhs": _coeff_str(a), "rhs": _coeff_str(b)}
    return report


def _coefficient_of_exp(log: Series, expo) -> Fraction:
    """The coefficient at `expo` of exp(log): that of the exp of the log cut
    to the box below `expo`, a down-set, so the cut commutes with `exp`."""
    box = Caps.of(expo)
    cut = Series(log.names, box, EXACT, {e: v for e, v in log.nums.items() if box.admits(e)})
    return cut.scale(Fraction(1, log.den)).exp().coefficient(expo)


def _coeff_str(c):
    if isinstance(c, Fraction):
        return f"{decimal_str(c.numerator)}/{decimal_str(c.denominator)}"
    return repr(float(c))


# -- construction helpers -----------------------------------------------------


_ub, _li, _pow, _frac_tree = cf.unit_binomial, cf.polylog_expr, cf.pow_expr, cf.div_unit


def _one_minus(*names):
    """(1-a)(1-b)... as a tree."""
    factors = [_ub({n: 1}) for n in names]
    return factors[0] if len(factors) == 1 else cf.mul(*factors)


def _weight_sum_checked(spec: ProductSpec) -> ProductSpec:
    """The hyperquadrant exp family needs weight exponents summing to 1, i.e.
    component powers summing to -1: a spec that breaks this is refused."""
    if not isinstance(spec.factor, WeightExpr) or sum(spec.factor.powers) != -1:
        raise SeriesError("weight exponents must sum to 1 for the "
                          "hyperquadrant exp family")
    return spec


def _quadrant(n, weight_powers, sign=-1, direction=-1, lower=None, phi_over=None,
              mapping=None, names=None):
    region = LatticeRegion(arity=n, lower=lower or (1,) * n, coprime=True)
    w = WeightExpr(sign=sign, direction=direction, powers=weight_powers,
                   phi_over=phi_over)
    return _weight_sum_checked(ProductSpec(region=region, factor=w, names=names or VARS[n],
                                           mapping=mapping))


def _axes_quadrant(n, sign=-1, direction=1):
    """Coprime region with all-but-last components allowed to be 0, weight 1/last."""
    names = VARS[n]
    region = LatticeRegion(arity=n, lower=(0,) * (n - 1) + (1,), coprime=True)
    powers = (0,) * (n - 1) + (-1,)
    w = WeightExpr(sign=sign, direction=direction, powers=powers)
    return ProductSpec(region=region, factor=w, names=names)


def _pyramid_n(n, weight_powers, sign=-1, direction=-1, strict=False, lower=None,
               mapping=None, names=None):
    region = LatticeRegion(
        arity=n, lower=lower or (1,) * n, coprime=True,
        order=ORDER_ALL_BELOW_LAST_STRICT if strict else ORDER_ALL_BELOW_LAST)
    w = WeightExpr(sign=sign, direction=direction, powers=weight_powers)
    return ProductSpec(region=region, factor=w, names=names or VARS[n],
                       mapping=mapping)


def _pyramid_axes(n):
    """Strict pyramid with leading components >= 0 and weight 1/last."""
    return _pyramid_n(n, (0,) * (n - 1) + (-1,), strict=True,
                      lower=(0,) * (n - 1) + (1,))


def _exp(*nodes):
    return cf.exp_expr(nodes[0] if len(nodes) == 1 else cf.add(*nodes))


def _subset_closed_form(leading, driver="z", merged=None):
    """Inclusion-exclusion numerator/denominator over subsets of leading vars."""
    numer, denom = [], []
    for r in range(len(leading) + 1):
        for subset in itertools.combinations(leading, r):
            exps = {driver: 1}
            for v in subset:
                exps[v] = exps.get(v, 0) + 1
            (numer if r % 2 == 1 else denom).append(cf.unit_binomial(exps))
    return _frac_tree(cf.mul(*numer), cf.mul(*denom))


def _merged_closed_form(count, driver="z", base_var="y"):
    """prod_j (1 - y^j z)^(+-binom(count, j)) closed form for merged pyramids."""
    from math import comb
    numer, denom = [], []
    for j in range(count + 1):
        exps = {driver: 1}
        if j:
            exps[base_var] = j
        node = cf.unit_binomial(exps)
        coeff = comb(count, j)
        target = numer if j % 2 == 1 else denom
        for _ in range(coeff):
            target.append(node)
    return _frac_tree(cf.mul(*numer), cf.mul(*denom))


# -- entry groups -----------------------------------------------------------------


def _hyperquadrant_entries():
    entries = []
    y_over = _frac_tree(cf.var("y"), _ub({"y": 1}))
    y2_over = _frac_tree(cf.var("y", 2), _ub({"y": 2}))
    entries.append(IdentityEntry(
        id="13.02", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (0, -1), direction=-1),
        rhs=_pow(_frac_tree(cf.const(1), _ub({"z": 1})), y_over),
        tex_anchor=r"\left(  \frac{1}{1-z}  \right)^{\frac{y}{1-y}}"))
    entries.append(IdentityEntry(
        id="13.03", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (0, -1), direction=1),
        rhs=_pow(_ub({"z": 1}), y_over),
        tex_anchor=r"\left(  1-z \right)^{\frac{y}{1-y}}"))
    entries.append(IdentityEntry(
        id="13.04", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (0, -1), sign=1, direction=1),
        rhs=_frac_tree(_pow(_ub({"z": 2}), y2_over), _pow(_ub({"z": 1}), y_over)),
        tex_anchor=r"\frac{\left(  1-z^2 \right)^{\frac{y^2}{1-y^2}}}{\left(  1-z \right)^{\frac{y}{1-y}}}"))
    half = Fraction(1, 2)
    li_half_prod = cf.mul(_li(half, {"y": 1}), _li(half, {"z": 1}))
    li_half_sq = cf.mul(_li(half, {"y": 2}), _li(half, {"z": 2}))
    entries.append(IdentityEntry(
        id="13.05", mode=APPROX, caps=(6, 6), names=VARS[2],
        lhs=_quadrant(2, (-half, -half), direction=-1),
        rhs=_exp(li_half_prod),
        tex_anchor=r"\exp\left\{ \left( \sum \frac{y^j}{\sqrt{j}}\right) \left( \sum \frac{z^k}{\sqrt{k}}\right) \right\}"))
    entries.append(IdentityEntry(
        id="13.06", mode=APPROX, caps=(6, 6), names=VARS[2],
        lhs=_quadrant(2, (-half, -half), direction=1),
        rhs=_exp(cf.neg(li_half_prod)), tex_anchor=r"\exp\{-\ldots\}"))
    entries.append(IdentityEntry(
        id="13.07", mode=APPROX, caps=(6, 6), names=VARS[2],
        lhs=_quadrant(2, (-half, -half), sign=1, direction=1),
        rhs=_exp(cf.sub(li_half_prod, li_half_sq)),
        tex_anchor=r"\left( 1 + y^j z^k \right)^{\frac{1}{\sqrt{jk}}}"))
    # representative integer-exponent cases of the general weighted family
    entries.append(IdentityEntry(
        id="13.09", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (1, -2), direction=-1),
        rhs=_exp(cf.mul(_li(-1, {"y": 1}), _li(2, {"z": 1}))),
        tex_anchor=r"\left( \frac{1}{1-y^a z^b} \right)^{\frac{1}{a^s b^t}}",
        note="s=-1, t=2 instance"))
    for n, eq in ((3, "13.10"), (4, "13.11"), (5, "13.12")):
        names = VARS[n]
        powers = (0,) * (n - 1) + (-1,)
        rhs = _exp(cf.mul(*[_li(0, {v: 1}) for v in names[:-1]],
                          _li(1, {names[-1]: 1})))
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, powers, direction=-1), rhs=rhs,
            tex_anchor=r"\exp\{ Li_0 \cdots Li_1 \}",
            note="b vector (0,...,0,1) instance"))
    for n, eq in ((2, "13.13"), (3, "13.14"), (4, "13.15"), (5, "13.16")):
        names = VARS[n]
        root = Fraction(1, n)
        rhs = _exp(cf.mul(*[_li(root, {v: 1}) for v in names]))
        entries.append(IdentityEntry(
            id=eq, mode=APPROX, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, (-root,) * n, direction=-1), rhs=rhs,
            tex_anchor=r"\frac{1}{\surd{(ab)}}" if n == 2 else rf"\sqrt[{n}]{{\ldots}}"))
    return entries


def _nd_caps(n):
    return {2: (6, 6), 3: (4, 4, 5), 4: (3, 3, 3, 4), 5: (2, 2, 2, 2, 3)}[n]


def _diagonal_entries():
    entries = []
    diag_caps = {2: 10, 3: 7, 4: 6, 5: 5}
    specs = {}
    for n, eq in ((2, "13.18"), (3, "13.19"), (4, "13.20"), (5, "13.21")):
        root = Fraction(1, n)
        region = LatticeRegion(arity=n, lower=(1,) * n, coprime=True)
        spec = specs[n] = ProductSpec(
            region=region, factor=WeightExpr(sign=-1, direction=-1, powers=(-root,) * n),
            mapping=(0,) * n, names=("z",))
        li = _li(root, {"z": 1})
        rhs = _exp(cf.mul(*[li] * n))
        entries.append(IdentityEntry(
            id=eq, mode=APPROX, caps=(diag_caps[n],), names=("z",),
            lhs=spec, rhs=rhs,
            tex_anchor=r"\left( \frac{1}{1- z^{a+b}} \right)^{\frac{1}{\surd{(ab)}}}"))

    # the product builder adds the weights of equal monomials z^(a+b(+c)),
    # which is the per-order aggregation of the display
    for n, eq in ((2, "13.22"), (3, "13.23")):
        root = Fraction(1, n)
        li = _li(root, {"z": 1})
        entries.append(IdentityEntry(
            id=eq, mode=APPROX, caps=(diag_caps[n],), names=("z",),
            lhs=specs[n], rhs=_exp(cf.mul(*[li] * n)),
            tex_anchor=r"\left( \frac{1}{1- z^k} \right)^{\sum \frac{1}{\surd{(ab)}}}",
            note="aggregated per-order weights"))
    return entries


def _one_minus_xy(caps: Caps) -> Series:
    """n = (1 - x)(1 - y) over the variables x, y, z."""
    return binomial_product([((1, 0, 0), 1, 1, -1), ((0, 1, 0), 1, 1, -1)],
                            VARS[3], caps)


def _axes_entries():
    entries = []
    for n, eq in ((2, "13.24"), (3, "13.25"), (4, "13.26"), (5, "13.27")):
        names = VARS[n]
        exponent = _frac_tree(cf.const(1), _one_minus(*names[:-1]))
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_axes_quadrant(n), rhs=_pow(_ub({"z": 1}), exponent),
            tex_anchor=r"(1-z)^{\frac{1}{1-y}}" if n == 2 else
            r"(1-z)^{\frac{1}{(1-x)(1-y)}}"))

    # 13.28: same identity via the direct binomial-expansion route
    def binom_route(caps: Caps) -> Series:
        names = VARS[3]
        one = Series.one(names, caps)
        n_series = _one_minus_xy(caps)
        inv_n = n_series.inverse()
        z = Series.variable("z", names, caps)
        out, term = one, one
        binom = one
        for k in range(1, caps.limits[-1] + 1):
            binom = binom * (inv_n - (k - 1)) * Fraction(1, k)
            term = term * -z
            out = out + binom * term
        return out

    entries.append(IdentityEntry(
        id="13.28", mode=EXACT, caps=(4, 4, 5), names=VARS[3],
        lhs=_axes_quadrant(3), rhs=binom_route,
        tex_anchor=r"(1-z)^{\frac{1}{(1-x)(1-y)}} = \sum \binom{1/n}{k}(-z)^k",
        note="direct binomial expansion route"))

    def printed_1328(caps: Caps) -> Series:
        # printed display: 1 - z/(n 1!) + (n-1)z^2/(n^2 2!) + (n-1)(2n-1)z^3/(n^3 3!) + ...
        names = VARS[3]
        one = Series.one(names, caps)
        n_series = _one_minus_xy(caps)
        inv_n = n_series.inverse()
        z = Series.variable("z", names, caps)
        out = one - inv_n * z
        numer = one
        zk = z
        fact = 1
        for k in range(2, caps.limits[-1] + 1):
            numer = numer * ((n_series.scale(k - 1)) - 1)
            zk = zk * z
            fact *= k
            out = out + numer * inv_n.pow(k) * zk * Fraction(1, fact)
        return out

    entries.append(IdentityEntry(
        id="13.28-printed", mode=EXACT, caps=(3, 3, 5), names=VARS[3],
        lhs=_axes_quadrant(3), rhs=printed_1328, expected="errata-probe",
        tex_anchor=r"1 - \frac{z}{n 1!}  + \frac{(n-1)z^2}{n^2 2!}",
        note="printed signs of the z^2.. terms disagree with the binomial expansion"))
    return entries


def _log_weighted_entries():
    """13.29-13.36 and the exercise set 13.38-13.45."""
    entries = []
    entries.append(IdentityEntry(
        id="13.29", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (-1, 0), direction=-1),
        rhs=_exp(cf.mul(_li(1, {"y": 1}), _li(0, {"z": 1}))),
        tex_anchor=r"\exp\{ Li_1(y) Li_0(z) \}"))
    weight_tables = {
        3: ("13.30", (-1, -1, 1), 1),
        4: ("13.31", (-1, -1, -1, 2), 2),
        5: ("13.32", (-1, -1, -1, -1, 3), 3),
    }
    for n, (eq, powers, neg_order) in weight_tables.items():
        names = VARS[n]
        rhs = _exp(cf.mul(*[_li(1, {v: 1}) for v in names[:-1]],
                          _li(-neg_order, {names[-1]: 1})))
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, powers, direction=-1), rhs=rhs,
            tex_anchor=r"\exp\{ Li_1 \cdots Li_{-p} \}"))
    # minus forms; the 2D case has a true power form, higher ones do not
    entries.append(IdentityEntry(
        id="13.33", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (-1, 0), direction=1),
        rhs=_pow(_ub({"y": 1}), _frac_tree(cf.var("z"), _ub({"z": 1}))),
        tex_anchor=r"(1-y)^{\frac{z}{1-z}}"))
    printed_rhs_34_36 = {}
    for n, (eq, powers, neg_order) in weight_tables.items():
        names = VARS[n]
        minus_eq = {"13.30": "13.34", "13.31": "13.35", "13.32": "13.36"}[eq]
        corrected = _exp(cf.neg(cf.mul(*[_li(1, {v: 1}) for v in names[:-1]],
                                       _li(-neg_order, {names[-1]: 1}))))
        entries.append(IdentityEntry(
            id=minus_eq, mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, powers, direction=1), rhs=corrected,
            tex_anchor={"13.34": r"((1-x)(1-y))^{\frac{z}{(1-z)^2}}",
                        "13.35": r"((1-w)(1-x)(1-y))^{\frac{z(1+z)}{(1-z)^3}}",
                        "13.36": r"\frac{z(1+4z+z^2)}{(1-z)^4}"}[minus_eq],
            note="corrected reciprocal of the exp-polylog form"))
        # printed power form (sum of logs instead of product of polylogs)
        if n == 3:
            numer = cf.var("z")
        elif n == 4:
            numer = cf.mul(cf.var("z"), _ub({"z": 1}, sign=1))
        else:
            numer = cf.add(cf.var("z"), cf.mul(cf.const(4), cf.mono({"z": 2})),
                           cf.mono({"z": 3}))
        exponent = _frac_tree(numer, _pow(_ub({"z": 1}), cf.const(n - 1)))
        printed = _pow(_one_minus(*names[:-1]), exponent)
        printed_rhs_34_36[minus_eq] = printed
        entries.append(IdentityEntry(
            id=minus_eq + "-printed", mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, powers, direction=1), rhs=printed,
            expected="errata-probe",
            tex_anchor="printed power form",
            note="printed base multiplies logs additively; display disagrees with product"))
    # exercises 13.38-13.41: plus forms of the axes identities (correct as printed)
    for n, eq in ((2, "13.38"), (3, "13.39"), (4, "13.40"), (5, "13.41")):
        names = VARS[n]
        num = _pow(_ub({"z": 2}),
                   _frac_tree(cf.const(1), cf.mul(*[_ub({v: 2}) for v in names[:-1]])))
        den = _pow(_ub({"z": 1}),
                   _frac_tree(cf.const(1), _one_minus(*names[:-1])))
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_axes_quadrant(n, sign=1, direction=1),
            rhs=_frac_tree(num, den),
            tex_anchor=r"\frac{(1-z^2)^{\frac{1}{1-y^2}}}{(1-z)^{\frac{1}{1-y}}}"))
    # 13.42: plus form of 13.33 (correct as printed)
    entries.append(IdentityEntry(
        id="13.42", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_quadrant(2, (-1, 0), sign=1, direction=1),
        rhs=_frac_tree(
            _pow(_ub({"y": 2}), _frac_tree(cf.mono({"z": 2}), _ub({"z": 2}))),
            _pow(_ub({"y": 1}), _frac_tree(cf.var("z"), _ub({"z": 1})))),
        tex_anchor=r"\frac{(1-y^2)^{\frac{z^2}{1-z^2}}}{(1-y)^{\frac{z}{1-z}}}"))
    # 13.43-13.45: plus forms of the corrected 13.34-13.36
    for n, eq in ((3, "13.43"), (4, "13.44"), (5, "13.45")):
        names = VARS[n]
        neg_order = {3: 1, 4: 2, 5: 3}[n]
        powers = weight_tables[n][1]
        plain = cf.mul(*[_li(1, {v: 1}) for v in names[:-1]],
                       _li(-neg_order, {names[-1]: 1}))
        squared = cf.mul(*[_li(1, {v: 2}) for v in names[:-1]],
                         _li(-neg_order, {names[-1]: 2}))
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, powers, sign=1, direction=1),
            rhs=_exp(cf.sub(plain, squared)),
            tex_anchor=r"exercise plus form (corrected)",
            note="corrected: splice of the exp-polylog forms"))
        printed_plus = _frac_tree(
            _sq_power_form(n, names, neg_order), printed_rhs_34_36[
                {3: "13.34", 4: "13.35", 5: "13.36"}[n]])
        entries.append(IdentityEntry(
            id=eq + "-printed", mode=EXACT, caps=_nd_caps(n), names=names,
            lhs=_quadrant(n, powers, sign=1, direction=1),
            rhs=printed_plus, expected="errata-probe",
            tex_anchor="printed exercise form",
            note="inherits the 13.34-13.36 display error"))
    # 13.37: the printed substitution has literal zero factors; numeric probe
    entries.append(IdentityEntry(
        id="13.37", mode=APPROX, caps=(0,), names=("z",),
        lhs=_entry_1337_lhs, rhs=_entry_1337_rhs, expected="errata-probe",
        tex_anchor=r"\left(\frac{1-z}{z}\right)^{\frac{2z}{(1-z)^2}}",
        note="factor at c=a+b is (1-z^0)=0, so the printed product vanishes"))
    return entries


def _sq_power_form(n, names, neg_order):
    if n == 3:
        numer = cf.mono({"z": 2})
    elif n == 4:
        numer = cf.mul(cf.mono({"z": 2}), _ub({"z": 2}, sign=1))
    else:
        numer = cf.add(cf.mono({"z": 2}), cf.mul(cf.const(4), cf.mono({"z": 4})),
                       cf.mono({"z": 6}))
    exponent = _frac_tree(numer, _pow(_ub({"z": 2}), cf.const(n - 1)))
    return _pow(cf.mul(*[_ub({v: 2}) for v in names[:-1]]), exponent)


def _entry_1337_lhs(caps: Caps) -> Series:
    # partial product at z = 0.3 over c >= a+b only (c < a+b needs negative
    # powers of z, and c = a+b contributes the literal factor (1 - z^0) = 0,
    # which is itself the recorded finding)
    z = 0.3
    value = 1.0
    bound = 6
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            for c in range(1, bound + 1):
                if math.gcd(math.gcd(a, b), c) != 1 or c < a + b:
                    continue
                value *= (1.0 - z ** (c - a - b)) ** (c / (a * b))
    return Series.constant(value, ("z",), caps, APPROX)


def _entry_1337_rhs(caps: Caps) -> Series:
    z = 0.3
    value = ((1.0 - z) / z) ** (2.0 * z / (1.0 - z) ** 2)
    return Series.constant(value, ("z",), caps, APPROX)


def _pyramid_entries():
    entries = []
    y_over = _frac_tree(cf.var("y"), _ub({"y": 1}))
    y2_over = _frac_tree(cf.var("y", 2), _ub({"y": 2}))
    entries.append(IdentityEntry(
        id="14.01a", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (0, -1)),
        rhs=_exp(cf.partial_sum([("y", 0)], "z", 1)),
        tex_anchor=r"\exp\left\{ \sum \left( \sum \frac{y^m}{m^a} \right) \frac{z^n}{n^b} \right\}",
        note="a=0, b=1"))
    entries.append(IdentityEntry(
        id="14.01b", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (-1, 0)),
        rhs=_exp(cf.partial_sum([("y", 1)], "z", 0)),
        tex_anchor=r"\exp\{\ldots\}", note="a=1, b=0"))
    entries.append(IdentityEntry(
        id="14.02", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (0, -1)),
        rhs=_pow(_frac_tree(_ub({"y": 1, "z": 1}), _ub({"z": 1})), y_over),
        tex_anchor=r"\left( \frac{1-yz}{1-z} \right)^{\frac{y}{1-y}}"))
    entries.append(IdentityEntry(
        id="14.03", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (0, -1), direction=1),
        rhs=_pow(_frac_tree(_ub({"z": 1}), _ub({"y": 1, "z": 1})), y_over),
        tex_anchor=r"\left( \frac{1-z}{1-yz} \right)^{\frac{y}{1-y}}"))
    entries.append(IdentityEntry(
        id="14.04", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (0, -1), sign=1, direction=1),
        rhs=cf.mul(
            _pow(_frac_tree(_ub({"y": 1, "z": 1}), _ub({"z": 1})), y_over),
            _pow(_frac_tree(_ub({"z": 2}), _ub({"y": 2, "z": 2})), y2_over)),
        tex_anchor=r"\left( 1+y^j z^k \right)^{\frac{1}{k}}"))
    # totient identities
    phi_region = LatticeRegion(arity=1, lower=(1,), coprime=False)
    entries.append(IdentityEntry(
        id="14.05", mode=EXACT, caps=(12,), names=("z",),
        lhs=ProductSpec(region=phi_region,
                        factor=WeightExpr(sign=-1, direction=1, powers=(0,),
                                          phi_over=0),
                        names=("z",)),
        rhs=_exp(cf.neg(_li(0, {"z": 1}))),
        tex_anchor=r"e^{\frac{z}{z-1}}"))
    entries.append(IdentityEntry(
        id="14.06", mode=EXACT, caps=(12,), names=("z",),
        lhs=ProductSpec(region=phi_region,
                        factor=WeightExpr(sign=1, direction=1, powers=(0,),
                                          phi_over=0),
                        names=("z",)),
        rhs=_exp(_frac_tree(cf.var("z"), _ub({"z": 2}))),
        tex_anchor=r"e^{\frac{z}{1-z^2}}"))
    entries.append(IdentityEntry(
        id="14.07", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (-1, 0)),
        rhs=_pow(_frac_tree(cf.const(1), _ub({"y": 1, "z": 1})),
                 _frac_tree(cf.const(1), _ub({"z": 1}))),
        tex_anchor=r"\left( \frac{1}{1-yz} \right)^{\frac{1}{1-z}}"))
    entries.append(IdentityEntry(
        id="14.08", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (-1, 0), direction=1),
        rhs=_pow(_ub({"y": 1, "z": 1}), _frac_tree(cf.const(1), _ub({"z": 1}))),
        tex_anchor=r"\left( 1-yz \right)^{\frac{1}{1-z}}"))
    entries.append(IdentityEntry(
        id="14.09", mode=EXACT, caps=(8, 8), names=VARS[2],
        lhs=_pyramid_n(2, (-1, 0), sign=1, direction=1),
        rhs=_frac_tree(
            _pow(_ub({"y": 2, "z": 2}), _frac_tree(cf.const(1), _ub({"z": 2}))),
            _pow(_ub({"y": 1, "z": 1}), _frac_tree(cf.const(1), _ub({"z": 1})))),
        tex_anchor=r"\frac{\left( 1-y^2z^2 \right)^{\frac{1}{1-z^2}}}{\left( 1-yz \right)^{\frac{1}{1-z}}}"))
    xy_over = _frac_tree(cf.mono({"x": 1, "y": 1}), _one_minus("x", "y"))
    entries.append(IdentityEntry(
        id="14.10", mode=EXACT, caps=(4, 4, 5), names=VARS[3],
        lhs=_pyramid_n(3, (0, 0, -1)),
        rhs=_exp(cf.partial_sum([("x", 0), ("y", 0)], "z", 1)),
        tex_anchor=r"\exp\left\{ \sum \left( \sum \frac{x^l}{l^a} \right) \left( \sum \frac{y^m}{m^b} \right) \frac{z^n}{n^c} \right\}"))
    cross_pos = _frac_tree(cf.mul(_ub({"x": 1, "z": 1}), _ub({"y": 1, "z": 1})),
                           cf.mul(_ub({"z": 1}), _ub({"x": 1, "y": 1, "z": 1})))
    cross_neg = _frac_tree(cf.mul(_ub({"z": 1}), _ub({"x": 1, "y": 1, "z": 1})),
                           cf.mul(_ub({"x": 1, "z": 1}), _ub({"y": 1, "z": 1})))
    entries.append(IdentityEntry(
        id="14.11", mode=EXACT, caps=(4, 4, 5), names=VARS[3],
        lhs=_pyramid_n(3, (0, 0, -1)),
        rhs=_pow(cross_pos, xy_over),
        tex_anchor=r"\left( \frac{(1-xz)(1-yz)}{(1-z)(1-xyz)} \right)^{\frac{xy}{(1-x)(1-y)}}",
        note="corrected: the printed base omits the (1-xz)(1-yz) cross factors"))
    entries.append(IdentityEntry(
        id="14.11-printed", mode=EXACT, caps=(4, 4, 5), names=VARS[3],
        lhs=_pyramid_n(3, (0, 0, -1)),
        rhs=_pow(_frac_tree(_ub({"x": 1, "y": 1, "z": 1}), _ub({"z": 1})), xy_over),
        expected="errata-probe",
        tex_anchor=r"\left( \frac{1-xyz}{1-z} \right)^{\frac{xy}{(1-x)(1-y)}}",
        note="printed display"))
    entries.append(IdentityEntry(
        id="14.12", mode=EXACT, caps=(4, 4, 5), names=VARS[3],
        lhs=_pyramid_n(3, (0, 0, -1), direction=1),
        rhs=_pow(cross_neg, xy_over),
        tex_anchor=r"corrected reciprocal of the 3D pyramid closed form",
        note="corrected: see 14.11"))
    entries.append(IdentityEntry(
        id="14.12-printed", mode=EXACT, caps=(4, 4, 5), names=VARS[3],
        lhs=_pyramid_n(3, (0, 0, -1), direction=1),
        rhs=_pow(_frac_tree(_ub({"z": 1}), _ub({"x": 1, "y": 1, "z": 1})), xy_over),
        expected="errata-probe",
        tex_anchor=r"\left( \frac{1-z}{1-xyz} \right)^{\frac{xy}{(1-x)(1-y)}}",
        note="printed display"))
    entries.extend(_structural_entries())
    entries.extend(_pyramid_axes_entries())
    entries.extend(_radial_special_entries())
    return entries


def _structural_entries():
    """14.15/14.16/14.16a: prefactor exp(Li) times the strict product.

    The prefactor exp(Li_1(z)) = 1/(1 - z) is the (0,...,0,1) factor of the
    strict pyramid, so the left side is the 14.17-14.19 product.
    """

    def make(n, eq):
        names = VARS[n]

        def rhs(caps: Caps) -> Series:
            # exp{ sum_n (prod_i (1 + sum_{m<=n-1} x_i^m)) z^n / n }
            one = Series.one(names, caps)
            out = Series.zero(names, caps)
            partials = [one for _ in range(n - 1)]
            kmax = caps.limits[-1]
            for k in range(1, kmax + 1):
                term = Series.monomial(
                    tuple(0 if i < n - 1 else k for i in range(n)),
                    names, caps).scale(Fraction(1, k))
                for i in range(n - 1):
                    term = term * partials[i]
                out = out + term
                for i in range(n - 1):
                    expo = tuple(k if j == i else 0 for j in range(n))
                    partials[i] = partials[i] + Series.monomial(expo, names, caps)
            return out.exp()

        return IdentityEntry(
            id=eq, mode=EXACT, caps=_nd_caps(n) if n > 2 else (6, 6), names=names,
            lhs=_pyramid_axes(n), rhs=rhs,
            tex_anchor=r"\exp\left\{ \sum_{k=1}^{\infty} \frac{{z}^k}{k^{t}} \right\} \prod \ldots",
            note="structural case with unit exponents")

    return [make(2, "14.15"), make(3, "14.16"), make(4, "14.16a")]


def _pyramid_axes_entries():
    entries = []
    for n, eq in ((2, "14.17"), (3, "14.18"), (4, "14.19"), (5, "14.20")):
        names = VARS[n]
        rhs = _pow(_subset_closed_form(names[:-1]),
                   _frac_tree(cf.const(1), _one_minus(*names[:-1])))
        caps = {2: (8, 8), 3: (4, 4, 5), 4: (3, 3, 3, 4), 5: (2, 2, 2, 2, 3)}[n]
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=caps, names=names, lhs=_pyramid_axes(n), rhs=rhs,
            tex_anchor=r"\left(\frac{1-yz}{1-z}\right)^{\frac{1}{1-y}}" if n == 2
            else r"\left(\frac{\prod odd}{\prod even}\right)^{\frac{1}{\prod(1-x_i)}}"))
    for count, eq in ((2, "14.21"), (3, "14.22"), (4, "14.23")):
        n = count + 1
        lower = (0,) * (n - 1) + (1,)
        region = LatticeRegion(arity=n, lower=lower, coprime=True,
                               order=ORDER_ALL_BELOW_LAST_STRICT)
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1,
                                             powers=(0,) * (n - 1) + (-1,)),
                           mapping=(0,) * (n - 1) + (1,), names=VARS[2])
        rhs = _pow(_merged_closed_form(count),
                   _frac_tree(cf.const(1), _pow(_ub({"y": 1}), cf.const(count))))
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=(10, 8), names=VARS[2], lhs=spec, rhs=rhs,
            tex_anchor=r"\left(\frac{(1-yz)^2}{(1-z)(1-y^2z)}\right)^{\frac{1}{(1-y)^2}}"
            if count == 2 else r"merged hyperpyramid closed form"))
    return entries


def _radial_special_entries():
    entries = []
    quadrant_minus = [(Fraction(1, 2), 1), (Fraction(2, 3), 2), (Fraction(3, 4), 3),
                      (Fraction(4, 5), 4), (Fraction(5, 6), 5)]
    for q, m in quadrant_minus:
        entries.append(IdentityEntry(
            id=f"13.03@y={q}", mode=EXACT, caps=(10,), names=("z",),
            lhs=_quadrant(2, (0, -1), direction=1, mapping=(q, 0), names=("z",)),
            rhs=_pow(_ub({"z": 1}), cf.const(m)),
            tex_anchor=rf"(1-z)^{m}",
            note="finite-polynomial special"))
    quadrant_plus = [(Fraction(2), 2), (Fraction(3, 2), 3), (Fraction(4, 3), 4),
                     (Fraction(5, 4), 5), (Fraction(6, 5), 6)]
    for q, m in quadrant_plus:
        entries.append(IdentityEntry(
            id=f"13.02@y={q}", mode=EXACT, caps=(10,), names=("z",),
            lhs=_quadrant(2, (0, -1), direction=-1, mapping=(q, 0), names=("z",)),
            rhs=_pow(_ub({"z": 1}), cf.const(m)),
            tex_anchor=rf"(1-z)^{m}",
            note="finite-polynomial special (continued geometric values)"))
    for q, _ in quadrant_minus:
        w = q / (1 - q)
        rhs = _pow(_frac_tree(_ub({"z": 1}), _ub({"z": 1}, scalar=q)), cf.const(w))
        entries.append(IdentityEntry(
            id=f"14.03@y={q}", mode=EXACT, caps=(10,), names=("z",),
            lhs=_pyramid_n(2, (0, -1), direction=1, mapping=(q, 0), names=("z",)),
            rhs=rhs, tex_anchor=r"\frac{2-2z}{2-z}" if q == Fraction(1, 2) else
            r"\left( \frac{1-z}{1-yz} \right)^{\frac{y}{1-y}}",
            note="pyramid special"))
    for q, _ in quadrant_plus:
        w = q / (1 - q)
        rhs = _pow(_frac_tree(_ub({"z": 1}, scalar=q), _ub({"z": 1})), cf.const(w))
        entries.append(IdentityEntry(
            id=f"14.02@y={q}", mode=EXACT, caps=(10,), names=("z",),
            lhs=_pyramid_n(2, (0, -1), mapping=(q, 0), names=("z",)),
            rhs=rhs, tex_anchor=r"\left( \frac{1-yz}{1-z} \right)^{\frac{y}{1-y}}",
            note="pyramid special"))
    return entries


def _euler_weighted_entries():
    """16.57b-16.57i, 16.59/16.60, 16.62."""
    entries = []
    inv_1mz = _frac_tree(cf.const(1), _ub({"z": 1}))
    li0 = _li(0, {"z": 1})

    def pair(eq, powers, rhs_pos_terms, rhs_neg_terms, prefactor_exponent,
             anchor_pos, cap=10, printed_form=None, printed_note=""):
        pos = cf.mul(_pow(inv_1mz, cf.const(prefactor_exponent)),
                     _exp(*rhs_pos_terms))
        neg = cf.mul(_pow(_ub({"z": 1}), cf.const(prefactor_exponent)),
                     _exp(*rhs_neg_terms))
        lhs = _pyramid_n(2, powers, mapping=(None, 0), names=("z",))
        out = [IdentityEntry(id=eq, mode=EXACT, caps=(cap,), names=("z",),
                             lhs=lhs, rhs=pos, tex_anchor=anchor_pos),
               IdentityEntry(id=eq + "-inv", mode=EXACT, caps=(cap,), names=("z",),
                             lhs=_pyramid_n(2, powers, direction=1, mapping=(None, 0),
                                            names=("z",)),
                             rhs=neg, tex_anchor="reciprocal direction")]
        if printed_form is not None:
            out.append(IdentityEntry(
                id=eq + "-printed", mode=EXACT, caps=(cap,), names=("z",),
                lhs=lhs, rhs=printed_form,
                expected="errata-probe", tex_anchor="printed display",
                note=printed_note))
        return out

    half = Fraction(1, 2)
    entries += pair("16.57b", (1, -2),
                    [cf.mul(cf.const(half), li0)],
                    [cf.mul(cf.const(-half), li0)],
                    half, r"= \sqrt{\frac{1}{1-z}}")
    entries += pair("16.57c", (2, -3),
                    [cf.mul(cf.const(Fraction(1, 6)), _li(2, {"z": 1})),
                     cf.mul(cf.const(Fraction(1, 3)), li0)],
                    [cf.mul(cf.const(Fraction(-1, 6)), _li(2, {"z": 1})),
                     cf.mul(cf.const(Fraction(-1, 3)), li0)],
                    half, r"\sqrt{\frac{1}{1-z}} \; \exp\{ Li_2/6 + z/(3(1-z)) \}")
    printed_d = cf.mul(_pow(inv_1mz, cf.const(Fraction(1, 3))),
                     _exp(cf.mul(cf.const(Fraction(1, 4)), _li(2, {"z": 1})),
                          cf.mul(cf.const(Fraction(1, 4)), li0)))
    entries += pair("16.57d", (3, -4),
                    [cf.mul(cf.const(Fraction(1, 4)), _li(2, {"z": 1})),
                     cf.mul(cf.const(half), _li(1, {"z": 1})),
                     cf.mul(cf.const(Fraction(1, 4)), li0)],
                    [cf.mul(cf.const(Fraction(-1, 4)), _li(2, {"z": 1})),
                     cf.mul(cf.const(-half), _li(1, {"z": 1})),
                     cf.mul(cf.const(Fraction(-1, 4)), li0)],
                    Fraction(0),
                    r"corrected: exp\{Li_2/4 + log/2 + z/(4(1-z))\}",
                    printed_form=printed_d,
                    printed_note="printed cube-root prefactor; cube Faulhaber misprint")
    # prefactors folded into the exp terms above for d (Li_1 carries the log)
    printed_e = cf.mul(
        _pow(inv_1mz, cf.const(Fraction(1, 3))),
        _exp(_frac_tree(cf.add(cf.mul(cf.const(Fraction(7, 10)), cf.var("z")),
                               cf.mul(cf.const(Fraction(-2, 10)), cf.mono({"z": 2}))),
                        _pow(_ub({"z": 1}), cf.const(2))),
             cf.mul(cf.const(Fraction(-1, 30)), _li(3, {"z": 1}))))
    entries += pair("16.57e", (4, -5),
                    [cf.mul(cf.const(Fraction(-1, 30)), _li(4, {"z": 1})),
                     cf.mul(cf.const(Fraction(1, 3)), _li(2, {"z": 1})),
                     cf.mul(cf.const(half), _li(1, {"z": 1})),
                     cf.mul(cf.const(Fraction(1, 5)), li0)],
                    [cf.mul(cf.const(Fraction(1, 30)), _li(4, {"z": 1})),
                     cf.mul(cf.const(Fraction(-1, 3)), _li(2, {"z": 1})),
                     cf.mul(cf.const(-half), _li(1, {"z": 1})),
                     cf.mul(cf.const(Fraction(-1, 5)), li0)],
                    Fraction(0),
                    "corrected quartic Euler-sum substitution",
                    printed_form=printed_e,
                    printed_note="printed polylog indices off by one")
    entries += _two_var_euler_entries()
    entries += _pyramid3d_euler_entries()
    return entries


def _two_var_euler_entries():
    entries = []
    names = VARS[2]
    y_over = _frac_tree(cf.var("y"), _ub({"y": 1}))

    def coeff(num, den_power):
        return _frac_tree(num, _pow(_ub({"y": 1}), cf.const(den_power)))

    liyz = lambda s: _li(s, {"y": 1, "z": 1})  # noqa: E731
    liz = lambda s: _li(s, {"z": 1})  # noqa: E731

    f_terms = [cf.mul(coeff(cf.var("y"), 2), cf.sub(liz(2), liyz(2)))]
    entries.append(IdentityEntry(
        id="16.57f", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (1, -2)),
        rhs=cf.mul(_pow(_ub({"y": 1, "z": 1}), y_over), _exp(*f_terms)),
        tex_anchor=r"\left(1-yz\right)^{\frac{y}{1-y}} \exp\{ \frac{y}{(1-y)^2} (Li_2(z)- Li_2(yz)) \}"))
    entries.append(IdentityEntry(
        id="16.57f-inv", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (1, -2), direction=1),
        rhs=cf.mul(_pow(_frac_tree(cf.const(1), _ub({"y": 1, "z": 1})), y_over),
                   _exp(cf.neg(cf.add(*f_terms)))),
        tex_anchor="reciprocal"))
    g_terms = [cf.mul(coeff(cf.mul(cf.var("y"), _ub({"y": 1}, sign=1)), 3),
                      cf.sub(liz(3), liyz(3))),
               cf.neg(cf.mul(coeff(cf.mul(cf.const(2), cf.var("y")), 2), liyz(2)))]
    entries.append(IdentityEntry(
        id="16.57g", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (2, -3)),
        rhs=cf.mul(_pow(_ub({"y": 1, "z": 1}), y_over), _exp(*g_terms)),
        tex_anchor="corrected prefactor (1-yz)^{y/(1-y)}",
        note="printed prefactor exponent sign is flipped"))
    entries.append(IdentityEntry(
        id="16.57g-printed", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (2, -3)),
        rhs=cf.mul(_pow(_frac_tree(cf.const(1), _ub({"y": 1, "z": 1})), y_over),
                   _exp(*g_terms)),
        expected="errata-probe",
        tex_anchor=r"\left(\frac{1}{1-yz}\right)^{\frac{y}{1-y}}",
        note="printed display"))
    entries.append(IdentityEntry(
        id="16.57g-inv", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (2, -3), direction=1),
        rhs=cf.mul(_pow(_frac_tree(cf.const(1), _ub({"y": 1, "z": 1})), y_over),
                   _exp(cf.neg(cf.add(*g_terms)))),
        tex_anchor="reciprocal (corrected)"))
    ysq = cf.add(cf.var("y", 2), cf.mul(cf.const(4), cf.var("y")), cf.const(1))
    h_terms = [cf.mul(coeff(cf.mul(cf.var("y"), ysq), 4), cf.sub(liz(4), liyz(4))),
               cf.neg(cf.mul(coeff(cf.mul(cf.const(3), cf.var("y"),
                                          _ub({"y": 1}, sign=1)), 3), liyz(3))),
               cf.neg(cf.mul(coeff(cf.mul(cf.const(3), cf.var("y")), 2), liyz(2)))]
    h_terms_printed = [cf.mul(coeff(cf.mul(cf.var("y"), ysq), 4),
                            cf.sub(liz(4), liyz(4))),
                     cf.mul(coeff(cf.mul(cf.const(3), cf.var("y"),
                                         _ub({"y": 1}, sign=1)), 3), liyz(3)),
                     cf.mul(coeff(cf.mul(cf.const(3), cf.var("y")), 2), liyz(2))]
    entries.append(IdentityEntry(
        id="16.57h", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (3, -4)),
        rhs=cf.mul(_pow(_ub({"y": 1, "z": 1}), y_over), _exp(*h_terms)),
        tex_anchor=r"\frac{y (y^2 +4y +1)}{(1-y)^4}(Li_4(z)-Li_4(yz))",
        note="corrected: Li3(yz) and Li2(yz) terms enter negatively"))
    entries.append(IdentityEntry(
        id="16.57h-printed", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (3, -4)),
        rhs=cf.mul(_pow(_ub({"y": 1, "z": 1}), y_over), _exp(*h_terms_printed)),
        expected="errata-probe",
        tex_anchor=r"+ \frac{3y(1+y)}{(1-y)^3} Li_3(yz) + \frac{3y}{(1-y)^2}  Li_2(yz)",
        note="printed display has the Li3/Li2 signs flipped"))
    entries.append(IdentityEntry(
        id="16.57h-inv", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (3, -4), direction=1),
        rhs=cf.mul(_pow(_frac_tree(cf.const(1), _ub({"y": 1, "z": 1})), y_over),
                   _exp(cf.neg(cf.add(*h_terms)))),
        tex_anchor="reciprocal (corrected)"))
    # independent exp-of-moment forms for f..i
    for eq, p in (("16.57f-exp", 1), ("16.57g-exp", 2), ("16.57h-exp", 3)):
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=(5, 8), names=names,
            lhs=_pyramid_n(2, (p, -(p + 1))),
            rhs=_exp(cf.partial_sum([("y", -p)], "z", p + 1)),
            tex_anchor="exp of weighted partial sums",
            note="independently derived route"))
    entries.append(IdentityEntry(
        id="16.57i", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (4, -5)),
        rhs=_exp(cf.partial_sum([("y", -4)], "z", 5)),
        tex_anchor="exp of quartic partial sums (authoritative route)"))
    # derived closed polylog form (recorded artifact): follows the same
    # pattern as the lower orders with binomial coefficients 4, 6, 4
    y_cubic = cf.add(cf.var("y", 2), cf.mul(cf.const(10), cf.var("y")),
                     cf.const(1))
    i_terms = [
        cf.mul(coeff(cf.mul(cf.var("y"), _ub({"y": 1}, sign=1), y_cubic), 5),
               cf.sub(liz(5), liyz(5))),
        cf.neg(cf.mul(coeff(cf.mul(cf.const(4), cf.var("y"), ysq), 4),
                      liyz(4))),
        cf.neg(cf.mul(coeff(cf.mul(cf.const(6), cf.var("y"),
                                   _ub({"y": 1}, sign=1)), 3), liyz(3))),
        cf.neg(cf.mul(coeff(cf.mul(cf.const(4), cf.var("y")), 2), liyz(2))),
    ]
    entries.append(IdentityEntry(
        id="16.57i-polylog", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (4, -5)),
        rhs=cf.mul(_pow(_ub({"y": 1, "z": 1}), y_over), _exp(*i_terms)),
        tex_anchor=r"(1-yz)^{\frac{y}{1-y}} \exp\{ \frac{y(1+y)(y^2+10y+1)}{(1-y)^5}(Li_5(z)-Li_5(yz)) - \ldots \}",
        note="derived closed polylog form"))
    entries.append(IdentityEntry(
        id="16.57i-inv", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (4, -5), direction=1),
        rhs=_exp(cf.neg(cf.partial_sum([("y", -4)], "z", 5))),
        tex_anchor="reciprocal"))
    # the printed long polylog display of 16.57i
    y = cf.var("y")
    prefactor = _pow(_frac_tree(_pow(_ub({"z": 1}), cf.const(4)),
                                _pow_poly_ub({"y": 1, "z": 1},
                                             [(5, 1), (4, -4), (3, 6), (1, 1)])),
                     _frac_tree(cf.const(1), _pow(_ub({"y": 1}), cf.const(5))))
    quint = _frac_tree(cf.const(1), _pow(_ub({"y": 1}), cf.const(5)))
    i_printed = cf.mul(
        prefactor,
        _exp(cf.mul(quint, cf.mul(y, _ub({"y": 1}, sign=1),
                                  cf.add(cf.var("y", 2),
                                         cf.mul(cf.const(10), y), cf.const(1)),
                                  cf.sub(liyz_node(5), liz_node(5))))),
        _exp(cf.mul(quint, cf.const(4),
                    cf.add(cf.mul(_poly_y([(4, -1), (3, 3), (1, 1)]), liyz_node(4)),
                           cf.mul(cf.const(3), liz_node(4))))),
        _exp(cf.mul(quint, cf.const(6),
                    cf.sub(cf.mul(_poly_y([(4, 1), (3, -1), (1, 1)]), liyz_node(3)),
                           liz_node(3)))),
        _exp(cf.mul(quint, cf.const(4),
                    cf.sub(cf.mul(_poly_y([(1, 1), (3, -3), (4, -1)]), liyz_node(2)),
                           cf.mul(cf.const(3), liz_node(2))))))
    entries.append(IdentityEntry(
        id="16.57i-printed", mode=EXACT, caps=(5, 8), names=names,
        lhs=_pyramid_n(2, (4, -5)), rhs=i_printed, expected="errata-probe",
        tex_anchor=r"(y-3y^3-y^4)", note="printed long polylog display"))
    return entries


def liyz_node(s):
    return cf.polylog_expr(s, {"y": 1, "z": 1})


def liz_node(s):
    return cf.polylog_expr(s, {"z": 1})


def _poly_y(terms):
    nodes = []
    for power, coeff in terms:
        if power == 0:
            nodes.append(cf.const(coeff))
        elif coeff == 1:
            nodes.append(cf.var("y", power))
        else:
            nodes.append(cf.mul(cf.const(coeff), cf.var("y", power)))
    return cf.add(*nodes)


def _pow_poly_ub(exps, terms):
    """(1-yz)^(polynomial in y) for the 16.57i prefactor denominator."""
    base = cf.unit_binomial(exps)
    return _pow(base, _poly_y(terms))


def _pyramid3d_euler_entries():
    entries = []
    inv_1mz = _frac_tree(cf.const(1), _ub({"z": 1}))
    bracket = cf.add(
        _li(2, {"z": 1}),
        _frac_tree(cf.add(cf.mul(cf.const(7), cf.var("z")),
                          cf.mul(cf.const(-5), cf.mono({"z": 2}))),
                   _pow(_ub({"z": 1}), cf.const(2))))
    entries.append(IdentityEntry(
        id="16.59", mode=EXACT, caps=(8,), names=("z",),
        lhs=_pyramid_n(3, (1, 2, -4), mapping=(None, None, 0), names=("z",)),
        rhs=cf.mul(_pow(inv_1mz, cf.const(Fraction(1, 3))),
                   _exp(cf.mul(cf.const(Fraction(1, 12)), bracket))),
        tex_anchor=r"\sqrt[3]{\left( \frac{1}{1-z} \right)} \;  \exp\left\{ \frac{1}{12} \left( Li_2(z) + \frac{z(7-5z)}{(1-z)^2}\right) \right\}"))
    entries.append(IdentityEntry(
        id="16.60", mode=EXACT, caps=(8,), names=("z",),
        lhs=_pyramid_n(3, (1, 2, -4), direction=1, mapping=(None, None, 0),
                       names=("z",)),
        rhs=cf.mul(_pow(_ub({"z": 1}), cf.const(Fraction(1, 3))),
                   _exp(cf.mul(cf.const(Fraction(-1, 12)), bracket))),
        tex_anchor=r"\sqrt[3]{\left( 1-z \right)}"))

    entries.append(IdentityEntry(
        id="16.62", mode=EXACT, caps=(4, 4, 6), names=VARS[3],
        lhs=_pyramid_n(3, (1, 2, -4)),
        rhs=_exp(cf.partial_sum([("x", -1), ("y", -2)], "z", 4)),
        tex_anchor="exp of moment partial sums (authoritative route)"))
    # printed polylog display of 16.62
    x, y = cf.var("x"), cf.var("y")
    xy = cf.mono({"x": 1, "y": 1})

    def over(num, px, py):
        return _frac_tree(num, cf.mul(_pow(_ub({"x": 1}), cf.const(px)),
                                      _pow(_ub({"y": 1}), cf.const(py))))

    li = cf.polylog_expr
    printed = cf.mul(
        _pow(_frac_tree(cf.const(1), cf.unit_binomial({"x": 1, "y": 1, "z": 1})),
             over(xy, 2, 3)),
        _exp(cf.neg(cf.mul(over(cf.mul(xy, cf.add(cf.mul(cf.const(2), x), y,
                                                  cf.const(-3))), 3, 4),
                           li(2, {"x": 1, "y": 1, "z": 1}))),
             cf.mul(over(xy, 3, 3), li(2, {"y": 1, "z": 1})),
             cf.mul(over(cf.mul(xy, _ub({"y": 1}, sign=1)), 3, 5),
                    li(4, {"x": 1, "y": 1, "z": 1}))),
        _exp(cf.neg(cf.mul(over(cf.mul(xy, cf.add(xy, x, y, cf.const(-3))), 3, 5),
                           li(3, {"x": 1, "y": 1, "z": 1}))),
             cf.neg(cf.mul(over(cf.mul(xy, _ub({"y": 1}, sign=1)), 2, 5),
                           li(3, {"x": 1, "z": 1}))),
             cf.neg(cf.mul(over(cf.mul(xy, _ub({"y": 1}, sign=1)), 3, 5),
                           li(4, {"x": 1, "z": 1})))),
        _exp(cf.neg(cf.mul(over(cf.mul(cf.const(2), xy), 3, 4),
                           li(3, {"y": 1, "z": 1}))),
             cf.neg(cf.mul(over(cf.mul(xy, _ub({"y": 1}, sign=1)), 3, 5),
                           li(4, {"y": 1, "z": 1}))),
             cf.mul(over(cf.mul(xy, _ub({"y": 1}, sign=1)), 3, 5),
                    li(4, {"z": 1}))))
    entries.append(IdentityEntry(
        id="16.62-printed", mode=EXACT, caps=(4, 4, 6), names=VARS[3],
        lhs=_pyramid_n(3, (1, 2, -4)), rhs=printed, expected="errata-probe",
        tex_anchor=r"\left(\frac{1}{1-xyz} \right)^{\frac{xy}{(1-x)^2(1-y)^3}}",
        note="printed long polylog display"))
    return entries


def _oracle_entry(eq, caps, names, region, weight, oracle_mode, tex_anchor):
    """A product over a region against the oracle's count of partitions into
    the product's monomials."""
    spec = ProductSpec(region=region, factor=weight, names=names)
    return IdentityEntry(id=eq, mode=EXACT, caps=caps, names=names, lhs=spec,
                         rhs=OracleSide(spec, oracle_mode), tex_anchor=tex_anchor)


def _andrews_entries():
    entries = []
    for n, eq, caps in ((1, "8.00a-1d", (12,)), (2, "8.00a-2d", (6, 6))):
        region = LatticeRegion(arity=n, lower=(0 if n > 1 else 1,) * n)
        entries.append(_oracle_entry(
            eq, caps, VARS[n], region,
            WeightExpr(sign=-1, direction=-1, powers=(0,) * n), UNRESTRICTED,
            r"\sum P(\textbf{n})x_{1}^{n_1}...x_{r}^{n_r}"))
        entries.append(_oracle_entry(
            eq.replace("a", "b"), caps, VARS[n], region,
            WeightExpr(sign=1, direction=1, powers=(0,) * n), DISTINCT,
            r"\prod (1+x_{1}^{n_1}...x_{r}^{n_r})"))
    # exactly-one-part grids
    for n, eq in ((2, "8.01"), (3, "8.01a"), (4, "8.01b")):
        names = VARS[n]
        caps = {2: (6, 6), 3: (3, 3, 3), 4: (2, 2, 2, 2)}[n]
        region = LatticeRegion(arity=n, lower=(0,) * n, coprime=False)
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1,
                                             powers=(0,) * n), names=names)
        entries.append(IdentityEntry(
            id=eq, mode=EXACT, caps=caps, names=names,
            lhs=OracleSide(spec, EXACTLY_K, 1),
            rhs=_frac_tree(cf.const(1), cf.mul(*[_ub({v: 1}) for v in names])),
            tex_anchor=r"\frac{1}{(1-y)(1-z)}"))
    # strict-chain 3D tableaux
    chain = LatticeRegion(arity=3, lower=(1, 1, 1), order=ORDER_STRICT_CHAIN)
    entries.append(_oracle_entry(
        "8.06", (4, 6, 8), VARS[3], chain,
        WeightExpr(sign=1, direction=1, powers=(0,) * 3), DISTINCT,
        r"\prod_{0<a<b<c} (1+ x^ay^bz^c)"))
    entries.append(_oracle_entry(
        "8.07", (4, 5, 6), VARS[3], chain,
        WeightExpr(sign=-1, direction=-1, powers=(0,) * 3), UNRESTRICTED,
        r"\prod_{0<a<b<c} \frac{1}{(1- x^ay^bz^c)}"))
    # local factor families: closed-form factors vs truncated defining sums
    fam_map = {"8.07.01": GEOMETRIC, "8.07.02": MULTIPLICITY,
               "8.07.03": SQUARE, "8.07.04": ODD_ONLY}
    for eq, kind in fam_map.items():
        for suffix, coprime in (("", False), ("a", True)):
            region = LatticeRegion(arity=2, lower=(1, 1), coprime=coprime)
            lhs, rhs = (ProductSpec(region=region,
                                    factor=LocalFactorFamily(kind=kind,
                                                             defining_sum=defining),
                                    names=("x", "y"))
                        for defining in (False, True))
            entries.append(IdentityEntry(
                id=eq + suffix, mode=EXACT, caps=(6, 6), names=("x", "y"),
                lhs=lhs, rhs=rhs,
                tex_anchor=r"1 + x^j y^k + 2x^{2j} y^{2k} + 3x^{3j} y^{3k}"
                if kind == MULTIPLICITY else "local factor family",
                note="closed-form factors vs defining sums"))
    return entries


def _upper_grid_entries():
    """Finite upper-region products of orders 2..5 against the oracle."""
    entries = []

    def upper(order, coprime=True):
        """The (j, k) with 1 <= j < k <= order."""
        return LatticeRegion(arity=2, lower=(1, 1), upper=(None, order),
                             order=ORDER_ALL_BELOW_LAST_STRICT, coprime=coprime)

    def make(eq, order, sign, caps, oracle_mode, coprime=True):
        # sign 0 is the unrestricted product of geometric factors 1/(1 - X)
        weight = WeightExpr(sign=-1, direction=-1, powers=(0, 0)) if sign == 0 \
            else WeightExpr(sign=sign, direction=1, powers=(0, 0))
        return _oracle_entry(
            eq, caps, ("x", "y"), upper(order, coprime), weight, oracle_mode,
            r"\prod_{k=2}^{%d} \prod (1%sx^j y^k)" % (order, "+" if sign > 0 else "-")
            if coprime else "upper all-vectors product")

    entries.append(make("8.08", 2, 1, (1, 2), DISTINCT))
    entries.append(make("8.08-neg", 2, -1, (1, 2), DISTINCT_PARITY_DIFF))
    entries.append(make("8.09.03", 3, 1, (4, 8), DISTINCT))
    entries.append(make("8.09.04", 3, -1, (4, 8), DISTINCT_PARITY_DIFF))
    entries.append(make("8.10.03", 4, 1, (8, 16), DISTINCT))
    entries.append(make("8.11.03", 4, -1, (8, 16), DISTINCT_PARITY_DIFF))
    entries.append(make("8.12.02", 5, 1, (18, 36), DISTINCT))
    entries.append(make("8.13.03", 5, -1, (18, 36), DISTINCT_PARITY_DIFF))

    # weighted order-5 product: region route vs the literal factor list
    factors = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5))
    entries.append(IdentityEntry(
        id="8.14.03", mode=EXACT, caps=(9, 13), names=("x", "y"),
        lhs=ProductSpec(region=upper(5), names=("x", "y"),
                        factor=WeightExpr(sign=-1, direction=1, powers=(0, -1))),
        rhs=cf.mul(*[_pow(_ub({"x": j, "y": k}), cf.const(Fraction(1, k)))
                     for j, k in factors]),
        tex_anchor=r"\prod_{k=2}^{5} \prod (1-x^j y^k)^{1/k}",
        note="region route vs literal factor list"))

    entries.append(make("8.14", 4, 1, (10, 20), DISTINCT, coprime=False))
    entries.append(make("8.15", 4, -1, (10, 20), DISTINCT_PARITY_DIFF, coprime=False))
    entries.append(make("8.18a", 4, 0, (14, 20), UNRESTRICTED, coprime=False))
    entries.append(make("8.21a", 5, 1, (14, 24), DISTINCT, coprime=False))
    entries.append(make("8.22", 5, -1, (14, 24), DISTINCT_PARITY_DIFF, coprime=False))
    return entries


def _binary_entries():
    entries = []

    # the distinct sides: prod (1 + X) over binary X, X in a pyramid for
    # 12.1 (x^(2^j) y^(2^k), j <= k) and 12.08 (y dominant); the unrestricted
    # sides: prod 1/(1 - X) over binary X with one or more exponents equal to 1
    quadrant = binary_powers_spec(2, sign=1, direction=1)
    unit_component = binary_powers_spec(2, sign=-1, direction=-1, unit_counts=(1, 2))

    entries.append(IdentityEntry(
        id="7.23a", mode=EXACT, caps=(16, 16), names=VARS[2],
        lhs=quadrant, rhs=unit_component,
        tex_anchor=r"\frac{1}{1-xy}  \prod_{k \geq 1} \frac{1}{(1-y^{2^k} z)(1-y z^{2^k})}"))
    entries.append(IdentityEntry(
        id="12.04", mode=EXACT, caps=(16, 16), names=VARS[2],
        lhs=quadrant, rhs=unit_component,
        tex_anchor=r"\frac{1}{1-xy} \prod_{j \geq 1} \left( \frac{1}{(1- x^{2^j} y)(1- x y^{2^j})} \right)"))
    entries.append(IdentityEntry(
        id="12.1", mode=EXACT, caps=(8, 32), names=("x", "y"),
        lhs=beta2_distinct_spec(("x", "y")),
        rhs=beta2_spec(("x", "y")),
        tex_anchor=r"\frac{1}{(1-xy) (1-xy^2)(1-xy^4)"))
    entries.append(IdentityEntry(
        id="12.08", mode=EXACT, caps=(8, 8, 8), names=VARS[3],
        lhs=binary_powers_spec(3, sign=1, direction=1, order=ORDER_ALL_BELOW_LAST,
                               mapping=(0, 2, 1)),
        rhs=binary_powers_spec(3, sign=-1, direction=-1, order=ORDER_ALL_BELOW_LAST,
                               mapping=(0, 2, 1), unit_counts=(1, 2, 3)),
        tex_anchor=r"3D pyramid binary product form"))

    def min_index(exponent, sign):
        return lambda caps: binary_mod.min_index_product(caps, exponent, sign)

    entries.append(IdentityEntry(
        id="7.24", mode=EXACT, caps=(12, 12), names=VARS[2],
        lhs=min_index(lambda e: e, 1),
        rhs=binary_powers_spec(2, sign=-1, direction=-1),
        tex_anchor=r"\prod (1+y^{2^m} z^{2^n})^{\min(m,n)+1}"))
    entries.append(IdentityEntry(
        id="7.25a", mode=EXACT, caps=(12, 12), names=VARS[2],
        lhs=min_index(lambda e: e * (e + 1) // 2, 1), rhs=min_index(lambda e: -e, -1),
        tex_anchor=r"(1+y^{2^m} z^{2^n})^{\frac{(m+1)(m+2)}{2}}"))

    entries.append(IdentityEntry(
        id="11.06a", mode=EXACT, caps=(15,), names=("x",),
        lhs=binary_powers_spec(1, sign=1, direction=1, names=("x",)),
        rhs=_frac_tree(cf.const(1), _ub({"x": 1})),
        tex_anchor=r"(1 + x) (1 + x^2) (1 + x^4)"))

    entries.append(IdentityEntry(
        id="11.08", mode=EXACT, caps=(64,), names=("x",),
        lhs=multiplicity_capped_spec(),
        rhs=binary_powers_spec(1, sign=-1, direction=-1, names=("x",)),
        tex_anchor=r"(1 + x) (1 + x^2)^2 (1 + x^4)^3"))

    def indicator_pair(eq, base, caps):
        def lhs(caps_: Caps) -> Series:
            return binary_mod.b_indicator_series(caps_, base)

        def rhs(caps_: Caps) -> Series:
            terms = {}
            for a in range(caps_.limits[0] + 1):
                for b in range(caps_.limits[1] + 1):
                    v = binary_mod.b_indicator(a, b, base)
                    if v:
                        terms[(a, b)] = Fraction(v)
            return Series(("p", "q"), caps_, EXACT, terms)

        return IdentityEntry(
            id=eq, mode=EXACT, caps=caps, names=("p", "q"), lhs=lhs, rhs=rhs,
            tex_anchor=r"digits comprised of only 1s and 0s, and $a+b=\sum_{k=0}^{m-1}n^k$",
            note=f"base {base}")

    entries.append(indicator_pair("11b14", 2, (33, 33)))
    entries.append(indicator_pair("11b25-3", 3, (15, 15)))
    entries.append(indicator_pair("11b31", 10, (112, 112)))

    def beta_rhs(caps: Caps) -> Series:
        one = Series.one(("q", "t"), caps)
        acc = Series.zero(("q", "t"), caps)
        for k, ak in enumerate(determinants.binary_A_columns(caps.limits[1],
                                                             caps.limits[0]), 1):
            lifted = Series(("q", "t"), caps, EXACT,
                            {(e[0], k): c for e, c in ak.terms.items()})
            acc = acc + lifted
        return one + acc

    entries.append(IdentityEntry(
        id="12.01", mode=EXACT, caps=(13, 13), names=("q", "t"),
        lhs=beta2_spec(), rhs=beta_rhs,
        tex_anchor=r"\sum_{\substack{2^j|k \\ j \geq 0}} 2^j q^{k/2^j}"))

    entries.append(IdentityEntry(
        id="12.05", mode=EXACT, caps=(8, 8, 8), names=VARS[3],
        lhs=binary_powers_spec(3, sign=-1, direction=-1, unit_counts=(1, 2, 3)),
        rhs=binary_powers_spec(3, sign=1, direction=1),
        tex_anchor=r"\frac{1}{1-xyz} \prod_{a,b \geq 1}",
        note="corrected: includes the chains with two unit components"))
    entries.append(IdentityEntry(
        id="12.05-printed", mode=EXACT, caps=(8, 8, 8), names=VARS[3],
        lhs=binary_powers_spec(3, sign=-1, direction=-1, unit_counts=(1, 3)),
        rhs=binary_powers_spec(3, sign=1, direction=1),
        expected="errata-probe",
        tex_anchor=r"\frac{1}{(1- x y^{2^a}z^{2^b})(1- x^{2^a}y z^{2^b})(1- x^{2^a}y^{2^b}z)}",
        note="printed display omits the (1,1,2^b)-type chains"))
    entries.append(IdentityEntry(
        id="12.03", mode=EXACT, caps=(13, 13), names=("q", "t"),
        lhs=beta2_spec(),
        rhs=beta2_distinct_spec(),
        tex_anchor=r"= \sum_{j=0,k=0}^{\infty} \beta_2(j,k) q^j t^k"))
    return entries


_CATALOG: dict | None = None


def catalog() -> list:
    """The full built-in identity catalog (cached)."""
    global _CATALOG
    if _CATALOG is None:
        entries = []
        entries += _hyperquadrant_entries()
        entries += _diagonal_entries()
        entries += _axes_entries()
        entries += _log_weighted_entries()
        entries += _pyramid_entries()
        entries += _euler_weighted_entries()
        entries += _andrews_entries()
        entries += _upper_grid_entries()
        entries += _binary_entries()
        seen = {}
        for entry in entries:
            if entry.id in seen:
                raise SeriesError(f"duplicate catalog id {entry.id}")
            seen[entry.id] = entry
        _CATALOG = seen
    return list(_CATALOG.values())


def catalog_ids() -> list:
    return [e.id for e in catalog()]


def get_entry(entry_id: str) -> IdentityEntry:
    for entry in catalog():
        if entry.id == entry_id:
            return entry
    raise KeyError(f"unknown entry {entry_id!r}")


# The fields of a custom identity document.
IDENTITY_FIELDS = ("id", "mode", "caps", "enforce_weight_sum", "tex_anchor", "lhs", "rhs")


def entry_from_json(doc: dict) -> IdentityEntry:
    """Custom identity: JSON region + weight/factor + closed-form tree.

    With "enforce_weight_sum" set, the exp-family condition (weight
    exponents summing to 1) is asserted and violating documents rejected.
    """
    read_keys(doc, IDENTITY_FIELDS, "custom identity")
    spec = ProductSpec.from_json(doc["lhs"])
    if read_choice(doc.get("enforce_weight_sum", False), (True, False), "enforce_weight_sum"):
        _weight_sum_checked(spec)
    if not isinstance(doc["rhs"], dict):
        raise SeriesError("rhs must be an expression tree object")
    return IdentityEntry(id=read_str(doc.get("id", "custom"), "id"),
                         mode=read_choice(doc.get("mode", EXACT), (EXACT, APPROX), "mode"),
                         caps=Caps.of(doc["caps"]).limits, names=spec.names, lhs=spec,
                         rhs=doc["rhs"], tex_anchor=read_str(doc.get("tex_anchor", ""),
                                                             "tex_anchor"))
