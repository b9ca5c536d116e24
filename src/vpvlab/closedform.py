"""Closed-form right sides as expression trees, plus finite Euler sums.

Trees are JSON-serializable so custom identities can be supplied as
documents; every node evaluates to a Series under given caps and mode.
Evaluation errors carry the node path for diagnosis.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

from .series import (Caps, EXACT, NoLogForm, Series, SeriesError, _power_coeff,
                     binomial_log, check_power, polylog, read_choice, read_exps,
                     read_keys, read_rational, unit_binomial_pow)


class ExprError(SeriesError):
    def __init__(self, message, path=""):
        super().__init__(f"{message} (at node {path or 'root'})")


# The fields of each node kind besides `op`.
_FIELDS = {"const": ("value",), "mono": ("exps",), "unit_binomial": ("exps", "sign", "scalar"),
           "add": ("args",), "mul": ("args",), "div_unit": ("num", "den"),
           "pow": ("base", "exponent"), "exp": ("arg",), "log": ("arg",),
           "polylog": ("s", "exps"), "partial_sum": ("factors", "driver")}


@contextlib.contextmanager
def _node(node, path: str):
    """A tree node's op; a fault while it is read becomes an ExprError at it."""
    if not isinstance(node, dict) or "op" not in node:
        raise ExprError("malformed node", path)
    try:
        if node["op"] in _FIELDS:
            read_keys(node, ("op",) + _FIELDS[node["op"]], f"{node['op']} node")
        yield node["op"]
    except ExprError:
        raise
    except KeyError as err:
        raise ExprError(f"missing field {err}", f"{path}.{node['op']}") from err
    except (ValueError, TypeError, ArithmeticError) as err:  # SeriesError too
        raise ExprError(str(err), f"{path}.{node['op']}") from err


def _unit_binomial(node: dict, names) -> tuple:
    """(X, sign, scalar) of a unit_binomial node, 1 + sign * scalar * X."""
    return (read_exps(node["exps"], names, "exps"),
            read_choice(node.get("sign", -1), (1, -1), "sign"),
            read_rational(node.get("scalar", 1), "scalar"))


# -- node constructors (plain dicts keep the JSON form primary) -----------------


def const(value) -> dict:
    return {"op": "const", "value": str(Fraction(value))}


def var(name: str, power: int = 1) -> dict:
    return mono({name: power})


def mono(exps: dict) -> dict:
    return {"op": "mono", "exps": {k: int(v) for k, v in exps.items()}}


def unit_binomial(exps: dict, sign: int = -1, scalar=1) -> dict:
    """1 + sign * scalar * X."""
    return {"op": "unit_binomial", "sign": sign, "scalar": str(Fraction(scalar)),
            "exps": {k: int(v) for k, v in exps.items()}}


def add(*args) -> dict:
    return {"op": "add", "args": list(args)}


def sub(a, b) -> dict:
    return add(a, mul(const(-1), b))


def neg(a) -> dict:
    return mul(const(-1), a)


def mul(*args) -> dict:
    return {"op": "mul", "args": list(args)}


def div_unit(numer, denom) -> dict:
    return {"op": "div_unit", "num": numer, "den": denom}


def pow_expr(base, exponent) -> dict:
    return {"op": "pow", "base": base, "exponent": exponent}


def exp_expr(arg) -> dict:
    return {"op": "exp", "arg": arg}


def log_expr(arg) -> dict:
    return {"op": "log", "arg": arg}


def polylog_expr(s, exps: dict) -> dict:
    return {"op": "polylog", "s": str(Fraction(s)),
            "exps": {k: int(v) for k, v in exps.items()}}


def partial_sum(factors, driver_var: str, driver_power) -> dict:
    """sum over k>=1 of prod_i (sum_{j<=k} x_i^j / j^b_i) * d^k / k^b.

    `factors` is a list of (variable name or None, b_i); a None variable means
    the factor is the finite Euler sum S_{-b_i}(k) over the constant base 1.
    The driver variable's cap bounds the outer sum.
    """
    return {"op": "partial_sum",
            "factors": [{"var": v, "b": str(Fraction(b))} for v, b in factors],
            "driver": {"var": driver_var, "b": str(Fraction(driver_power))}}


# -- evaluation ------------------------------------------------------------------


def build_closed_form(node: dict, names, caps: Caps, mode: str = EXACT,
                      _path: str = "") -> Series:
    """Evaluate an expression tree to a truncated Series."""
    names = tuple(names)
    with _node(node, _path) as op:
        if op == "const":
            return Series.constant(read_rational(node["value"], "value"), names, caps, mode)
        if op == "mono":
            expo = read_exps(node["exps"], names, "exps")
            return Series.monomial(expo, names, caps, mode)
        if op == "unit_binomial":
            expo, sign, scalar = _unit_binomial(node, names)
            if any(expo):
                return unit_binomial_pow(expo, 1, names, caps, mode, sign, scalar)
            return Series.constant(1 + sign * scalar, names, caps, mode)
        if op == "add":
            out = Series.zero(names, caps, mode)
            for i, arg in enumerate(node["args"]):
                out = out + build_closed_form(arg, names, caps, mode, f"{_path}.add[{i}]")
            return out
        if op == "mul":
            out = Series.one(names, caps, mode)
            for i, arg in enumerate(node["args"]):
                out = out * build_closed_form(arg, names, caps, mode, f"{_path}.mul[{i}]")
            return out
        if op == "div_unit":
            numer = build_closed_form(node["num"], names, caps, mode, _path + ".num")
            denom = build_closed_form(node["den"], names, caps, mode, _path + ".den")
            return numer * denom.inverse()
        if op == "pow":
            base = build_closed_form(node["base"], names, caps, mode, _path + ".base")
            exponent = node["exponent"]
            if isinstance(exponent, dict):
                return base.pow(build_closed_form(exponent, names, caps, mode,
                                                  _path + ".exponent"))
            return base.pow(read_rational(exponent, "exponent"))
        if op == "exp":
            return build_closed_form(node["arg"], names, caps, mode, _path + ".arg").exp()
        if op == "log":
            return build_closed_form(node["arg"], names, caps, mode, _path + ".arg").log()
        if op == "polylog":
            return polylog(read_rational(node["s"], "s"),
                           read_exps(node["exps"], names, "exps"), names, caps, mode)
        if op == "partial_sum":
            return _partial_sum(node, names, caps, mode)
    raise ExprError(f"unknown op {op!r}", _path)


def build_log(node: dict, names, caps: Caps, _path: str = "") -> Series:
    """log of the exact series a tree evaluates to, built with no `exp`.

    Defined node by node: exp(a) is a, mul the sum of its args' logs,
    div_unit log num - log den, pow(b, c) c * log b (a tree c is expanded and
    multiplied once), unit_binomial its Mercator series and const 1 is 0.
    Each of these nodes has constant term 1, and on a caps window (a
    down-set) the truncated `exp` and `log` are inverse bijections, so two
    such trees are equal exactly when their logs are.  Any other node, an
    exp argument with a constant term, or a unit_binomial of a constant
    monomial raises `NoLogForm`, and the caller expands the tree instead.
    """
    names = tuple(names)
    with _node(node, _path) as op:
        if op == "exp":
            arg = build_closed_form(node["arg"], names, caps, EXACT, _path + ".arg")
            if arg.constant_term() == 0:
                return arg
        elif op == "mul":
            out = Series.zero(names, caps)
            for i, arg in enumerate(node["args"]):
                out = out + build_log(arg, names, caps, f"{_path}.mul[{i}]")
            return out
        elif op == "div_unit":
            return (build_log(node["num"], names, caps, _path + ".num")
                    - build_log(node["den"], names, caps, _path + ".den"))
        elif op == "pow":
            base = build_log(node["base"], names, caps, _path + ".base")
            exponent = node["exponent"]
            if isinstance(exponent, dict):
                return base * build_closed_form(exponent, names, caps, EXACT,
                                                _path + ".exponent")
            return base.scale(read_rational(exponent, "exponent"))
        elif op == "unit_binomial":
            expo, sign, scalar = _unit_binomial(node, names)
            if any(expo):
                return binomial_log([(expo, scalar, 1, sign)], names, caps)
        elif op == "const" and read_rational(node["value"], "value") == 1:
            return Series.zero(names, caps)
    raise NoLogForm(f"no log form for this {op!r} node (at node {_path or 'root'})")


def _partial_sum(node: dict, names, caps: Caps, mode: str) -> Series:
    driver = read_keys(node["driver"], ("var", "b"), "driver")
    if driver["var"] not in names:
        raise SeriesError(f"unknown driver variable {driver['var']!r}")
    didx = names.index(driver["var"])
    kmax = caps.limits[didx]

    def power(b, field):  # the exponent of 1/k^b, whose k^b is built up to kmax
        b = read_rational(b, field)
        check_power(kmax, b, field)
        return b
    db = power(driver["b"], "driver.b")
    partials = [[read_keys(spec, ("var", "b"), f"factors[{i}]")["var"],
                 power(spec["b"], f"factors[{i}].b"), Series.zero(names, caps, mode)]
                for i, spec in enumerate(node["factors"])]
    out = Series.zero(names, caps, mode)
    for k in range(1, kmax + 1):
        term = Series.monomial(tuple(k if i == didx else 0 for i in range(len(names))),
                               names, caps, mode).scale(_power_coeff(k, db, mode))
        for spec in partials:
            fvar, fb, acc = spec
            if fvar is None:
                inc = Series.constant(_power_coeff(k, fb, mode), names, caps, mode)
            else:
                if fvar not in names:
                    raise SeriesError(f"unknown factor variable {fvar!r}")
                fidx = names.index(fvar)
                expo = tuple(k if i == fidx else 0 for i in range(len(names)))
                inc = Series.monomial(expo, names, caps, mode) \
                    .scale(_power_coeff(k, fb, mode))
            spec[2] = acc + inc
            term = term * spec[2]
        out = out + term
    return out


# -- finite Euler sums -------------------------------------------------------------

_EULER_CLOSED = {
    1: lambda n: Fraction(n, 2) + Fraction(n * n, 2),
    2: lambda n: Fraction(n, 6) + Fraction(n * n, 2) + Fraction(n ** 3, 3),
    3: lambda n: Fraction(n * n, 4) + Fraction(n ** 3, 2) + Fraction(n ** 4, 4),
    4: lambda n: Fraction(-n, 30) + Fraction(n ** 3, 3) + Fraction(n ** 4, 2)
    + Fraction(n ** 5, 5),
}


def finite_euler_sum(p: int, n: int) -> Fraction:
    """Closed form of sum_{k=1}^{n} k^p for p in 1..4 (checked against it)."""
    if p not in _EULER_CLOSED:
        raise SeriesError("p must be in 1..4")
    if n < 0:
        raise SeriesError("n must be >= 0")
    return _EULER_CLOSED[p](n)


def finite_euler_sum_direct(p: int, n: int) -> int:
    return sum(k ** p for k in range(1, n + 1))


def geometric_moment(p: int, n: int, names=("z",), cap: int | None = None) -> Series:
    """sum_{k=1}^{n} k^p z^k as a truncated series (direct summation)."""
    if p not in (1, 2, 3, 4):
        raise SeriesError("p must be in 1..4")
    cap = cap if cap is not None else n
    caps = Caps.of([cap])
    terms = {(k,): Fraction(k ** p) for k in range(1, min(n, cap) + 1)}
    return Series(tuple(names), caps, EXACT, terms)


def geometric_moment_closed(p: int, n: int, names=("z",), cap: int | None = None) -> Series:
    """The rational closed forms of the z-weighted moments, expanded to caps."""
    cap = cap if cap is not None else n
    caps = Caps.of([cap])
    names = tuple(names)
    one = Series.one(names, caps)

    def zp(power, coeff=1):
        if power > cap:
            return Series.zero(names, caps)
        return Series.monomial((power,), names, caps, coeff=Fraction(coeff))

    inv = (one - zp(1)).inverse()
    if p == 1:
        numer = zp(1) + zp(n + 1, -(1 + n)) + zp(n + 2, n)
        return numer * inv.pow(2)
    if p == 2:
        numer = (zp(n + 3, -n ** 2) + zp(n + 2, 2 * n * n + 2 * n - 1)
                 + zp(n + 1, -(n * n + 2 * n + 1)) + zp(2) + zp(1))
        return numer * inv.pow(3)
    if p == 3:
        numer = (zp(n + 4, n ** 3) + zp(n + 2, 3 * n ** 3 + 6 * n ** 2 - 4)
                 + zp(n + 3, -(3 * n ** 3 + 3 * n ** 2 - 3 * n + 1))
                 + zp(n + 1, -(n + 1) ** 3) + zp(3) + zp(2, 4) + zp(1))
        return numer * inv.pow(4)
    if p == 4:
        # sign of the z^(n+2) coefficient corrected against direct summation
        numer = (zp(n + 5, n ** 4)
                 + zp(n + 4, -4 * n ** 4 - 4 * n ** 3 + 6 * n ** 2 - 4 * n + 1)
                 + zp(n + 3, 6 * n ** 4 + 12 * n ** 3 - 6 * n ** 2 - 12 * n + 11)
                 + zp(n + 2, -(4 * n ** 4 + 12 * n ** 3 + 6 * n ** 2 - 12 * n - 11))
                 + zp(n + 1, (n + 1) ** 4) + zp(4, -1) + zp(3, -11) + zp(2, -11)
                 + zp(1, -1))
        return numer.scale(-1) * inv.pow(5)
    raise SeriesError("p must be in 1..4")
