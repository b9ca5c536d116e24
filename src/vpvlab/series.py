"""Exact truncated multivariate formal power series.

A :class:`Series` is a sparse association from exponent vectors to nonzero
coefficients, truncated to a box of per-variable caps.  In ``exact`` mode
the coefficients are rational, stored as int numerators over one common
denominator, and every operation is exact; ``approx`` mode stores 64-bit
floats and exists only to host irrational weights.  A single series never
mixes modes, and operations on two series require identical variable
names, caps and mode.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

EXACT = "exact"
APPROX = "approx"

Coeff = Union[Fraction, float]
Expo = tuple  # tuple[int, ...]


class SeriesError(ValueError):
    """Raised on contract violations: incompatible operands, bad exponents."""


class NoLogForm(Exception):
    """A side whose log series is not built directly; verify expands it instead."""


# -- document readers -------------------------------------------------------------
#
# Every leaf of an input document (a product spec, a closed-form tree, a custom
# identity) is read by one of these, which returns it in its Python form or
# raises SeriesError naming the field.  An integer is a JSON integer, never a
# bool; a rational is a string in Fraction syntax, an integer, or (from Python
# callers) a Fraction.  A float or bool is never read as a number.


def _bad(field: str, want: str, value) -> SeriesError:
    shown = f"an integer of {value.bit_length()} bits" if isinstance(value, int) \
        and value.bit_length() > 64 else repr(value)[:40]
    return SeriesError(f"{field} must be {want}, got {shown}")


def read_int(value, field: str, low: int | None = None, high: int | None = None) -> int:
    if type(value) is int and (low is None or value >= low) \
            and (high is None or value <= high):
        return value
    raise _bad(field, "an integer" + ("" if low is None else f" >= {low}" if high is None
                                      else f" in {low}..{high}"), value)


def _count(value, field: str) -> int:
    return read_int(value, field, 0)


def read_choice(value, choices: tuple, field: str):
    """One of `choices`, of its type too: a sign (1, -1), a bool, a name."""
    if any(type(value) is type(c) and value == c for c in choices):
        return value
    raise _bad(field, "one of " + ", ".join(map(json.dumps, choices)), value)


def read_rational(value, field: str) -> Fraction:
    # Fraction would expand a long decimal exponent ("1e99999") in full
    if type(value) in (str, int, Fraction) and not (
            isinstance(value, str) and re.search(r"[eE][-+]?[\d_]{5}", value)):
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(value)
    raise _bad(field, 'a rational string such as "-3/2" or an integer', value)


def read_keys(value, keys: tuple, field: str) -> dict:
    """An object whose keys are all in `keys`: a misspelt optional key would
    otherwise take its default without a word."""
    if not isinstance(value, dict):
        raise _bad(field, "an object", value)
    for key in value:
        if key not in keys:
            raise SeriesError(f"unknown key {key!r} in {field} (known: {', '.join(keys)})")
    return value


def read_str(value, field: str) -> str:
    if isinstance(value, str):
        return value
    raise _bad(field, "a string", value)


def read_list(value, field: str, read=None, n: int | None = None) -> tuple:
    """An array, of `n` items if given, each read by `read(item, field[i])`."""
    if not isinstance(value, (list, tuple)):
        raise _bad(field, "an array", value)
    if n is not None and len(value) != n:
        raise SeriesError(f"{field} needs one entry per component ({n}), got {len(value)}")
    return tuple(value if read is None else (read(v, f"{field}[{i}]")
                                             for i, v in enumerate(value)))


def read_names(value, field: str) -> tuple:
    names = read_list(value, field, read_str)
    if len(set(names)) != len(names):
        raise SeriesError(f"duplicate variable names in {list(names)}")
    return names


def read_exps(value, names: tuple, field: str) -> Expo:
    """An exponent map {name: integer >= 0} as the exponent vector over `names`."""
    if not isinstance(value, dict):
        raise _bad(field, "an object", value)
    expo = [0] * len(names)
    for name, power in value.items():
        if name not in names:
            raise SeriesError(f"unknown variable {name!r}")
        expo[names.index(name)] += read_int(power, f"{field}.{name}", 0)
    return tuple(expo)


# The largest exact power k^p a document may ask for, in bits: |p| times the bit
# length of the largest k the caps allow (a weight's component bound, or the
# last multiple of a polylog or a partial sum).  Measured in-process at caps
# (3, 3), a weight power of 16k bits builds in 0.02 s, 158k in 0.7 s and 1.6M in
# 21 s, and at (8, 8) 42k bits take 5 s; a polylog of 490k bits takes 0.2 s at
# cap 30.  The catalog's largest estimate is 20 bits (4 at the deep caps).
POWER_BITS = 1 << 16


def check_power(k: int, p: Fraction, field: str):
    """Refuse to build k^p past `POWER_BITS` bits: the document asks too much."""
    if (bits := math.ceil(abs(p) * k.bit_length())) > POWER_BITS:
        raise SeriesError(f"{field}: k^p for k up to {k} needs about "
                          f"{decimal_str(bits)} bits, over the budget of {POWER_BITS}")


def decimal_str(n: int) -> str:
    """str(n) past the int-to-string digit limit, which guards parsing only: n
    is split into parts of under 600 digits, which every limit allows."""
    if n.bit_length() <= 1990:
        return str(n)
    if n < 0:
        return "-" + decimal_str(-n)
    high, low = divmod(n, 10 ** (half := n.bit_length() * 3 // 20))  # half the digits
    return decimal_str(high) + decimal_str(low).zfill(half)


# The most slots, prod(2*cap_i + 1), a caps window's layout (see `_layout`) may
# have; they size every per-cell table and packed operand, so this bounds
# memory, and `WORK_BUDGET` bounds time.  Measured in-process, 13.02 takes 0.8 s
# at (200, 200) (160,801 slots) and 7.7 s with a 246 MB peak at (511, 511); the
# catalog's largest window has 50,625 slots (11b31).
SLOT_BUDGET = 1 << 20


@dataclass(frozen=True)
class Caps:
    """Truncation window: the box of per-variable maxima."""

    limits: tuple

    def __post_init__(self):
        object.__setattr__(self, "limits", read_list(self.limits, "caps", _count))
        if (slots := math.prod(2 * c + 1 for c in self.limits)) > SLOT_BUDGET:
            raise SeriesError(f"caps {list(self.limits)} need {decimal_str(slots)} slots, "
                              f"prod(2*cap + 1), over the budget of {SLOT_BUDGET}")

    def admits(self, expo: Expo) -> bool:
        return all(e <= c for e, c in zip(expo, self.limits))

    def multiples(self, expo: Expo) -> int:
        """The largest k the caps admit k * expo for (expo nonzero, >= 0)."""
        return min(c // e for c, e in zip(self.limits, expo) if e)

    def max_order(self) -> int:
        """Largest total degree any retained term can have."""
        return sum(self.limits)

    @staticmethod
    def of(limits: Sequence[int]) -> "Caps":
        return Caps(limits)


def _as_coeff(value, mode: str) -> Coeff:
    if mode == EXACT:
        if isinstance(value, float):
            raise SeriesError("float coefficient in exact mode")
        return value if isinstance(value, Fraction) else Fraction(value)
    return float(value)


# Slot layouts of the caps windows, keyed by limits.
_LAYOUTS: dict = {}


def _layout(caps: Caps):
    """encode, decode, admitted and rows of the caps' slot layout.

    A cell's slot is the one exponent key of the kernels.  Variable i has
    radix 2*cap_i + 1 and the last variable varies fastest, so adding the
    keys of two admitted cells never carries into the next variable: the sum
    is the key of the summed exponents.  `admitted` holds 1 at the slot of
    every cell the caps admit, and `rows` lists, as a range of keys, each
    run of admitted cells that share all exponents but the last.
    """
    layout = _LAYOUTS.get(caps.limits)
    if layout is None:
        *lead, last = caps.limits or (0,)  # no variables: one cell, key 0, tail ()
        tails = [(e,) for e in range(last + 1)] if caps.limits else [()]
        weights, size = (), 1
        for cap in reversed(caps.limits):
            weights = (size,) + weights
            size *= 2 * cap + 1
        radix = 2 * last + 1
        admitted, rows, prefixes = bytearray(size), [], {}
        for prefix in itertools.product(*(range(cap + 1) for cap in lead)):
            start = sum(map(operator.mul, prefix, weights))
            prefixes[start] = prefix
            admitted[start:start + last + 1] = b"\x01" * (last + 1)
            rows.append(range(start, start + last + 1))

        def encode(expo):
            return sum(map(operator.mul, expo, weights))

        def decode(key):
            e = key % radix
            return prefixes[key - e] + tails[e]

        layout = _LAYOUTS[caps.limits] = (encode, decode, admitted, rows)
    return layout


# -- cost model -----------------------------------------------------------------
#
# Every route choice, and the work budget, reads one model of what the kernels
# cost, in estimated ns, from sizes known before any arithmetic: term counts,
# numerator widths, the layout's slots and the rooms of its cells.  The
# constants were fitted on both routes of 1,868 distinct exact products and of
# 136 distinct exact `binomial_product` calls (both sides of every exact
# catalog entry and `deep` item, and 7.25a and 12.04 at (24, 24) and (32, 32)),
# timed on a 2-vCPU VM under Python 3.11.7.  Picking by the estimate cost
# 4.6 ms over the faster route each time (of 285 ms) on the products, and
# 1.8 ms (of 168 ms) on the calls.

FILTER_NS = 10  # a pair of terms the term loop tests against the caps
PAIR_NS = 190  # a pair it keeps: one multiply of one-digit ints and one add
DIGIT_NS = 3  # each further 30-bit digit product of such a multiply
TERM_NS = 1250  # a term packed into a big integer, and its share of the read-back
KARATSUBA_NS = 0.26  # the packed multiply: times (bytes of an operand)^1.585
CALL_NS = 1000  # a kernel product called, whatever its size
STEP_NS = 600  # a term of a power sum's running term: ratio, gcd, merge into the sum
GCD_NS = 20  # a term of the chain's running product, tested for a common factor
EXPAND_NS = 10000  # a term of a chain factor expanded by `unit_binomial_pow`

# The most estimated work, in ns, one verify, expand or grid may run: a minute.
# Through the CLI, 14.05 verifies at (3000,) in 0.7 s and at (10000,) in 12 s,
# and 13.02 at (240, 240) and 7.25a at (32, 32) in under a second; at
# (500000,) 14.05's weight table alone is estimated at 113 s.
WORK_BUDGET = 60 * 10 ** 9

_spent = [None]  # the work charged in the open `work_budget`, or None


@contextlib.contextmanager
def work_budget():
    """Refuse, with SeriesError, the route whose estimate takes the work run
    inside this block past `WORK_BUDGET`; an inner block adds to the outer's."""
    if _spent[0] is not None:
        yield
        return
    _spent[0] = 0
    try:
        yield
    finally:
        _spent[0] = None


def _charge(cost: float, caps: Caps, what: str, spend: bool = True):
    """Add `cost` to the open budget, or with `spend` False only check that it
    fits; past `WORK_BUDGET`, refuse before the work starts."""
    if _spent[0] is not None:
        if (total := _spent[0] + cost) > WORK_BUDGET:
            raise SeriesError(f"{what} at caps {list(caps.limits)} needs an estimated "
                              f"{decimal_str(round(cost / 10 ** 9))} s of work, taking the "
                              f"run to {decimal_str(round(total / 10 ** 9))} s, over the "
                              f"budget of {WORK_BUDGET // 10 ** 9} s")
        if spend:
            _spent[0] += cost


_ROOMS: dict = {}


def _rooms(caps: Caps) -> list:
    """The room of each slot of the caps' layout: at an admitted cell e,
    prod(cap_i - e_i + 1), the admitted cells c with c + e admitted; 0 where
    the caps do not admit e.  The rows of `_layout` run over the leading
    components in `itertools.product` order, each row over the last one."""
    rooms = _ROOMS.get(caps.limits)
    if rooms is None:
        *lead, last = caps.limits or (0,)
        ramp = range(last + 1, 0, -1)
        rooms = _ROOMS[caps.limits] = [0] * len(_layout(caps)[2])
        shares = map(math.prod, itertools.product(*(range(cap + 1, 0, -1) for cap in lead)))
        for row, share in zip(_layout(caps)[3], shares):
            rooms[row.start:row.stop] = [share * r for r in ramp]
    return rooms


_TAILS: dict = {}


def _degree_tails(caps: Caps) -> tuple:
    """(cells_from, rooms_from): per total degree d, the admitted cells of
    degree d or more and the sum of their rooms (see `_rooms`)."""
    tails = _TAILS.get(caps.limits)
    if tails is None:
        cells, rooms = [1], [1]
        for cap in caps.limits:  # convolve with the cap's counts and rooms
            window = [(max(0, d - cap), min(d, len(cells) - 1) + 1)
                      for d in range(len(cells) + cap)]
            cells = [sum(cells[lo:hi]) for lo, hi in window]
            rooms = [sum(map(operator.mul, rooms[lo:hi], range(lo - d + cap + 1, cap + 2)))
                     for d, (lo, hi) in enumerate(window)]
        tails = _TAILS[caps.limits] = tuple(list(itertools.accumulate(x[::-1]))[::-1] + [0]
                                            for x in (cells, rooms))
    return tails


def _box(caps: Caps, low) -> tuple:
    """(cells, rooms): the admitted cells at least `low` in each component, and
    the sum of their rooms."""
    cells, rooms = 1, 1
    for cap, least in zip(caps.limits, low):
        n = max(cap - least + 1, 0)  # with rooms 1 .. n
        cells, rooms = cells * n, rooms * n * (n + 1) // 2
    return cells, rooms


def _bits_of_lcm(k: int) -> int:
    """An upper bound on the bits of lcm(1..k): psi(k) / log 2 < 1.04 k / log 2."""
    return 3 * k // 2 + 1


def _loop_cost(pairs: float, wa: int, wb: int) -> float:
    """ns of `pairs` multiply-adds of wa-bit by wb-bit ints in a Python loop: a
    digit product per two 30-bit digits, or Karatsuba's share of them past 70
    digits (CPython's cutoff)."""
    short, long = sorted(((wa + 29) // 30 or 1, (wb + 29) // 30 or 1))
    digits = long * (short if short <= 70 else 70 * (short / 70) ** 0.585)
    return pairs * (PAIR_NS + DIGIT_NS * (digits - 1))


def _pairs(na: int, nb: int, room_a: float, room_b: float, cells: int) -> float:
    """The pairs the caps admit of na by nb terms with rooms summing to room_a
    and room_b, of `cells` admitted cells: the geometric mean of nb * room_a
    and na * room_b over cells, each operand's pairs with the other spread
    evenly over the window."""
    return min(na * nb, math.sqrt(room_a * nb * room_b * na) / cells)


def _product_cost(na: int, nb: int, kept: float, wa: int, wb: int, slots: int) -> tuple:
    """(loop, packed): estimated ns of an exact product of na by nb terms,
    `kept` of whose pairs the caps admit, with numerators of up to wa and wb
    bits, on a layout of `slots`.  `_keyed_product` tests every pair and
    multiplies the kept ones; `_packed_product` packs every term and
    multiplies two integers of a byte slot per key up to the last admitted
    one, the middle slot."""
    loop = CALL_NS + FILTER_NS * na * nb + _loop_cost(kept, wa, wb)
    kb = (wa + wb + min(na, nb).bit_length() + 8) // 8
    return loop, CALL_NS + TERM_NS * (na + nb) + KARATSUBA_NS * ((slots + 1) // 2 * kb) ** 1.585


def _keyed_product(a: dict, b: dict, admitted: bytearray) -> dict:
    """The product of two key -> coefficient dicts (see `_layout`), term by term.

    The term loop of both modes: float coefficients, or the int numerators
    of `_exact_product`; the keys of both operands are admitted.  A pair's
    summed key is its product cell's slot, kept where `admitted`.  Every
    kept pair is multiplied in the order of a tuple-keyed term loop: the
    smaller operand outside (the first on a tie), and a sum that cancels to
    0 leaves the dict.  Two shortcuts skip only pairs that would change
    nothing:

    - a leading outer term 1 at key 0 gives a copy of the inner operand
      (0 + 1*c is c), less any zero;
    - when an outer key lies above the one before it (their difference is
      an admitted key, so the earlier cell divides the later), only the
      inner keys the earlier key kept can pair with it, as the caps window
      is a down-set.  Those are filtered, in inner order, rather than every
      inner key.
    """
    if len(a) > len(b):
        a, b = b, a
    outer = iter(a.items())
    out: dict[int, Coeff] = {}
    if next(iter(a.items()), None) == (0, 1):
        next(outer)
        out = dict(b) if 0 not in b.values() else {kb: cb for kb, cb in b.items() if cb}
    get, pop = out.get, out.pop
    inner = kept = list(b)  # from key 0 every inner key is kept
    last = 0
    for ka, ca in outer:
        d = ka - last
        kept = [kb for kb in (kept if d >= 0 and admitted[d] else inner) if admitted[ka + kb]]
        last = ka
        for kb in kept:
            k = ka + kb
            new = get(k, 0) + ca * b[kb]
            if new == 0:
                pop(k, None)
            else:
                out[k] = new
    return out


def _exact_product(a: dict, b: dict, caps: Caps) -> dict:
    """The product of two key -> int numerator dicts, cut to the caps.

    It takes `_keyed_product`, pair by pair, or `_packed_product`, which
    pays for every slot of the layout, whichever `_product_cost` estimates
    cheaper from the operands' term counts, rooms and widths, and charges
    that estimate to the work budget.  Few pairs, no more than
    TERM_NS / (FILTER_NS + PAIR_NS) per term, take the term loop with no
    estimate: there the loop costs less than packing the terms would, and
    little more than the operands cost to build.
    """
    if not a or not b:
        return {}
    na, nb = len(a), len(b)
    if na * nb * (FILTER_NS + PAIR_NS) > TERM_NS * (na + nb):
        rooms = _rooms(caps)
        kept = _pairs(na, nb, sum(map(rooms.__getitem__, a)), sum(map(rooms.__getitem__, b)),
                      rooms[0])
        loop, packed = _product_cost(na, nb, kept, max(map(abs, a.values())).bit_length(),
                                     max(map(abs, b.values())).bit_length(), len(rooms))
        _charge(min(loop, packed), caps, "an exact product")
        if packed < loop:
            return _packed_product(a, b, caps)
    return _keyed_product(a, b, _layout(caps)[2])


def _float_product(a: dict, b: dict, caps: Caps) -> dict:
    """`_keyed_product` of two key -> float dicts, charged to the work budget
    as the term loop's estimate with every pair kept."""
    admitted, pairs = _layout(caps)[2], len(a) * len(b)
    _charge(_product_cost(len(a), len(b), pairs, 1, 1, len(admitted))[0], caps, "a float product")
    return _keyed_product(a, b, admitted)


def _pack(terms: dict, size: int, kb: int) -> int:
    """The integer with each term's numerator in its key's `kb`-byte slot."""
    pos, neg = bytearray(size * kb), bytearray(size * kb)
    for key, n in terms.items():
        at = key * kb
        if n > 0:
            pos[at:at + kb] = n.to_bytes(kb, "little")
        else:
            neg[at:at + kb] = (-n).to_bytes(kb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _packed_product(a: dict, b: dict, caps: Caps) -> dict:
    """`_exact_product` by Kronecker substitution: one big-integer multiply.

    Each operand is packed, one `kb`-byte slot per key of the layout, into a
    single int.  Slots are wide enough for any coefficient of the product
    plus a sign bit, so adding half a slot's range to every slot turns the
    signed product into plain bytes, and each admitted slot is read back;
    rows of zero slots are skipped whole.
    """
    _, _, admitted, rows = _layout(caps)
    size = len(admitted)
    kb = (max(map(abs, a.values())).bit_length() + max(map(abs, b.values())).bit_length()
          + min(len(a), len(b)).bit_length() + 8) // 8
    half = 1 << (8 * kb - 1)
    zero = bytes(kb - 1) + b"\x80"  # a slot holding 0
    data = (_pack(a, size, kb) * _pack(b, size, kb)
            + int.from_bytes(zero * size, "little")).to_bytes(size * kb, "little")
    from_bytes = int.from_bytes
    out = {}
    for row in rows:
        at = row.start * kb
        # len(row) slots of zeros tile the row only if every slot is zero
        if data.count(zero, at, at + len(row) * kb) == len(row):
            continue
        for key in row:
            value = from_bytes(data[at:at + kb], "little") - half
            if value:
                out[key] = value
            at += kb
    return out


def _clean_terms(terms: Mapping[Expo, Coeff], caps: Caps, mode: str) -> Mapping:
    """`terms` on checked exponents, the cells the caps do not admit dropped.

    When every exponent is a tuple of ints inside the caps, checked column
    by column, `terms` is taken as it is; otherwise each exponent is checked
    on its own, each coefficient taken to its mode, and equal exponents
    summed, dropping the zeros.
    """
    n, keys = len(caps.limits), list(terms)
    if set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {n} \
            and set(map(type, itertools.chain.from_iterable(keys))) <= {int} \
            and all(min(col) >= 0 and max(col) <= cap
                    for col, cap in zip(zip(*keys), caps.limits)):
        return terms
    clean: dict[Expo, Coeff] = {}
    for expo, value in terms.items():
        expo = _checked_expo(expo, n)
        if not caps.admits(expo):
            continue
        value = _as_coeff(value, mode)
        if value != 0:
            acc = clean.get(expo)
            new = value if acc is None else acc + value
            if new == 0:
                clean.pop(expo, None)
            else:
                clean[expo] = new
    return clean


class Series:
    """Truncated multivariate formal power series with sparse storage.

    An exact series stores one positive denominator `den` and a dict `nums`
    of nonzero int numerators over it, with gcd(den, *nums) = 1, so equal
    series store equal pairs; an approx series stores its floats over 1.
    `terms`, {exponent: coefficient}, is built from them on its first read.
    """

    __slots__ = ("names", "caps", "mode", "den", "nums", "_terms")

    def __init__(self, names, caps: Caps, mode: str, terms: Mapping[Expo, Coeff]):
        if mode not in (EXACT, APPROX):
            raise SeriesError(f"unknown mode {mode!r}")
        if len(caps.limits) != len(names := tuple(names)):
            raise SeriesError("caps arity does not match variable names")
        clean = _clean_terms(terms, caps, mode)
        if mode == APPROX:
            den, nums = 1, {e: f for e, v in clean.items() if (f := float(v))}
        else:
            clean = {e: c for e, v in clean.items()
                     if (c := v if type(v) in (int, Fraction) else _as_coeff(v, mode))}
            den = math.lcm(*(c.denominator for c in clean.values()))
            nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._init(names, caps, mode, den, nums)

    def _init(self, names, caps, mode, den, nums):
        put = object.__setattr__
        put(self, "names", names)
        put(self, "caps", caps)
        put(self, "mode", mode)
        put(self, "den", den)
        put(self, "nums", nums)
        put(self, "_terms", None)

    @classmethod
    def _of(cls, names: tuple, caps: Caps, mode: str, den: int, nums: dict) -> "Series":
        """The series of nonzero `nums` over `den` > 0, unchecked: exact int
        numerators, divided here by their gcd with `den`, or floats over 1."""
        if den != 1 and (g := math.gcd(den, *nums.values())) != 1:
            den //= g
            nums = {e: v // g for e, v in nums.items()}
        self = object.__new__(cls)
        self._init(names, caps, mode, den, nums)
        return self

    def _with(self, den: int, nums: dict) -> "Series":
        return Series._of(self.names, self.caps, self.mode, den, nums)

    def __setattr__(self, *_):
        raise AttributeError("Series is immutable")

    @property
    def terms(self) -> dict:
        """{exponent: coefficient}: `Fraction`s built on the first read and
        kept, or the approx floats themselves."""
        if self._terms is None:
            den = self.den
            object.__setattr__(self, "_terms", self.nums if self.mode == APPROX else
                               {e: Fraction(v, den) for e, v in self.nums.items()})
        return self._terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, names, caps: Caps, mode: str = EXACT) -> "Series":
        return cls(names, caps, mode, {})

    @classmethod
    def constant(cls, value, names, caps: Caps, mode: str = EXACT) -> "Series":
        return cls(names, caps, mode, {(0,) * len(tuple(names)): value})

    @classmethod
    def one(cls, names, caps: Caps, mode: str = EXACT) -> "Series":
        return cls.constant(1, names, caps, mode)

    @classmethod
    def monomial(cls, expo, names, caps: Caps, mode: str = EXACT, coeff=1) -> "Series":
        return cls(names, caps, mode, {tuple(expo): coeff})

    @classmethod
    def variable(cls, name: str, names, caps: Caps, mode: str = EXACT) -> "Series":
        names = tuple(names)
        expo = tuple(1 if n == name else 0 for n in names)
        if sum(expo) != 1:
            raise SeriesError(f"unknown variable {name!r}")
        return cls.monomial(expo, names, caps, mode)

    @classmethod
    def from_terms(cls, terms: Iterable, names, caps: Caps, mode: str = EXACT) -> "Series":
        """Normalize a (monomial, coefficient) list into a Series."""
        acc: dict[Expo, Coeff] = {}
        for expo, value in terms:
            acc[tuple(expo)] = acc.get(tuple(expo), 0) + value
        return cls(names, caps, mode, acc)

    # -- helpers -----------------------------------------------------------

    def _check_compatible(self, other: "Series"):
        if not isinstance(other, Series):
            raise SeriesError(f"expected Series, got {type(other).__name__}")
        if (self.names != other.names or self.caps != other.caps
                or self.mode != other.mode):
            raise SeriesError("incompatible series (names/caps/mode differ)")

    def _lift(self, scalar) -> "Series":
        return Series.constant(scalar, self.names, self.caps, self.mode)

    def _coerce(self, other):
        if isinstance(other, Series):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)) or (self.mode == APPROX and isinstance(other, float)):
            return self._lift(other)
        return None

    def _coeff(self, expo: Expo) -> Coeff:
        if self.mode == EXACT:
            return Fraction(self.nums.get(expo, 0), self.den)
        return self.nums.get(expo, 0.0)

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Coeff:
        return self._coeff((0,) * len(self.names))

    def __eq__(self, other):
        if isinstance(other, Series):
            return (self.names == other.names and self.caps == other.caps
                    and self.mode == other.mode and self.den == other.den
                    and self.nums == other.nums)
        return NotImplemented

    def __hash__(self):
        return hash((self.names, self.caps, self.mode, self.den,
                     frozenset(self.nums.items())))

    def __repr__(self):
        shown = sorted(self.terms.items())[:6]
        body = " + ".join(f"{c}*{e}" for e, c in shown) or "0"
        more = "" if len(self.nums) <= 6 else f" (+{len(self.nums) - 6} terms)"
        return f"<Series[{','.join(self.names)}] {body}{more}>"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        nums = dict(self.nums) if ma == 1 else {e: v * ma for e, v in self.nums.items()}
        get, pop = nums.get, nums.pop
        for expo, value in other.nums.items():
            new = get(expo, 0) + (value if mb == 1 else value * mb)
            if new == 0:
                pop(expo, None)
            else:
                nums[expo] = new
        return self._with(den, nums)

    __radd__ = __add__

    def __neg__(self):
        return self._with(self.den, {e: -v for e, v in self.nums.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) or (self.mode == APPROX and isinstance(other, float)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        encode, decode, _, _ = _layout(self.caps)
        a = {encode(e): v for e, v in self.nums.items()}
        b = {encode(e): v for e, v in other.nums.items()}
        # floats cannot be packed exactly: every pair is multiplied
        out = (_exact_product if self.mode == EXACT else _float_product)(a, b, self.caps)
        return self._with(self.den * other.den, {decode(k): v for k, v in out.items()})

    __rmul__ = __mul__

    def scale(self, scalar) -> "Series":
        scalar = _as_coeff(scalar, self.mode)
        if scalar == 0:
            return Series.zero(self.names, self.caps, self.mode)
        p, q = (scalar.numerator, scalar.denominator) if self.mode == EXACT else (scalar, 1)
        # a float product that underflows to 0.0 leaves the series, as a sum of 0 does
        return self._with(self.den * q, {e: w for e, v in self.nums.items() if (w := v * p)})

    def _power_sum(self, ratio, start) -> "Series":
        """start + sum over k >= 1 of t_k, with t_0 = 1, t_k = t_(k-1)*self*ratio(k).

        `self` has zero constant term, so t_k starts at degree k times the
        least degree d of `self`: the sum ends at the k past which t_k would
        exceed the caps' largest order (one product per k up to
        max_order // d), at a zero term, or at a ratio of 0 (where a binomial
        series with a non-negative integer exponent stops).

        The sum and the term are each a denominator and coefficients over it,
        keyed by slot (see `_layout`).  Exact coefficients are int
        numerators: a step is one `_exact_product`, a ratio p/q multiplies
        the numerators by p and the denominator by q, and the content gcd is
        divided out; the sum is kept over the lcm of the terms'
        denominators.  Approx coefficients are floats over 1, and a step is
        one `_float_product` and a multiply by the ratio: the float
        operations of the tuple-keyed loop, in its order.
        """
        caps, exact = self.caps, self.mode == EXACT
        encode, decode, _, _ = _layout(caps)
        uden, u = self.den, {encode(e): v for e, v in self.nums.items()}
        step, unit = (_exact_product, 1) if exact else (_float_product, 1.0)
        oden, out = 1, ({0: start * unit} if start else {})
        tden, term = 1, {0: unit}
        max_order = caps.max_order()
        least = min(map(sum, self.nums), default=max_order + 1)
        for k in range(1, max_order // least + 1):
            r = ratio(k)
            if r == 0:
                break
            term, tden = step(term, u, caps), tden * uden
            if r != 1:
                p, q = (r.numerator, r.denominator) if exact else (r, 1)
                if p != 1:
                    term = {key: w for key, v in term.items() if (w := v * p)}
                tden *= q
            if exact and (g := math.gcd(tden, *term.values())) != 1:
                tden //= g
                term = {key: v // g for key, v in term.items()}
            if not term:
                break
            den = math.lcm(oden, tden)
            if den != oden:
                out = {key: v * (den // oden) for key, v in out.items()}
                oden = den
            m = den // tden
            get, pop = out.get, out.pop
            for key, v in term.items():
                new = get(key, 0) + (v if m == 1 else v * m)
                if new == 0:
                    pop(key, None)
                else:
                    out[key] = new
        return self._with(oden, {decode(key): v for key, v in out.items()})

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.constant_term()
        if c0 == 0:
            raise SeriesError("division by a series with zero constant term")
        inv0 = (Fraction(1) / c0) if self.mode == EXACT else 1.0 / c0
        u = Series.one(self.names, self.caps, self.mode) - self.scale(inv0)
        return u._power_sum(lambda k: 1, 1).scale(inv0)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    # -- transcendental operations -------------------------------------------

    def exp(self) -> "Series":
        """exp of a series with zero constant term: sum of a^k / k!."""
        if self.constant_term() != 0:
            raise SeriesError("exp needs zero constant term")
        one = Fraction(1) if self.mode == EXACT else 1.0
        return self._power_sum(lambda k: one / k, 1)

    def log(self) -> "Series":
        """log of a series with constant term 1 (Mercator expansion)."""
        if self.constant_term() != 1:
            raise SeriesError("log needs constant term 1")
        u = self - Series.one(self.names, self.caps, self.mode)
        one = Fraction(1) if self.mode == EXACT else 1.0
        return u._power_sum(lambda k: (1 - k) * one / k if k > 1 else 1, 0)

    def pow(self, exponent) -> "Series":
        """Raise a unit series (constant term 1) to a series-valued power.

        Constant exponents take the binomial route (exact for any Fraction);
        series exponents evaluate exp(exponent * log(base)).
        """
        if isinstance(exponent, (int, Fraction)) or \
                (self.mode == APPROX and isinstance(exponent, float)):
            if isinstance(exponent, int) and exponent >= 0 and self.constant_term() != 1:
                out = Series.one(self.names, self.caps, self.mode)
                for _ in range(exponent):
                    out = out * self
                return out
            if self.constant_term() != 1:
                raise SeriesError("pow needs base with constant term 1")
            u = self - Series.one(self.names, self.caps, self.mode)
            r = Fraction(exponent) if self.mode == EXACT else float(exponent)
            return u._power_sum(lambda k: (r - (k - 1)) / k, 1)
        exponent = self._coerce(exponent)
        if exponent is None:
            raise SeriesError("unsupported exponent type")
        if self.constant_term() != 1:
            raise SeriesError("pow needs base with constant term 1")
        return (exponent * self.log()).exp()

    __pow__ = pow

    def derivative(self, name: str) -> "Series":
        idx = self.names.index(name)
        out: dict[Expo, Coeff] = {}
        for expo, value in self.nums.items():
            if expo[idx] == 0:
                continue
            new = list(expo)
            new[idx] -= 1
            out[tuple(new)] = value * expo[idx]
        return self._with(self.den, out)

    # -- reindexing ----------------------------------------------------------

    def substitute(self, assignments: Mapping[str, tuple], names, caps: Caps) -> "Series":
        """Map each variable to scalar * monomial-over-new-variables.

        ``assignments[name] = (scalar, {new_name: exponent, ...})`` must cover
        every variable of this series.  The hyperdiagonal is the special case
        of every variable going to the same new variable.
        """
        names = tuple(names)
        missing = [n for n in self.names if n not in assignments]
        if missing:
            raise SeriesError(f"missing assignment for {missing}")
        images = []
        for n in self.names:
            scalar, mono = assignments[n]
            expo = [0] * len(names)
            for target, power in mono.items():
                if target not in names:
                    raise SeriesError(f"unknown target variable {target!r}")
                expo[names.index(target)] += int(power)
            images.append((_as_coeff(scalar, self.mode), tuple(expo)))
        out: dict[Expo, Coeff] = {}
        for expo, value in self.terms.items():
            new_expo = [0] * len(names)
            coeff = value
            for e, (scalar, image) in zip(expo, images):
                if e == 0:
                    continue
                coeff = coeff * scalar ** e
                for i, p in enumerate(image):
                    new_expo[i] += p * e
            key = tuple(new_expo)
            if not caps.admits(key) or coeff == 0:
                continue
            new = out.get(key, 0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
        return Series(names, caps, self.mode, out)

    def evaluate_var(self, name: str, value) -> "Series":
        """Substitute one variable by a scalar, exactly accumulating coefficients."""
        if name not in self.names:
            raise SeriesError(f"unknown variable {name!r}")
        idx = self.names.index(name)
        value = _as_coeff(value, self.mode)
        names = self.names[:idx] + self.names[idx + 1:]
        caps = Caps(self.caps.limits[:idx] + self.caps.limits[idx + 1:])
        out: dict[Expo, Coeff] = {}
        for expo, coeff in self.terms.items():
            key = expo[:idx] + expo[idx + 1:]
            coeff = coeff * value ** expo[idx]
            new = out.get(key, 0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
        return Series(names, caps, self.mode, out)

    def coefficient(self, expo) -> Coeff:
        """Stored coefficient at `expo`; querying outside caps is an error."""
        expo = tuple(int(e) for e in expo)
        if len(expo) != len(self.names):
            raise SeriesError("monomial arity mismatch")
        if not self.caps.admits(expo):
            raise SeriesError(f"monomial {expo} outside caps (unanswerable query)")
        return self._coeff(expo)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form with terms sorted lexicographically."""
        terms = []
        for expo, coeff in sorted(self.terms.items()):
            if self.mode == EXACT:
                terms.append({"e": list(expo), "n": decimal_str(coeff.numerator),
                              "d": decimal_str(coeff.denominator)})
            else:
                terms.append({"e": list(expo), "v": coeff})
        return {"vars": list(self.names), "caps": list(self.caps.limits),
                "mode": self.mode, "terms": terms}

    def dumps(self, indent=None) -> str:
        return json.dumps(self.to_json(), indent=indent)

    @classmethod
    def from_json(cls, doc: dict) -> "Series":
        read_keys(doc, ("vars", "caps", "mode", "terms"), "series document")
        caps = Caps.of(doc["caps"])
        mode = read_choice(doc["mode"], (EXACT, APPROX), "mode")
        terms = {}
        for i, item in enumerate(doc["terms"]):
            read_keys(item, ("e", "n", "d") if mode == EXACT else ("e", "v"), f"terms[{i}]")
            expo = read_list(item["e"], f"terms[{i}].e", _count)
            if mode == EXACT:
                terms[expo] = read_rational(item["n"], f"terms[{i}].n") \
                    / read_rational(item["d"], f"terms[{i}].d")
            else:
                terms[expo] = float(item["v"])
        return cls(read_names(doc["vars"], "vars"), caps, mode, terms)


# -- stock factors -------------------------------------------------------------


def unit_binomial_pow(mono, exponent, names, caps: Caps, mode: str = EXACT,
                      sign=1, scalar=1) -> Series:
    """(1 + sign*scalar*X)^exponent expanded directly by the binomial series."""
    names = tuple(names)
    expo = _factor_monomial(mono, names, "unit binomial needs a nonconstant monomial")
    scalar = _as_coeff(sign * scalar if mode == EXACT else float(sign) * scalar, mode)
    r = _as_coeff(exponent, mode)
    terms: dict[Expo, Coeff] = {(0,) * len(names): _as_coeff(1, mode)}
    binom = _as_coeff(1, mode)
    power = _as_coeff(1, mode)
    for k in range(1, caps.multiples(expo) + 1):
        binom = binom * (r - (k - 1)) / k
        power = power * scalar
        if binom == 0:
            break
        if value := binom * power:
            terms[tuple(e * k for e in expo)] = value
    # the floats are the series; the Fractions, reduced as they are built,
    # go over their lcm in the constructor
    return Series._of(names, caps, mode, 1, terms) if mode == APPROX \
        else Series(names, caps, mode, terms)


def binomial_product(factors: Iterable, names, caps: Caps, mode: str = EXACT,
                     den: int = 1) -> Series:
    """prod of (1 + sign*scalar*X)^(exponent/den) over (X, scalar, exponent, sign) factors.

    A geometric factor 1/(1 - X) is ``(X, 1, -1, -1)``.  Factors with the
    same (X, sign, scalar) merge as they stream in, their exponents added in
    arrival order; a merged exponent of 0, or an X the caps do not admit,
    is dropped.  Exact exponents may be int numerators over one denominator
    `den`: they merge as ints, and `den` is divided out once per kept factor
    on the chain, and once in all on the log route.  The kept factors take
    whichever route `_route_costs` estimates cheaper (approx products
    always take the chain, so they do not depend on the order the factors
    come in):

    - the chain: each factor expanded by `unit_binomial_pow` and multiplied
      in sorted key order, one product per factor.  The running product
      stays on slot keys throughout and is decoded once at the end: floats,
      one `_float_product` per factor, or int numerators over one running
      denominator, one `_exact_product` per factor with the content gcd
      divided out;
    - the log route (exact only): one log series, the sum over the factors
      of exponent * log(1 + s*X) = sum over k >= 1 of
      exponent * (-1)^(k+1) * (s*X)^k / k, and one `exp`, which needs at
      most max_order // (least total degree of the X) products.

    The chain's numerators stay small ints while every exponent is an int
    over `den` 1 and every scalar an int, but the `exp` of the log route
    carries lcm(1..K)^k * k! denominators; the log route wins with many
    factors of fractional exponent, each with few multiples.
    """
    kept = _kept_factors(factors, caps)
    exact = mode == EXACT
    if exact and kept:
        chain, log = _route_costs(kept, caps, den)
        _charge(min(chain, log), caps, "a product of factors", spend=False)
        if log < chain:
            return _log_sum(kept, names, caps, den).exp()
    encode, decode, _, _ = _layout(caps)
    oden, out = 1, {0: 1 if exact else 1.0}  # the constant 1: the zero vector's key is 0
    for (mono, sign, scalar), exponent in kept:
        factor = unit_binomial_pow(mono, exponent if den == 1 else Fraction(exponent, den),
                                   names, caps, mode, sign=sign, scalar=scalar)
        f = {encode(e): c for e, c in factor.nums.items()}
        if exact:
            out, oden = _exact_product(out, f, caps), oden * factor.den
            if (g := math.gcd(oden, *out.values())) != 1:
                oden //= g
                out = {k: v // g for k, v in out.items()}
        else:
            out = _float_product(out, f, caps)
    return Series._of(tuple(names), caps, mode, oden, {decode(k): c for k, c in out.items()})


def _route_costs(kept, caps: Caps, den: int) -> list:
    """[chain, log]: estimated ns of `binomial_product`'s exact routes over the
    kept factors, from their admitted multiples, raced by `_race`.

    Every nonzero cell a product of the factors reaches lies in the box from
    low, the least X_i of the factors in each component i, to the caps.  The
    chain's numerators are taken as one 30-bit digit while it stays integral
    (every exponent an int over `den` 1, every scalar an int), and otherwise
    as twice as wide as the log series'.
    """
    encode, rooms = _layout(caps)[0], _rooms(caps)
    monos = [mono for (mono, _, _), _ in kept]
    counts = list(map(caps.multiples, monos))
    rays = [(m, sum(rooms[step:step * m + 1:step]))  # the rooms of X .. m*X
            for m, step in zip(counts, map(encode, monos))]
    base = max(e.denominator.bit_length() + m * s.denominator.bit_length()
               for ((_, _, s), e), m in zip(kept, counts))
    width = max(abs(e.numerator).bit_length() for _, e in kept) + base + den.bit_length()
    integral = den == 1 and all(e.denominator == 1 == s.denominator for (_, _, s), e in kept)
    low = tuple(map(min, *monos)) if len(monos) > 1 else monos[0]
    wide = width + _bits_of_lcm(max(counts))  # of the log series' numerators
    box = _box(caps, low)
    log = _power_sum_costs(_log_sum_cost(sum(counts), width, max(counts)),
                           min(sum(counts), box[0]), sum(room for _, room in rays), wide,
                           low, min(map(sum, monos)), caps)
    return _race(_chain_costs(rays, box, 30 if integral else 2 * wide, rooms), log)


def _race(*routes) -> list:
    """The estimates of the routes, each an iterator of its running cost,
    advanced the cheapest so far first until that one has ended: its total,
    and for each other route a lower bound above it."""
    costs, ended = [0.0] * len(routes), [False] * len(routes)
    while not ended[i := costs.index(min(costs))]:
        try:
            costs[i] = next(routes[i])
        except StopIteration:
            ended[i] = True
    return costs


def _chain_costs(rays, box: tuple, width: int, rooms: list):
    """Running estimated ns of the chain over factors of (m multiples, their
    rooms) in `rays`: each expanded to m + 1 terms and multiplied into the
    running product, whose terms spread evenly over `box` (cells, rooms) and
    grow to the larger one-sided count of `_pairs`, at most (m + 1)-fold."""
    cost, n, room, cells = 0.0, 1, rooms[0], rooms[0]
    for m, ray in rays:
        ray += cells  # and the factor's constant term
        cost += min(_product_cost(n, m + 1, _pairs(n, m + 1, room, ray, cells), width, width,
                                  len(rooms))) + GCD_NS * n + EXPAND_NS * (m + 1)
        yield cost
        n = min(n * (m + 1), box[0] + 1, round(max(n * ray, (m + 1) * room) / cells))
        room = cells + box[1] * (n - 1) / box[0]


def _log_sum_cost(terms: int, width: int, top: int) -> float:
    """Estimated ns of `_log_sum` over `terms` multiples, at most `top` per
    factor, with exponents `width` bits wide over the common denominator."""
    return _loop_cost(terms, width, _bits_of_lcm(top)) + STEP_NS * terms


def _power_sum_costs(cost: float, terms: int, room: float, width: int, low, least: int,
                     caps: Caps):
    """Running estimated ns, from `cost`, of `Series._power_sum` of `terms`
    terms with rooms summing to `room`, numerators of `width` bits, least
    total degree `least`, and each cell at least `low`: the k-th term fills
    the box from k * low, or the cells of degree k * least or more if fewer,
    up to terms^k cells, with numerators twice as wide as the series'.  The
    box lies among those cells when least is the total of low."""
    rooms = _rooms(caps)
    tails = _degree_tails(caps) if least > sum(low) else None
    n, n_room, n_width = 1, rooms[0], 1
    yield cost
    for k in range(1, caps.max_order() // least + 1):
        cost += min(_product_cost(n, terms, _pairs(n, terms, n_room, room, rooms[0]), n_width,
                                  width, len(rooms))) + STEP_NS * n
        yield cost
        cells, box_rooms = _box(caps, [k * x for x in low])
        if tails and tails[0][k * least] < cells:
            cells, box_rooms = tails[0][k * least], tails[1][k * least]
        n = min(cells, n * terms)
        if not n:
            break
        n_room, n_width = box_rooms * n / cells, 2 * width


def binomial_log(factors: Iterable, names, caps: Caps, den: int = 1) -> Series:
    """log of the exact `binomial_product` of the same factors, with no `exp`.

    The caps window is a down-set, so truncated `exp` and `log` are inverse
    bijections there: this is the log series the log route exponentiates,
    and two such products are equal exactly when their logs are.
    """
    return _log_sum(_kept_factors(factors, caps), names, caps, den)


def _kept_factors(factors: Iterable, caps: Caps) -> list:
    """The factors both builders keep: sorted ((X, sign, scalar), exponent).

    Equal keys merge by adding their exponents in arrival order; a merged
    exponent of 0, or an X the caps do not admit, is dropped.
    """
    grouped: dict = {}
    for mono, scalar, exponent, sign in factors:
        key = (tuple(mono), sign, scalar)
        grouped[key] = grouped.get(key, 0) + exponent
    return [(key, exponent) for key, exponent in sorted(grouped.items())
            if exponent != 0 and caps.admits(key[0])]


def _log_sum(kept, names, caps: Caps, den: int) -> Series:
    """sum of exponent/den * log(1 + sign*scalar*X) over the kept factors
    (see `_kept_factors`: each X admitted), exactly.

    The coefficient at k*X is -exponent/den * (-sign*scalar)^k / k.  A factor
    with n admitted multiples and sign*scalar = p/q has them all over `den`
    times its exponent's denominator times q^n times lcm(1..n), so the sum is
    summed as int numerators over one denominator: lcm(1..K), K the largest
    n, times `den`, times the lcm of the factors' exponent denominators times
    q^n; `Series._of` reduces it once.  The terms are keyed by
    slot (see `_layout`): the key of k*X is k*encode(X) while (k-1)*X is
    admitted, as two admitted keys never carry, so the multiples of an
    admitted X run until the first key that is not `admitted`.
    """
    encode, decode, admitted, _ = _layout(caps)
    runs = []
    for (mono, sign, scalar), exponent in kept:
        keys, key = [], (step := encode(mono))
        while admitted[key]:
            keys.append(key)
            key += step
        runs.append((sign * scalar, exponent, keys))
    top = max((len(keys) for *_, keys in runs), default=0)
    base = math.lcm(*(e.denominator * s.denominator ** len(keys) for s, e, keys in runs))
    _, exps, keys = zip(*runs) if runs else ((), (), ())
    width = max(map(abs, map(operator.attrgetter("numerator"), exps)), default=0).bit_length()
    _charge(_log_sum_cost(sum(map(len, keys)), width + base.bit_length(), top), caps, "a log sum")
    lcm_k = math.lcm(*range(1, top + 1))
    shares = [lcm_k // k for k in range(1, top + 1)]
    acc: dict[int, int] = {}
    get = acc.get
    for s, e, keys in runs:
        p, q = -s.numerator, s.denominator
        # -exponent * p^k * q^(n-k) over base, here at k = 0
        power = -e.numerator * (base // e.denominator)
        for key, share in zip(keys, shares):
            power = power // q * p
            acc[key] = get(key, 0) + power * share
    return Series._of(tuple(names), caps, EXACT, base * lcm_k * den,
                      {decode(key): v for key, v in acc.items() if v})


def _power_coeff(j: int, b: Fraction, mode: str) -> Coeff:
    """1 / j^b as a coefficient: exact for integer b, approx-only otherwise."""
    if b.denominator == 1:
        e = b.numerator
        value = Fraction(1, j ** e) if e >= 0 else Fraction(j ** (-e))
        return value if mode == EXACT else float(value)
    if mode == EXACT:
        raise SeriesError("rational power-sum exponent requires approx mode")
    return float(j) ** float(-b)


def polylog(s, mono, names, caps: Caps, mode: str = EXACT) -> Series:
    """Truncated polylogarithm Li_s(X) = sum over k >= 1 of X^k / k^s.

    The truncated sum is exact for every integer s, s <= 0 included (there
    Li_s(X) is a rational function of X); rational s needs approx mode.
    """
    names = tuple(names)
    expo = _factor_monomial(mono, names, "polylog needs a nonconstant argument")
    s, kmax = Fraction(s), caps.multiples(expo)
    check_power(kmax, s, "polylog s")
    terms: dict[Expo, Coeff] = {}
    for k in range(1, kmax + 1):
        if value := _power_coeff(k, s, mode):
            terms[tuple(e * k for e in expo)] = value
    return Series(names, caps, mode, terms)


def _checked_expo(expo, n: int) -> Expo:
    """An exponent vector of n integers >= 0, as `Series` takes them."""
    expo = tuple(int(e) for e in expo)
    if len(expo) != n:
        raise SeriesError(f"exponent {expo} does not match arity {n}")
    if any(e < 0 for e in expo):
        raise SeriesError(f"negative exponent in {expo}")
    return expo


def _factor_monomial(mono, names, constant_error: str) -> Expo:
    """The X of a stock factor, checked as `Series` checks exponents, and nonconstant."""
    if not any(expo := _checked_expo(mono, len(names))):
        raise SeriesError(constant_error)
    return expo


# -- comparison helpers ---------------------------------------------------------


def max_rel_error(a: Series, b: Series) -> float:
    """max over monomials of |a-b| / max(1, |a|, |b|)."""
    worst = 0.0
    for expo in set(a.terms) | set(b.terms):
        ca = float(a.terms.get(expo, 0))
        cb = float(b.terms.get(expo, 0))
        err = abs(ca - cb) / max(1.0, abs(ca), abs(cb))
        worst = max(worst, err)
    return worst


def first_mismatch(a: Series, b: Series, tolerance: float = 0.0):
    """First (lex) monomial where the two series differ, or None.

    Exact series compare bit-exactly, numerator a over d_a against b over
    d_b as a*d_b against b*d_a, and give the two coefficients as Fractions;
    a nonzero tolerance applies the relative criterion used for approx mode.
    """
    x, y, da, db = a.nums, b.nums, a.den, b.den
    exact = a.mode == EXACT
    if exact and tolerance == 0.0 and da == db and x == y:
        return None
    zero = 0 if exact else 0.0
    for expo in sorted(x.keys() | y.keys()):
        na, nb = x.get(expo, zero), y.get(expo, zero)
        if tolerance == 0.0:
            differ = na * db != nb * da
        else:
            fa, fb = na / da, nb / db
            differ = abs(fa - fb) > tolerance * max(1.0, abs(fa), abs(fb))
        if differ:
            return (expo, Fraction(na, da), Fraction(nb, db)) if exact else (expo, na, nb)
    return None


def to_approx(a: Series) -> Series:
    """Float copy of an exact series (for exact-vs-approx agreement checks)."""
    if a.mode == APPROX:
        return a
    return Series._of(a.names, a.caps, APPROX, 1, {e: float(c) for e, c in a.terms.items()})
