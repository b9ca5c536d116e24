import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vpvlab.catalog import OracleSide, catalog, get_entry, oracle_series
from vpvlab.closedform import build_closed_form
from vpvlab.determinants import diagonal_closed_forms, exact_parts_series
from vpvlab.lattice import ProductSpec, WeightExpr, count_grid, product_series
from vpvlab import lattice, series
from vpvlab.series import (APPROX, Caps, EXACT, Series, SeriesError, _exact_product,
                           _keyed_product, _layout, _packed_product,
                           binomial_log, binomial_product, first_mismatch, max_rel_error,
                           polylog, to_approx, unit_binomial_pow)


def sser(names, caps, mode=EXACT):
    return Series.one(tuple(names), Caps.of(caps), mode)


def geometric_sum(mono, names, caps, mode=EXACT):
    """Reference 1/(1 - X) for a monomial X: sum of X^k, term by term."""
    terms = {}
    k = 0
    while caps.admits(key := tuple(e * k for e in mono)):
        terms[key] = 1
        k += 1
    return Series(names, caps, mode, terms)


class TestConstruction:
    def test_constant_identity_case(self):
        s = Series.from_terms([(((0, 0)), 1)], ("y", "z"), Caps.of([8, 8]))
        assert s == Series.one(("y", "z"), Caps.of([8, 8]))

    def test_cancellation_yields_zero(self):
        s = Series.from_terms([((1, 1), 1), ((1, 1), -1)], ("y", "z"),
                              Caps.of([8, 8]))
        assert s.is_zero()

    def test_over_cap_terms_dropped(self):
        s = Series.from_terms([((9, 0), 5)], ("y", "z"), Caps.of([8, 8]))
        assert s.is_zero()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SeriesError):
            Series.from_terms([((1, 2, 3), 1)], ("y", "z"), Caps.of([8, 8]))

    def test_mode_mixing_rejected(self):
        with pytest.raises(SeriesError):
            Series.from_terms([((1, 0), 0.5)], ("y", "z"), Caps.of([4, 4]))


class TestArithmetic:
    def test_two_term_product(self):
        caps = Caps.of([4, 4])
        y = Series.variable("y", ("y", "z"), caps)
        z = Series.variable("z", ("y", "z"), caps)
        one = Series.one(("y", "z"), caps)
        assert (one + y) * (one + z) == one + y + z + y * z

    def test_inverse_roundtrip(self):
        caps = Caps.of([6])
        z = Series.variable("z", ("z",), caps)
        one = Series.one(("z",), caps)
        assert (one - z) * (one - z).inverse() == one

    def test_binary_chain_telescopes(self):
        # (1+x)(1+x^2)(1+x^4)(1+x^8) at cap 15 is the full geometric sum
        caps = Caps.of([15])
        out = Series.one(("x",), caps)
        for p in (1, 2, 4, 8):
            out = out * unit_binomial_pow((p,), 1, ("x",), caps, sign=1)
        assert out == geometric_sum((1,), ("x",), caps)

    def test_incompatible_series_rejected(self):
        a = Series.one(("y",), Caps.of([3]))
        b = Series.one(("z",), Caps.of([3]))
        with pytest.raises(SeriesError):
            a * b

    def test_division_by_nonunit_rejected(self):
        caps = Caps.of([3])
        z = Series.variable("z", ("z",), caps)
        with pytest.raises(SeriesError):
            z.inverse()

    def test_approx_scale_drops_underflowed_terms(self):
        caps, names = Caps.of((3,)), ("x",)
        tiny = Series(names, caps, APPROX, {(1,): 1e-200})
        assert tiny.scale(1e-200).nums == {} and tiny.scale(1e-200).is_zero()
        assert tiny.scale(1e-200) == Series.zero(names, caps, APPROX)
        both = Series(names, caps, APPROX, {(1,): 1e-200, (2,): 1.0})
        assert list((both * 1e-200).nums.items()) == [((2,), 1e-200)]

    def test_power_sum_stops_at_an_underflowed_term(self, monkeypatch):
        # (1 + 1e-160 x)^(1e-200): the first term, 1e-160 x times the ratio
        # 1e-200, underflows to 0.0, which ends the sum after one product
        caps, names = Caps.of((3,)), ("x",)
        base = Series(names, caps, APPROX, {(0,): 1.0, (1,): 1e-160})
        calls = []
        product = series._keyed_product
        monkeypatch.setattr(series, "_keyed_product",
                            lambda a, b, admitted: calls.append(1) or product(a, b, admitted))
        assert base.pow(1e-200) == Series.one(names, caps, APPROX)
        assert len(calls) == 1


class TestExpLog:
    def test_exp_zero(self):
        caps = Caps.of([5])
        assert Series.zero(("z",), caps).exp() == Series.one(("z",), caps)

    def test_exp_taylor(self):
        caps = Caps.of([4])
        z = Series.variable("z", ("z",), caps)
        e = z.exp()
        assert e.coefficient((2,)) == Fraction(1, 2)
        assert e.coefficient((3,)) == Fraction(1, 6)
        assert e.coefficient((4,)) == Fraction(1, 24)

    def test_exp_of_truncated_totient_log(self):
        # exp(-z-z^2-z^3) at cap 3; frozen from the brute-force product
        # (1-z)(1-z^2)^(1/2)(1-z^3)^(2/3) expanded to the same cap
        caps = Caps.of([3])
        z = Series.variable("z", ("z",), caps)
        got = (-z - z * z - z * z * z).exp()
        brute = Series.one(("z",), caps)
        for k, w in ((1, Fraction(1)), (2, Fraction(1, 2)), (3, Fraction(2, 3))):
            brute = brute * unit_binomial_pow((k,), w, ("z",), caps, sign=-1)
        assert got == brute
        assert got.coefficient((3,)) == Fraction(-1, 6)

    def test_exp_nonzero_constant_rejected(self):
        with pytest.raises(SeriesError):
            Series.one(("z",), Caps.of([3])).exp()

    def test_log_one(self):
        caps = Caps.of([5])
        assert Series.one(("z",), caps).log().is_zero()

    def test_log_mercator(self):
        caps = Caps.of([4])
        z = Series.variable("z", ("z",), caps)
        got = (Series.one(("z",), caps) - z).log()
        assert dict(got.terms) == {(1,): Fraction(-1), (2,): Fraction(-1, 2),
                                   (3,): Fraction(-1, 3), (4,): Fraction(-1, 4)}

    def test_log_quotient(self):
        caps = Caps.of([3, 3])
        names = ("y", "z")
        one = Series.one(names, caps)
        y = Series.variable("y", names, caps)
        z = Series.variable("z", names, caps)
        got = ((one - y * z) * (one - z).inverse()).log()
        assert got.coefficient((0, 1)) == 1
        assert got.coefficient((1, 1)) == -1
        assert got.coefficient((0, 2)) == Fraction(1, 2)
        assert got.coefficient((2, 2)) == Fraction(-1, 2)

    def test_log_requires_unit_constant(self):
        caps = Caps.of([3])
        z = Series.variable("z", ("z",), caps)
        with pytest.raises(SeriesError):
            z.log()


class TestPow:
    def test_integer_power(self):
        caps = Caps.of([4])
        z = Series.variable("z", ("z",), caps)
        one = Series.one(("z",), caps)
        got = (one - z).pow(2)
        assert dict(got.terms) == {(0,): 1, (1,): -2, (2,): 1}

    def test_series_exponent_grid_values(self):
        # (1-z)^(y/(1-y)): the y^1 z^2 cell is binom(w,2)|_(y^1) = -1/2!
        # (the displayed grid rows 1-2 lost their signs; row 3 kept them and
        # matches the direct binomial expansion used here)
        caps = Caps.of([9, 10])
        names = ("y", "z")
        one = Series.one(names, caps)
        y = Series.variable("y", names, caps)
        z = Series.variable("z", names, caps)
        s = (one - z).pow(y * (one - y).inverse())
        assert s.coefficient((1, 2)) == Fraction(-1, 2)
        assert s.coefficient((2, 2)) == 0
        assert s.coefficient((1, 1)) == -1
        # row z^3 of the displayed grid: -2, 1, 3, 4, 4, 3, 1, -2, -6 over 3!
        row3 = [-2, 1, 3, 4, 4, 3, 1, -2, -6]
        for a, num in enumerate(row3, start=1):
            assert s.coefficient((a, 3)) == Fraction(num, 6)
        # and the reciprocal-direction grid keeps its printed signs
        r = (one - z).inverse().pow(y * (one - y).inverse())
        for a in range(1, 10):
            assert r.coefficient((a, 2)) == Fraction(a, 2)

    def test_pow_matches_repeated_multiplication(self):
        caps = Caps.of([5, 5])
        names = ("y", "z")
        one = Series.one(names, caps)
        u = one + Series.variable("y", names, caps) * 2 \
            - Series.variable("z", names, caps) * 3
        direct = one
        for _ in range(3):
            direct = direct * u
        assert u.pow(3) == direct == u.pow(Fraction(3))


class TestDisplayedCoefficientTables:
    """The two 9x8 coefficient tables displayed with the quadrant identities.

    All 144 cells are frozen from the computed expansions; they agree with
    the displayed tables except one typo cell in the minus table at (3,5),
    which prints 42 for the computed 41 (the lattice product adjudicates).
    """

    RECIP = {
        3: [2, 5, 9, 14, 20, 27, 35, 44, 54],
        4: [6, 17, 34, 58, 90, 131, 182, 244, 318],
        5: [24, 74, 159, 289, 475, 729, 1064, 1494, 2034],
        6: [120, 394, 893, 1702, 2921, 4666, 7070, 10284, 14478],
        7: [720, 2484, 5872, 11619, 20635, 34026, 53116, 79470, 114918],
        8: [5040, 18108, 44308, 90409, 165140, 279512, 447168, 684762,
            1012368],
        9: [40320, 149904, 377612, 790728, 1478985, 2559101, 4179861,
            6527781, 9833391],
        10: [362880, 1389456, 3588732, 7684388, 14669429, 25869458,
             43015399, 68326540, 104604811],
    }
    MINUS = {
        3: [-2, 1, 3, 4, 4, 3, 1, -2, -6],
        4: [-6, 5, 10, 10, 6, -1, -10, -20, -30],
        5: [-24, 26, 41, 31, 5, -29, -64, -94, -114],
        6: [-120, 154, 203, 112, -49, -224, -370, -456, -462],
        7: [-720, 1044, 1184, 435, -643, -1644, -2296, -2442, -2022],
        8: [-5040, 8028, 7964, 1537, -6444, -12808, -15728, -14454, -9072],
        9: [-40320, 69264, 60724, 1344, -64041, -108509, -119061, -93141,
            -35631],
        10: [-362880, 663696, 517572, -77572, -667381, -1003552, -990011,
             -637670, -26939],
    }

    def test_tables(self):
        import math
        caps = Caps.of([9, 10])
        names = ("y", "z")
        one = Series.one(names, caps)
        y = Series.variable("y", names, caps)
        z = Series.variable("z", names, caps)
        exponent = y * (one - y).inverse()
        recip = (one - z).inverse().pow(exponent)
        minus = (one - z).pow(exponent)
        for series, table in ((recip, self.RECIP), (minus, self.MINUS)):
            for b, row in table.items():
                fact = math.factorial(b)
                for a, num in enumerate(row, start=1):
                    assert series.coefficient((a, b)) * fact == num, (a, b)


class TestPolylog:
    def test_li1(self):
        caps = Caps.of([4])
        got = polylog(1, (1,), ("z",), caps)
        assert dict(got.terms) == {(1,): 1, (2,): Fraction(1, 2),
                                   (3,): Fraction(1, 3), (4,): Fraction(1, 4)}

    # Eulerian numbers: Li_{-n}(X) = X * A_n(X) / (1 - X)^(n + 1)
    EULERIAN = {0: [1], 1: [1], 2: [1, 1], 3: [1, 4, 1], 4: [1, 11, 11, 1],
                5: [1, 26, 66, 26, 1], 6: [1, 57, 302, 302, 57, 1]}

    def test_negative_orders_match_closed_forms(self):
        cases = [((1,), Caps.of([8])), ((1, 2), Caps.of([5, 9])),
                 ((1, 1, 1), Caps.of([4, 4, 4])), ((0, 2), Caps.of([3, 11]))]
        for mono, caps in cases:
            names = tuple("xyz"[-len(mono):])
            one = Series.one(names, caps)
            x = Series.monomial(mono, names, caps)
            inv = (one - x).inverse()
            for s in range(0, -7, -1):
                closed = polylog(s, mono, names, caps)
                direct = {}
                k = 1
                while caps.admits(key := tuple(e * k for e in mono)):
                    direct[key] = Fraction(k ** (-s))
                    k += 1
                assert closed == Series(names, caps, EXACT, direct), (mono, s)
                numer = Series(names, caps, EXACT,
                               {tuple(e * i for e in mono): a
                                for i, a in enumerate(self.EULERIAN[-s])})
                assert closed == x * numer * inv.pow(1 - s), (mono, s)
                approx = polylog(s, mono, names, caps, APPROX)
                assert approx.terms == \
                    {e: float(c) for e, c in closed.terms.items()}, (mono, s)

    def test_li_minus3_structure(self):
        # z(1+4z+z^2)/(1-z)^4
        caps = Caps.of([6])
        names = ("z",)
        z = Series.variable("z", names, caps)
        one = Series.one(names, caps)
        expected = z * (one + z.scale(4) + z * z) * (one - z).inverse().pow(4)
        assert polylog(-3, (1,), names, caps) == expected

    def test_rational_order_needs_approx(self):
        caps = Caps.of([4])
        with pytest.raises(SeriesError):
            polylog(Fraction(1, 2), (1,), ("z",), caps, EXACT)
        got = polylog(Fraction(1, 2), (1,), ("z",), caps, APPROX)
        assert got.coefficient((2,)) == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_derivative_recurrence(self):
        caps = Caps.of([7])
        names = ("z",)
        z = Series.variable("z", names, caps)
        for s in range(-3, 5):
            lhs = polylog(s - 1, (1,), names, caps)
            rhs = z * polylog(s, (1,), names, caps).derivative("z")
            assert lhs == rhs, s


class TestSubstitution:
    def test_diagonal(self):
        caps = Caps.of([4, 4])
        names = ("y", "z")
        s = Series.from_terms([((0, 0), 1), ((1, 1), 1)], names, caps)
        got = s.substitute({"y": (1, {"z": 1}), "z": (1, {"z": 1})}, ("z",),
                           Caps.of([4]))
        assert dict(got.terms) == {(0,): 1, (2,): 1}

    def test_scalar_substitution(self):
        caps = Caps.of([3, 3])
        names = ("y", "z")
        s = Series.from_terms([((2, 1), 3)], names, caps)
        got = s.substitute({"y": (Fraction(1, 2), {}), "z": (1, {"z": 1})},
                           ("z",), Caps.of([3]))
        assert got.coefficient((1,)) == Fraction(3, 4)

    def test_missing_assignment_rejected(self):
        caps = Caps.of([2, 2])
        s = Series.one(("y", "z"), caps)
        with pytest.raises(SeriesError):
            s.substitute({"y": (1, {"z": 1})}, ("z",), Caps.of([2]))

    def test_evaluate_var(self):
        caps = Caps.of([3, 3])
        names = ("y", "z")
        one = Series.one(names, caps)
        s = one + Series.from_terms([((1, 1), 1)], names, caps)
        got = s.evaluate_var("y", 1)
        assert got.names == ("z",)
        assert got.coefficient((1,)) == 1

    def test_evaluate_unknown_var(self):
        with pytest.raises(SeriesError):
            Series.one(("z",), Caps.of([2])).evaluate_var("q", 1)


class TestCoefficientQueries:
    def test_simple(self):
        caps = Caps.of([3, 3])
        s = Series.from_terms([((0, 0), 1), ((1, 1), 2)], ("y", "z"), caps)
        assert s.coefficient((1, 1)) == 2
        assert s.coefficient((2, 2)) == 0

    def test_outside_caps_is_error(self):
        caps = Caps.of([3, 3])
        s = Series.one(("y", "z"), caps)
        with pytest.raises(SeriesError):
            s.coefficient((4, 0))


class TestSerialization:
    def test_canonical_roundtrip(self):
        caps = Caps.of([4, 4])
        s = Series.from_terms([((0, 0), 1), ((2, 3), Fraction(5, 6)),
                               ((1, 0), -2)], ("y", "z"), caps)
        doc = s.to_json()
        assert doc["mode"] == "exact"
        assert [t["e"] for t in doc["terms"]] == sorted(t["e"] for t in doc["terms"])
        assert {"e": [2, 3], "n": "5", "d": "6"} in doc["terms"]
        assert Series.from_json(json.loads(s.dumps())) == s

    def test_approx_roundtrip(self):
        caps = Caps.of([3])
        s = Series(("z",), caps, APPROX, {(1,): 0.5, (2,): 2 ** -0.5})
        assert Series.from_json(s.to_json()) == s

    @pytest.mark.parametrize("field, value", [
        ("e", [1.5]), ("e", [True]), ("e", [-1]), ("n", 1.0), ("n", True), ("d", "x"),
        ("mode", "bogus"), ("vars", ["z", "z"]), ("vars", "z")])
    def test_leaves_are_read_by_the_readers(self, field, value):
        # an exponent 1.5 read as 1, or true read as 1, would change the series
        doc = {"vars": ["z"], "caps": [3], "mode": "exact",
               "terms": [{"e": [1], "n": "2", "d": "1"}]}
        if field in ("e", "n", "d"):
            doc["terms"][0][field] = value
        else:
            doc[field] = value
        with pytest.raises(SeriesError):
            Series.from_json(doc)

    @pytest.mark.parametrize("where, key, obj", [
        ("doc", "total", "series document"), ("doc", "total_cap", "series document"),
        ("term", "v", "terms[0]"), ("term", "x", "terms[0]")])
    def test_unknown_keys_are_refused(self, where, key, obj):
        # the caps window is a box: a total cap, spelt either way, would
        # otherwise be dropped without a word; so would an exact term's float
        doc = {"vars": ["z"], "caps": [3], "mode": "exact",
               "terms": [{"e": [1], "n": "2", "d": "1"}]}
        assert Series.from_json(doc).caps == Caps.of([3])
        (doc if where == "doc" else doc["terms"][0])[key] = 1
        with pytest.raises(SeriesError, match=f"unknown key {key!r} in {re.escape(obj)}"):
            Series.from_json(doc)


class TestModeAgreement:
    def test_exact_vs_approx_on_shared_identity(self):
        # the 13.02 closed form evaluated in both modes agrees to 1e-12
        caps = Caps.of([6, 6])
        names = ("y", "z")

        def build(mode):
            one = Series.one(names, caps, mode)
            y = Series.variable("y", names, caps, mode)
            z = Series.variable("z", names, caps, mode)
            return (one - z).inverse().pow(y * (one - y).inverse())

        exact = build(EXACT)
        approx = build(APPROX)
        assert max_rel_error(to_approx(exact), approx) <= 1e-12

    def test_first_mismatch_reports_lex_first(self):
        caps = Caps.of([3, 3])
        a = Series.from_terms([((1, 0), 1), ((2, 0), 5)], ("y", "z"), caps)
        b = Series.from_terms([((1, 0), 1), ((2, 0), 7)], ("y", "z"), caps)
        expo, ca, cb = first_mismatch(a, b)
        assert expo == (2, 0) and ca == 5 and cb == 7


def naive_mul(a, b):
    """Reference exact product: every pair of terms, kept if the caps admit it."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            if a.caps.admits(expo):
                out[expo] = out.get(expo, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


NUMERATORS = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)
DENOMINATORS = st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 2 ** 40 + 1])


@st.composite
def caps_and_names(draw):
    arity = draw(st.integers(1, 5))
    limits = tuple(draw(st.integers(0, 6)) for _ in range(arity))
    return Caps.of(limits), tuple("vwxyz"[:arity])


@st.composite
def operand_pairs(draw):
    caps, names = draw(caps_and_names())
    expo = st.tuples(*(st.integers(0, c) for c in caps.limits))
    coeff = st.builds(Fraction, NUMERATORS, DENOMINATORS)
    terms = st.dictionaries(expo, coeff, max_size=draw(st.sampled_from([0, 1, 8])))
    return (Series(names, caps, EXACT, draw(terms)),
            Series(names, caps, EXACT, draw(terms)))


class TestPackedProduct:
    """The exact product against the term-by-term reference."""

    @settings(max_examples=150, deadline=None)
    @given(pair=operand_pairs())
    def test_matches_reference(self, pair):
        a, b = pair
        product = a * b
        assert product.terms == naive_mul(a, b)
        assert all(type(c) is Fraction for c in product.terms.values())
        assert (b * a).terms == product.terms

    @settings(max_examples=60, deadline=None)
    @given(shape=caps_and_names(), data=st.data())
    def test_cancelling_product(self, shape, data):
        # (1 - X) times r * sum of X^k cancels in every cell but the constant
        caps, names = shape
        mono = data.draw(st.tuples(*(st.integers(0, c) for c in caps.limits))
                         .filter(any))
        r = data.draw(st.builds(Fraction, NUMERATORS.filter(bool), DENOMINATORS))
        a = unit_binomial_pow(mono, 1, names, caps, EXACT, sign=-1)
        b = geometric_sum(mono, names, caps).scale(r)
        assert (a * b).terms == naive_mul(a, b) == {(0,) * len(names): r}

    def test_truncated_to_zero(self):
        caps = Caps.of([3, 2])
        x = Series.monomial((3, 0), ("y", "z"), caps, coeff=Fraction(-5, 3))
        y = Series.monomial((1, 1), ("y", "z"), caps, coeff=7)
        assert (x * y).is_zero()
        assert (x * Series.zero(("y", "z"), caps)).is_zero()


def route_products(a, b):
    """`a * b` through `_exact_product` and, for nonempty operands, through
    each of its routes called directly: int numerators over da * db on slot
    keys, in both operand orders."""
    encode, decode, admitted, _ = _layout(a.caps)
    da, na = a.den, {encode(e): v for e, v in a.nums.items()}
    db, nb = b.den, {encode(e): v for e, v in b.nums.items()}
    routes = [(_exact_product, a.caps)] + ([(_keyed_product, admitted),
                                            (_packed_product, a.caps)] if na and nb else [])
    for route, arg in routes:
        for x, y in ((na, nb), (nb, na)):
            out = route(x, y, arg)
            assert all(type(v) is int and v for v in out.values())
            yield {decode(k): Fraction(v, da * db) for k, v in out.items()}


class TestExactProductRoutes:
    """The term loop and the packing of the exact product, each called
    directly, against the term-by-term reference."""

    @settings(max_examples=100, deadline=None)
    @given(pair=operand_pairs())
    def test_matches_reference(self, pair):
        a, b = pair
        reference = naive_mul(a, b)
        for product in route_products(a, b):
            assert product == reference

    @settings(max_examples=40, deadline=None)
    @given(shape=caps_and_names(), data=st.data())
    def test_cancelling_product(self, shape, data):
        caps, names = shape
        mono = data.draw(st.tuples(*(st.integers(0, c) for c in caps.limits))
                         .filter(any))
        r = data.draw(st.builds(Fraction, NUMERATORS.filter(bool), DENOMINATORS))
        a = unit_binomial_pow(mono, 1, names, caps, EXACT, sign=-1)
        b = geometric_sum(mono, names, caps).scale(r)
        for product in route_products(a, b):
            assert product == {(0,) * len(names): r}

    def test_wide_numerators_and_truncation(self):
        caps = Caps.of([3, 2])
        names = ("y", "z")
        a = Series(names, caps, EXACT, {(0, 0): 2 ** 70 + 1, (1, 1): -(2 ** 70),
                                        (3, 0): Fraction(-5, 3)})
        b = Series(names, caps, EXACT, {(0, 1): Fraction(2 ** 69, 7), (1, 1): 3,
                                        (2, 1): -1})
        for product in route_products(a, b):
            assert product == naive_mul(a, b)
        assert _exact_product({}, {(0, 0): 1}, caps) == {} == \
            _exact_product({(1, 0): 1}, {}, caps)

    def test_route_rule(self, monkeypatch):
        # each product takes the route `_product_cost` estimates cheaper: few
        # pairs per term the term loop, two dense operands at (12, 12) the packing
        taken = []
        for name in ("_keyed_product", "_packed_product"):
            def spy(a, b, arg, route=getattr(series, name), name=name):
                taken.append(name)
                return route(a, b, arg)
            monkeypatch.setattr(series, name, spy)
        caps = Caps.of([1, 1])
        names = ("y", "z")
        three = Series(names, caps, EXACT, {(0, 0): 1, (1, 0): -2, (0, 1): Fraction(1, 3)})
        four = three + Series.monomial((1, 1), names, caps, coeff=5)
        assert (three * three).terms == naive_mul(three, three)
        assert (four * three).terms == naive_mul(four, three)
        box = Caps.of([12, 12])
        dense = Series(names, box, EXACT, {(i, j): Fraction(i - 2 * j, j + 1)
                                           for i in range(13) for j in range(13)})
        assert (dense * dense).terms == naive_mul(dense, dense)
        assert taken == ["_keyed_product", "_keyed_product", "_packed_product"]
        rooms = series._rooms(box)
        keys = [_layout(box)[0](e) for e in dense.nums]
        room = sum(rooms[k] for k in keys)
        width = max(abs(v) for v in dense.nums.values()).bit_length()
        loop, packed = series._product_cost(169, 169, series._pairs(169, 169, room, room, rooms[0]),
                                            width, width, len(rooms))
        assert packed < loop


@st.composite
def windows(draw):
    """A box window of 0 to 5 variables, and its names."""
    arity = draw(st.integers(0, 5))
    limits = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    return Caps.of(limits), tuple("vwxyz"[:arity])


class TestSlotKeys:
    """The one exponent key of the kernels: a cell's slot in `_layout`."""

    @settings(max_examples=60, deadline=None)
    @given(shape=windows())
    def test_keys_of_the_doubled_box(self, shape):
        caps, _ = shape
        encode, decode, admitted, rows = _layout(caps)
        assert len(admitted) == math.prod(2 * c + 1 for c in caps.limits)
        for expo in itertools.product(*(range(2 * c + 1) for c in caps.limits)):
            key = encode(expo)
            assert admitted[key] == caps.admits(expo)
            if caps.admits(expo):
                assert decode(key) == expo
        # the rows hold every admitted key once
        assert sorted(k for row in rows for k in row) \
            == [k for k, flag in enumerate(admitted) if flag]

    @settings(max_examples=60, deadline=None)
    @given(shape=windows(), data=st.data())
    def test_log_sum_multiples_stop_at_the_caps(self, shape, data):
        # log(1 - X) = -sum of X^k / k over the k the caps admit, and no further
        caps, names = shape
        assume(names)  # a window of no variables has no nonconstant X
        mono = data.draw(st.tuples(*(st.integers(0, c + 1) for c in caps.limits)).filter(any))
        expected = {tuple(e * k for e in mono): Fraction(-1, k)
                    for k in range(1, (caps.multiples(mono) if caps.admits(mono) else 0) + 1)}
        assert binomial_log([(mono, 1, 1, -1)], names, caps).terms == expected

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_zero_variable_series(self, mode):
        caps = Caps.of([])
        three, two = Series.constant(3, (), caps, mode), Series.constant(2, (), caps, mode)
        assert _layout(caps)[2] == bytearray(b"\x01")
        assert (three * two).terms == {(): 6}
        assert (three * Series.zero((), caps, mode)).is_zero()
        assert three.inverse().terms == {(): Fraction(1, 3) if mode == EXACT else 1 / 3}
        assert Series.zero((), caps, mode).exp() == Series.one((), caps, mode)
        assert binomial_product([], (), caps, mode) == Series.one((), caps, mode)


def tuple_keyed_mul(a, b):
    """Reference approx product: the term loop on exponent tuples, the smaller
    operand outside, a sum that cancels to 0 popped."""
    x, y = a.terms, b.terms
    if len(x) > len(y):
        x, y = y, x
    out = {}
    for ea, ca in x.items():
        for eb, cb in y.items():
            expo = tuple(p + q for p, q in zip(ea, eb))
            if not a.caps.admits(expo):
                continue
            new = out.get(expo, 0) + ca * cb
            if new == 0:
                out.pop(expo, None)
            else:
                out[expo] = new
    return out


# mixed sign and magnitude; the small integral values make sums cancel to 0
FLOATS = (st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -3.0])
          | st.floats(-1e100, 1e100, allow_nan=False)
          | st.floats(-1e-100, 1e-100, allow_nan=False))


@st.composite
def approx_operand_pairs(draw):
    caps, names = draw(caps_and_names())
    expo = st.tuples(*(st.integers(0, c) for c in caps.limits))
    terms = st.dictionaries(expo, FLOATS, max_size=draw(st.sampled_from([0, 1, 8, 20])))
    return (Series(names, caps, APPROX, draw(terms)),
            Series(names, caps, APPROX, draw(terms)))


class TestKeyedProduct:
    """The approx product against the tuple-keyed term loop, in dict order."""

    @settings(max_examples=300, deadline=None)
    @given(pair=approx_operand_pairs())
    def test_matches_reference(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a), (a, a)):
            product = x * y
            assert list(product.terms.items()) == list(tuple_keyed_mul(x, y).items())
            assert all(type(c) is float for c in product.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(shape=caps_and_names(), data=st.data())
    def test_cancelling_product(self, shape, data):
        # (1 - X) times r * sum of X^k cancels to 0.0 in every cell but the constant
        caps, names = shape
        mono = data.draw(st.tuples(*(st.integers(0, c) for c in caps.limits))
                         .filter(any))
        r = data.draw(st.sampled_from([1.0, -2.0, 0.5, 3.0]))
        a = unit_binomial_pow(mono, 1, names, caps, APPROX, sign=-1)
        b = geometric_sum(mono, names, caps, APPROX).scale(r)
        assert (a * b).terms == tuple_keyed_mul(a, b) == {(0,) * len(names): r}

    def test_empty_and_truncated_operands(self):
        caps = Caps.of([3, 2])
        x = Series.monomial((3, 0), ("y", "z"), caps, APPROX, coeff=-1.5)
        y = Series.monomial((1, 1), ("y", "z"), caps, APPROX, coeff=7.0)
        zero = Series.zero(("y", "z"), caps, APPROX)
        assert (x * y).is_zero() and (x * zero).is_zero() and (zero * zero).is_zero()
        assert (x * Series.one(("y", "z"), caps, APPROX)).terms == {(3, 0): -1.5}

    def test_field_top_bits(self):
        # a cap of 2^k - 1 or 2^k puts the sum of two exponents at a field's
        # limit: every cell of the box and none past it
        for limits in ((1, 3, 4), (7, 8), (0, 15, 16), (4,)):
            caps = Caps.of(limits)
            names = "abcde"[:len(limits)]
            box = {e: 1.0 for e in itertools.product(*(range(c + 1) for c in limits))}
            full = Series(names, caps, APPROX, box)
            assert list((full * full).terms.items()) == \
                list(tuple_keyed_mul(full, full).items())

    def test_chain_accumulator_changes_sides(self):
        # the running product is outside while it is shorter than the factor
        # (3 against 3 terms is a tie, which keeps it outside), then inside
        caps = Caps.of([7, 2])
        names = ("x", "y")
        # in sorted order, the order the builder multiplies them in
        factors = [((0, 1), 1.5, 0.5, 1), ((1, 0), 1.0, 2.0, 1),
                   ((2, 0), 0.3, 2.0, -1), ((3, 1), 1.0, -0.5, -1)]
        out = Series.one(names, caps, APPROX)
        sides = []
        for mono, scalar, exponent, sign in factors:
            factor = unit_binomial_pow(mono, exponent, names, caps, APPROX,
                                       sign=sign, scalar=scalar)
            sides.append((len(out.terms), len(factor.terms)))
            out = Series(names, caps, APPROX, tuple_keyed_mul(out, factor))
        assert sides[0][0] < sides[0][1] and sides[1][0] == sides[1][1]
        assert sides[2][0] > sides[2][1] and sides[3][0] > sides[3][1]
        product = binomial_product(factors, names, caps, APPROX)
        assert list(product.terms.items()) == list(out.terms.items())


def every_pair_product(a, b, admitted):
    """Reference `_keyed_product`: every pair of terms visited, the smaller
    operand outside (the first on a tie), a sum that cancels to 0 popped."""
    if len(a) > len(b):
        a, b = b, a
    inner = list(b.items())
    out = {}
    get, pop = out.get, out.pop
    for ka, ca in a.items():
        for kb, cb in inner:
            k = ka + kb
            if not admitted[k]:
                continue
            new = get(k, 0) + ca * cb
            if new == 0:
                pop(k, None)
            else:
                out[k] = new
    return out


def bits(terms):
    """A dict's items in order, each float by `float.hex` and NaN as NaN."""
    return [(k, type(v), "nan" if v != v else v.hex() if type(v) is float else v)
            for k, v in terms.items()]


# values whose sums cancel, signed zeros, NaN, infinities and subnormals
EDGE_FLOATS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 0.0, -0.0, math.nan,
                               math.inf, -math.inf, 5e-324, -5e-324, 2.0 ** -1030])
EDGE_INTS = st.sampled_from([1, -1, 2, -2, 0, 3])


@st.composite
def keyed_operands(draw):
    """Two key -> coefficient dicts on the admitted keys of a box window,
    all floats or all ints: of equal size half the time, and each led by
    the unit term at key 0 half the time."""
    caps, _ = draw(windows())
    admitted = _layout(caps)[2]
    keys = [k for k, flag in enumerate(admitted) if flag]
    floats = draw(st.booleans())
    coeff = EDGE_FLOATS | st.floats() if floats else EDGE_INTS | st.integers(-2 ** 70, 2 ** 70)
    sizes = draw(st.tuples(st.integers(0, 7), st.integers(0, 7))
                 .map(lambda s: s if s[1] % 2 else (s[0], s[0])))
    operands = []
    for n in sizes:
        n = min(n, len(keys))
        chosen = draw(st.lists(st.sampled_from(keys), min_size=n, max_size=n, unique=True))
        lead = {}
        if chosen and draw(st.booleans()):
            chosen.remove(0) if 0 in chosen else chosen.pop()
            lead = {0: 1.0 if floats else 1}
        operands.append({**lead, **{k: draw(coeff) for k in chosen}})
    return (*operands, admitted)


class TestKeyedProductKernel:
    """`_keyed_product` called directly, against the every-pair loop in dict order."""

    @settings(max_examples=500, deadline=None)
    @given(case=keyed_operands())
    def test_matches_every_pair_loop(self, case):
        a, b, admitted = case
        for x, y in ((a, b), (b, a), (a, a)):
            assert bits(_keyed_product(x, y, admitted)) == \
                bits(every_pair_product(x, y, admitted))

    def test_cell_popped_and_inserted_again(self):
        # caps (3,): x^2 cancels at the second outer term and comes back at
        # the third, now behind the constant; the leading 1 is copied
        admitted = _layout(Caps.of((3,)))[2]
        a = {0: 1, 1: 1, 2: 1}
        b = {1: 1, 2: -1, 0: 5}
        expected = [(1, 6), (0, 5), (2, 5)]
        assert list(every_pair_product(a, b, admitted).items()) == expected
        assert list(_keyed_product(a, b, admitted).items()) == expected

    def test_pairs_outside_the_caps_are_skipped(self):
        # 1 + z + z^2 + z^3 times the 25 cells of caps (4, 4): the 1 is
        # copied, and each power of z scans only the cells that the one below
        # it kept (25, 20, 15), after one check that it lies above
        caps = Caps.of((4, 4))
        encode, _, admitted, _ = _layout(caps)
        cells = {encode(e): 1.0 for e in itertools.product(range(5), repeat=2)}
        powers = {encode((0, k)): 1.0 for k in range(4)}
        looked_up = []

        class Counted(bytearray):
            def __getitem__(self, k):
                looked_up.append(k)
                return bytearray.__getitem__(self, k)

        assert bits(_keyed_product(powers, cells, Counted(admitted))) == \
            bits(every_pair_product(powers, cells, admitted))
        assert len(looked_up) == 3 + 25 + 20 + 15 < len(powers) * len(cells)


def binomial_chain(factors, names, caps, mode):
    """Reference product: one `unit_binomial_pow` per factor, in arrival order."""
    out = Series.one(names, caps, mode)
    for mono, scalar, exponent, sign in factors:
        out = out * unit_binomial_pow(mono, exponent, names, caps, mode,
                                      sign=sign, scalar=scalar)
    return out


def sorted_chain(factors, names, caps):
    """Reference approx product: exponents merged in arrival order, factors
    multiplied in sorted (monomial, sign, scalar) order by `tuple_keyed_mul`."""
    merged = {}
    for mono, scalar, exponent, sign in factors:
        key = (tuple(mono), sign, scalar)
        merged[key] = merged.get(key, 0) + exponent
    out = Series.one(names, caps, APPROX)
    for (mono, sign, scalar), exponent in sorted(merged.items()):
        if exponent != 0:
            factor = unit_binomial_pow(mono, exponent, names, caps, APPROX,
                                       sign=sign, scalar=scalar)
            out = Series(names, caps, APPROX, tuple_keyed_mul(out, factor))
    return out


EXPONENTS = st.integers(-3, 3) | st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)])


@st.composite
def factor_lists(draw, mode=EXACT):
    """Caps, names and factors drawn from a small pool of monomials, so that
    monomials repeat, some exponents cancel and some monomials exceed the caps."""
    arity = draw(st.integers(1, 3))
    caps = Caps.of(tuple(draw(st.integers(0, 4)) for _ in range(arity)))
    names = tuple("xyz"[:arity])
    mono = st.tuples(*(st.integers(0, c + 1) for c in caps.limits)).filter(any)
    pool = draw(st.lists(mono, min_size=1, max_size=3))
    scalar = st.sampled_from([1, 2, Fraction(1, 2), Fraction(-3, 2)])
    exponent = EXPONENTS if mode == EXACT else EXPONENTS.map(float)
    factors = draw(st.lists(
        st.tuples(st.sampled_from(pool), scalar, exponent, st.sampled_from([1, -1])),
        max_size=6))
    # a pair that cancels to exponent 0, and a geometric factor 1/(1 - X)
    if draw(st.booleans()):
        mono0, scalar0, e0, sign0 = draw(st.sampled_from(factors or [(pool[0], 1, 2, 1)]))
        factors += [(mono0, scalar0, e0, sign0), (mono0, scalar0, -e0, sign0)]
    if draw(st.booleans()):
        factors.append((pool[0], 1, -1 if mode == EXACT else -1.0, -1))
    return caps, names, draw(st.permutations(factors))


class TestBinomialProduct:
    """The product builder against a factor-by-factor chain."""

    @settings(max_examples=120, deadline=None)
    @given(case=factor_lists())
    def test_exact_matches_chain(self, case):
        caps, names, factors = case
        product = binomial_product(iter(factors), names, caps)
        assert product == binomial_chain(factors, names, caps, EXACT)
        assert binomial_product(reversed(factors), names, caps) == product

    @settings(max_examples=120, deadline=None)
    @given(case=factor_lists(mode=APPROX))
    def test_approx_is_the_sorted_chain(self, case):
        caps, names, factors = case
        product = binomial_product(iter(factors), names, caps, APPROX)
        assert list(product.terms.items()) == \
            list(sorted_chain(factors, names, caps).terms.items())
        chain = binomial_chain(factors, names, caps, APPROX)
        assert max_rel_error(product, chain) < 1e-9

    def test_geometric_factor_and_cancelling_exponents(self):
        caps = Caps.of([4, 3])
        names = ("y", "z")
        assert binomial_product([((1, 2), 1, -1, -1)], names, caps) == \
            geometric_sum((1, 2), names, caps)
        factors = [((1, 0), 1, Fraction(1, 3), 1), ((0, 1), 2, 3, -1),
                   ((1, 0), 1, Fraction(-1, 3), 1), ((0, 1), 2, -3, -1)]
        assert binomial_product(factors, names, caps) == Series.one(names, caps)

    @staticmethod
    def count_products(monkeypatch):
        """Count exact kernel products from here on: the chain's, one per
        factor, and those of the log route's `exp`."""
        count = [0]
        exact_product = series._exact_product

        def counting(a, b, caps):
            count[0] += 1
            return exact_product(a, b, caps)
        monkeypatch.setattr(series, "_exact_product", counting)
        return count

    def test_many_low_degree_factors_take_the_log_route(self, monkeypatch):
        # 13.26-shaped: every monomial of degree 1..4 under the caps, with
        # exponent 1/degree, so one exp is estimated cheaper than a product
        # per factor
        caps = Caps.of([2, 2, 2, 3])
        names = ("w", "x", "y", "z")
        monos = [m for m in itertools.product(*(range(c + 1) for c in caps.limits))
                 if 1 <= sum(m) <= 4]
        factors = [(m, 1, Fraction(1, sum(m)), -1) for m in monos]
        factors += [((1, 0, 0, 1), 2, Fraction(-1, 3), 1)]
        assert len(factors) >= 50
        chain, log = series._route_costs(series._kept_factors(factors, caps), caps, 1)
        assert log < chain
        reference = binomial_chain(factors, names, caps, EXACT)
        count = self.count_products(monkeypatch)
        product = binomial_product(factors, names, caps)
        assert product == reference
        assert 0 < count[0] <= caps.max_order() // min(map(sum, monos)) < len(factors)

    def test_few_factors_at_high_order_take_the_chain(self, monkeypatch):
        # 11.08-shaped: 1/(1 - x^(2^j)) for j < 7 at caps (64,), integral, so
        # the chain is estimated cheaper than an exp of 64 products
        caps = Caps.of([64])
        names = ("x",)
        factors = [((2 ** j,), 1, -1, -1) for j in range(7)]
        chain, log = series._route_costs(series._kept_factors(factors, caps), caps, 1)
        assert chain < log
        reference = binomial_chain(factors, names, caps, EXACT)
        count = self.count_products(monkeypatch)
        product = binomial_product(factors, names, caps)
        assert product == reference
        assert count[0] == len(factors)

    @staticmethod
    def routes_taken(monkeypatch, build):
        """(kept factors, exact products, log sums) of each `binomial_product`
        that `build()` runs."""
        calls = []
        kept_factors, exact_product, log_sum = \
            series._kept_factors, series._exact_product, series._log_sum

        def kept(factors, caps):
            out = kept_factors(factors, caps)
            calls.append([len(out), 0, 0])
            return out

        def product(a, b, caps):
            calls[-1][1] += 1
            return exact_product(a, b, caps)

        def logs(*args):
            calls[-1][2] += 1
            return log_sum(*args)
        monkeypatch.setattr(series, "_kept_factors", kept)
        monkeypatch.setattr(series, "_exact_product", product)
        monkeypatch.setattr(series, "_log_sum", logs)
        build()
        return calls

    @pytest.mark.parametrize("caps", [(12, 12), (16, 16), (24, 24)])
    @pytest.mark.parametrize("entry", ["7.24", "7.25a", "12.04"])
    def test_integral_binary_products_take_the_chain(self, monkeypatch, entry, caps):
        # integer exponents and scalars: one product per kept factor, no log sum
        e = get_entry(entry)
        window = Caps.of(caps)
        for build in (e.build_lhs, e.build_rhs):
            calls = self.routes_taken(monkeypatch, lambda: build(window))
            assert calls and all(products == kept and logs == 0
                                 for kept, products, logs in calls), calls

    @pytest.mark.parametrize("entry", ["13.26", "16.57c"])
    def test_fractional_products_take_the_log_route(self, monkeypatch, entry):
        # many factors of fractional exponent (13.26 at its caps), and the
        # one-variable fractional product 16.57c at (10,): one log sum each
        e = get_entry(entry)
        calls = self.routes_taken(monkeypatch, lambda: e.build_lhs(Caps.of(e.caps)))
        assert calls and all(logs == 1 for _, _, logs in calls), calls

    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_grids_still_pack(self, monkeypatch, k):
        # spade2 (k = 2) and club2 (k = 3) at (30, 30): dense by dense products
        packed = []
        packed_product = series._packed_product

        def spy(a, b, caps):
            packed.append(len(a) * len(b))
            return packed_product(a, b, caps)
        monkeypatch.setattr(series, "_packed_product", spy)
        out = exact_parts_series(k, 2, Caps.of((30, 30)), ("y", "z"))
        assert packed and max(packed) == 961 * 961
        assert out.coefficient((30, 30)) == diagonal_closed_forms(30)[k - 2]

    def test_same_monomial_with_other_sign_or_scalar_stays_apart(self):
        caps = Caps.of([6])
        names = ("x",)
        x = Series.variable("x", names, caps)
        one = Series.one(names, caps)
        out = binomial_product([((1,), 1, 1, 1), ((1,), 1, 1, -1), ((1,), 3, 1, 1)],
                               names, caps)
        assert out == (one + x) * (one - x) * (one + x.scale(3))


class TestWorkBudget:
    """Inside `work_budget`, the route whose estimate takes the block's work
    past `WORK_BUDGET` is refused before it runs; outside, nothing is."""

    def test_refused_inside_a_block_only(self, monkeypatch):
        caps = Caps.of([12, 12])
        names = ("y", "z")
        dense = Series(names, caps, EXACT, {(i, j): i + j + 1 for i in range(13) for j in range(13)})
        expected = naive_mul(dense, dense)
        monkeypatch.setattr(series, "WORK_BUDGET", 10 ** 5)  # 0.1 ms
        assert (dense * dense).terms == expected
        with series.work_budget():
            with pytest.raises(SeriesError, match=r"an exact product at caps \[12, 12\] needs "
                                                  r"an estimated 0 s of work, taking the run to 0 s, over the budget"):
                dense * dense
            assert series._spent == [0]
        assert series._spent == [None]

    def test_blocks_share_the_outer_sum(self, monkeypatch):
        caps = Caps.of([12, 12])
        monkeypatch.setattr(series, "WORK_BUDGET", 10)
        with series.work_budget():
            series._charge(6, caps, "one route")
            with series.work_budget():
                series._charge(4, caps, "another", spend=False)
                with pytest.raises(SeriesError, match="another at caps"):
                    series._charge(5, caps, "another")
                series._charge(4, caps, "another")
            assert series._spent == [10]
        assert series._spent == [None]


def walked_side(spec, caps):
    """Reference approx product side: the region walked vector by vector,
    equal (monomial, sign, scalar) keys merged in arrival order, the factors
    multiplied in sorted order by `tuple_keyed_mul`."""
    weight = spec.factor
    merged = {}
    for vec in spec.vectors(caps):
        mono, scalar = spec.image(vec, APPROX)
        key = (mono, weight.sign, scalar)
        merged[key] = merged.get(key, 0) + weight.weight(vec, APPROX) * weight.direction
    out = Series.one(spec.names, caps, APPROX)
    for (mono, sign, scalar), exponent in sorted(merged.items()):
        if exponent != 0 and caps.admits(mono):
            factor = unit_binomial_pow(mono, exponent, spec.names, caps, APPROX,
                                       sign=sign, scalar=scalar)
            out = Series(spec.names, caps, APPROX, tuple_keyed_mul(out, factor))
    return out


APPROX_SPEC_SIDES = [(e.id, e.caps) for e in catalog()
                     if e.mode == APPROX and isinstance(e.lhs, ProductSpec)]


class TestApproxProductSides:
    """Every approx product side against the walked reference, in dict order:
    this pins the approx bytes on any platform, since both run on one libm."""

    def test_every_approx_spec_side_is_covered(self):
        assert len(APPROX_SPEC_SIDES) == 13

    @pytest.mark.parametrize("entry_id, caps", APPROX_SPEC_SIDES + [
        ("13.05", (14, 14)), ("13.14", (6, 6, 7)), ("13.15", (4, 4, 4, 5))],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_matches_walked_chain(self, entry_id, caps):
        spec = get_entry(entry_id).lhs
        assert isinstance(spec.factor, WeightExpr)
        caps = Caps.of(caps)
        side = product_series(spec, caps, APPROX)
        assert list(side.terms.items()) == list(walked_side(spec, caps).terms.items())
        assert len(side.terms) > 1


SMALL_COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def small_series(draw, constant, mode=EXACT):
    """A 1-3 variable series under box caps with the given constant
    term and a few random terms of positive degree."""
    arity = draw(st.integers(1, 3))
    limits = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    caps = Caps.of(limits)
    expo = st.tuples(*(st.integers(0, c) for c in limits)).filter(any)
    coeff = SMALL_COEFFS if mode == EXACT else \
        st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(expo, coeff, max_size=4))
    terms[(0,) * arity] = draw(constant)
    return Series("xyz"[:arity], caps, mode, terms)


def running_exp(g):
    """Reference approx exp: the running term a^k/k! rescaled by 1/k each step."""
    out = Series.one(g.names, g.caps, g.mode)
    term = Series.one(g.names, g.caps, g.mode)
    for k in range(1, g.caps.max_order() + 1):
        term = (term * g).scale(1.0 / k)
        if term.is_zero():
            break
        out = out + term
    return out


class TestSeriesFunctions:
    """inverse, exp, log and pow against each other and against products."""

    @settings(max_examples=80, deadline=None)
    @given(f=small_series(SMALL_COEFFS.filter(bool)))
    def test_inverse(self, f):
        one = Series.one(f.names, f.caps)
        assert f * f.inverse() == one
        assert f.inverse() * f == one

    @settings(max_examples=80, deadline=None)
    @given(g=small_series(st.just(0)), f=small_series(st.just(1)))
    def test_exp_and_log_invert_each_other(self, g, f):
        assert g.exp().log() == g
        assert f.log().exp() == f

    @settings(max_examples=80, deadline=None)
    @given(f=small_series(st.just(1)),
           r=st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 2), 3, -2]))
    def test_constant_pow_is_exp_of_log(self, f, r):
        assert f.pow(Fraction(r)) == (r * f.log()).exp()

    @settings(max_examples=80, deadline=None)
    @given(f=small_series(st.sampled_from([1, 1, Fraction(2, 3), -2])),
           n=st.integers(0, 5))
    def test_integer_pow_is_repeated_product(self, f, n):
        product = Series.one(f.names, f.caps)
        for _ in range(n):
            product = product * f
        assert f.pow(n) == product

    @settings(max_examples=80, deadline=None)
    @given(g=small_series(st.just(0.0), mode=APPROX))
    def test_approx_exp_is_the_running_term_sum(self, g):
        assert list(g.exp().terms.items()) == list(running_exp(g).terms.items())


def fraction_power_sum(u, ratio, start):
    """Reference power sum: start + sum of t_k, t_k = t_(k-1)*u*ratio(k), on
    Fraction coefficients, every product by `naive_mul`."""
    out = Series.constant(start, u.names, u.caps)
    term = Series.one(u.names, u.caps)
    max_order = u.caps.max_order()
    least = min(map(sum, u.terms), default=max_order + 1)
    for k in range(1, max_order // least + 1):
        r = ratio(k)
        if r == 0:
            break
        term = Series(u.names, u.caps, EXACT, naive_mul(term, u))
        if r != 1:
            term = term.scale(r)
        if term.is_zero():
            break
        out = out + term
    return out


def fraction_inverse(f):
    inv0 = 1 / f.constant_term()
    u = Series.one(f.names, f.caps) - f.scale(inv0)
    return fraction_power_sum(u, lambda k: 1, 1).scale(inv0)


def fraction_exp(g):
    return fraction_power_sum(g, lambda k: Fraction(1, k), 1)


def fraction_log(f):
    return fraction_power_sum(f - Series.one(f.names, f.caps),
                              lambda k: Fraction(1 - k, k) if k > 1 else 1, 0)


def fraction_pow(f, r):
    return fraction_power_sum(f - Series.one(f.names, f.caps),
                              lambda k: (Fraction(r) - (k - 1)) / k, 1)


def fraction_log_sum(factors, names, caps):
    """Reference `binomial_log`: exponent * log(1 + sign*scalar*X) summed
    factor by factor and term by term in Fractions."""
    terms = {}
    for mono, scalar, exponent, sign in factors:
        ratio = -Fraction(sign * scalar)
        power = -Fraction(exponent)
        k = 1
        while caps.admits(key := tuple(e * k for e in mono)):
            power *= ratio
            terms[key] = terms.get(key, 0) + power / k
            k += 1
    return Series(names, caps, EXACT, terms)


def same_fraction_terms(got, reference):
    return got.terms == reference.terms and \
        all(type(c) is Fraction for c in got.terms.values())


class TestExactSeriesFunctions:
    """The exact series functions, on integer numerators, against the Fraction
    power sum and the Fraction log sum, term for term."""

    @settings(max_examples=40, deadline=None)
    @given(f=small_series(SMALL_COEFFS.filter(bool)))
    def test_inverse(self, f):
        assert same_fraction_terms(f.inverse(), fraction_inverse(f))

    @settings(max_examples=40, deadline=None)
    @given(g=small_series(st.just(0)), f=small_series(st.just(1)))
    def test_exp_and_log(self, g, f):
        assert same_fraction_terms(g.exp(), fraction_exp(g))
        assert same_fraction_terms(f.log(), fraction_log(f))

    @settings(max_examples=40, deadline=None)
    @given(f=small_series(st.just(1)),
           r=st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 2), 3, -2, 0]))
    def test_constant_pow(self, f, r):
        assert same_fraction_terms(f.pow(r), fraction_pow(f, r))

    @settings(max_examples=60, deadline=None)
    @given(case=factor_lists())
    def test_binomial_log(self, case):
        # rational exponents, and scalars 1/2 and -3/2 whose denominator
        # enters the common denominator to the power of the multiples' count
        caps, names, factors = case
        assert same_fraction_terms(binomial_log(factors, names, caps),
                                   fraction_log_sum(factors, names, caps))


class TestStockFactors:
    """`unit_binomial_pow` and `polylog` build their series trusted."""

    def test_zero_coefficients_are_dropped(self):
        caps = Caps.of([4, 3])
        names = ("y", "z")
        for mode in (EXACT, APPROX):
            one = Series.one(names, caps, mode)
            assert unit_binomial_pow((1, 1), Fraction(1, 2), names, caps, mode,
                                     scalar=0).terms == one.terms
        # 3^-800 underflows to 0.0, 2^-800 does not
        got = polylog(800, (1,), ("x",), Caps.of([3]), APPROX)
        assert list(got.terms) == [(1,), (2,)]

    def test_monomials_are_checked(self):
        caps = Caps.of([3, 3])
        names = ("y", "z")
        for mono in ((-1, 1), (1, 1, 1), (0, 0)):
            with pytest.raises(SeriesError):
                unit_binomial_pow(mono, 2, names, caps)
            with pytest.raises(SeriesError):
                polylog(1, mono, names, caps)


def assert_exact_form(s, reference):
    """`s` stores the one exact form, and its `terms` are `reference`: a
    positive int denominator, nonzero int numerators with no common factor
    with it, and Fraction terms built once and kept."""
    assert type(s.den) is int and s.den > 0
    assert all(type(v) is int and v != 0 for v in s.nums.values())
    assert math.gcd(s.den, *s.nums.values()) == 1
    assert s.terms is s.terms
    assert s.terms == reference
    assert all(type(c) is Fraction for c in s.terms.values())


def fraction_dict(terms, caps):
    """Reference constructor: each coefficient a Fraction, cells outside the
    caps and zeros dropped."""
    return {e: Fraction(c) for e, c in terms.items() if caps.admits(e) and c != 0}


def fraction_mismatch(a, b):
    """Reference `first_mismatch`: the lex-first cell whose Fractions differ."""
    x, y = a.terms, b.terms
    for expo in sorted(set(x) | set(y)):
        ca, cb = x.get(expo, Fraction(0)), y.get(expo, Fraction(0))
        if ca != cb:
            return expo, ca, cb
    return None


@st.composite
def series_pairs(draw, constant=SMALL_COEFFS):
    """A `small_series` and a second series of up to 4 terms on its caps."""
    a = draw(small_series(constant))
    expo = st.tuples(*(st.integers(0, c) for c in a.caps.limits))
    b = Series(a.names, a.caps, EXACT, draw(st.dictionaries(expo, SMALL_COEFFS, max_size=4)))
    return a, b


class TestExactRepresentation:
    """Every exact producer returns one denominator and int numerators in
    lowest terms, whose Fraction terms match a Fraction reference."""

    @settings(max_examples=80, deadline=None)
    @given(f=small_series(SMALL_COEFFS), data=st.data())
    def test_constructor(self, f, data):
        expo = st.tuples(*(st.integers(0, c) for c in f.caps.limits))
        for coeff in (st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70), SMALL_COEFFS):
            terms = data.draw(st.dictionaries(expo, coeff, max_size=5))
            assert_exact_form(Series(f.names, f.caps, EXACT, terms),
                              fraction_dict(terms, f.caps))

    @settings(max_examples=80, deadline=None)
    @given(pair=series_pairs(), r=SMALL_COEFFS | st.integers(-3, 3))
    def test_ring_operations(self, pair, r):
        a, b = pair
        x, y = a.terms, b.terms
        added = {e: x.get(e, 0) + y.get(e, 0) for e in set(x) | set(y)}
        assert_exact_form(a + b, {e: c for e, c in added.items() if c != 0})
        assert_exact_form(-a, {e: -c for e, c in x.items()})
        assert_exact_form(a - b, {e: c for e, c in
                                  ((e, x.get(e, 0) - y.get(e, 0)) for e in set(x) | set(y))
                                  if c != 0})
        assert_exact_form(a * b, naive_mul(a, b))
        assert_exact_form(a.scale(r), {e: c * r for e, c in x.items() if c * r != 0})

    @settings(max_examples=40, deadline=None)
    @given(f=small_series(SMALL_COEFFS.filter(bool)), g=small_series(st.just(0)),
           h=small_series(st.just(1)),
           r=st.sampled_from([Fraction(1, 2), Fraction(-2, 3), 3, -2, 0]))
    def test_series_functions(self, f, g, h, r):
        assert_exact_form(f.inverse(), fraction_inverse(f).terms)
        assert_exact_form(g.exp(), fraction_exp(g).terms)
        assert_exact_form(h.log(), fraction_log(h).terms)
        assert_exact_form(h.pow(r), fraction_pow(h, r).terms)

    @settings(max_examples=40, deadline=None)
    @given(case=factor_lists())
    def test_binomial_log(self, case):
        caps, names, factors = case
        assert_exact_form(binomial_log(factors, names, caps),
                          fraction_log_sum(factors, names, caps).terms)

    @settings(max_examples=60, deadline=None)
    @given(shape=windows(), data=st.data())
    def test_unit_binomial_pow(self, shape, data):
        caps, names = shape
        assume(names)
        mono = data.draw(st.tuples(*(st.integers(0, c + 1) for c in caps.limits)).filter(any))
        r = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-3, 4), 2, -1, 0]))
        scalar = data.draw(st.sampled_from([1, 2, Fraction(1, 3), 0]))
        sign = data.draw(st.sampled_from([1, -1]))
        expected, binom = {(0,) * len(names): Fraction(1)}, Fraction(1)
        for k in range(1, caps.multiples(mono) + 1):
            binom = binom * (r - (k - 1)) / k
            if binom * scalar != 0:
                expected[tuple(e * k for e in mono)] = binom * (sign * Fraction(scalar)) ** k
        assert_exact_form(unit_binomial_pow(mono, r, names, caps, sign=sign, scalar=scalar),
                          expected)

    @settings(max_examples=80, deadline=None)
    @given(pair=series_pairs())
    def test_first_mismatch(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a), (a, a + b - b)):
            got = first_mismatch(x, y)
            assert got == fraction_mismatch(x, y)
            assert got is None or all(type(c) is Fraction for c in got[1:])


def assert_built_as_tuples(got, terms):
    """`got` is the series the public constructor builds from the tuple-keyed
    `terms`: the same denominator, and `by_slot`, `nums` and `terms` equal to
    the constructor's in value, type and dict order."""
    want = Series(got.names, got.caps, got.mode, terms)
    assert got.den == want.den
    for view in ("by_slot", "nums", "terms"):
        assert bits(getattr(got, view)) == bits(getattr(want, view)), view


class TestKeyedProducers:
    """Each producer that hands `Series` slot keys, against the series the
    tuple-keyed constructor builds from the same coefficients."""

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_constructors(self, mode):
        names, caps = ("y", "z"), Caps.of([3, 2])
        assert_built_as_tuples(Series.zero(names, caps, mode), {})
        for value in (0, 1, Fraction(-7, 3)):
            assert_built_as_tuples(Series.constant(value, names, caps, mode), {(0, 0): value})
        assert_built_as_tuples(Series.one(names, caps, mode), {(0, 0): 1})
        for expo in ((2, 1), (0, 0), (4, 0), (1, 3)):
            assert_built_as_tuples(Series.monomial(expo, names, caps, mode, Fraction(5, 2)),
                                   {expo: Fraction(5, 2)})
        with pytest.raises(SeriesError):
            Series.monomial((1, -1), names, caps, mode)

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    @settings(max_examples=60, deadline=None)
    @given(shape=windows(), data=st.data())
    def test_stock_factors(self, mode, shape, data):
        caps, names = shape
        assume(names)
        mono = data.draw(st.tuples(*(st.integers(0, c + 1) for c in caps.limits)).filter(any))
        multiples = caps.multiples(mono)
        r = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-3, 4), 2, -1]))
        scalar = data.draw(st.sampled_from([1, 2, Fraction(1, 3)]))
        sign = data.draw(st.sampled_from([1, -1]))
        one = Fraction(1) if mode == EXACT else 1.0
        s = sign * scalar if mode == EXACT else float(sign) * scalar
        terms, binom, power = {(0,) * len(names): one}, one, one
        for k in range(1, multiples + 1):
            binom, power = binom * ((r if mode == EXACT else float(r)) - (k - 1)) / k, power * s
            if binom == 0:
                break
            terms[tuple(e * k for e in mono)] = binom * power
        assert_built_as_tuples(
            unit_binomial_pow(mono, r, names, caps, mode, sign=sign, scalar=scalar), terms)
        s = data.draw(st.sampled_from([2, 0, -1] + [Fraction(1, 2)] * (mode == APPROX)))
        assert_built_as_tuples(
            polylog(s, mono, names, caps, mode),
            {tuple(e * k for e in mono): series._power_coeff(k, Fraction(s), mode)
             for k in range(1, multiples + 1)})

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_unit_binomial_node(self, mode):
        names, caps = ("y", "z"), Caps.of([3, 2])
        for exps, sign, scalar in (({"y": 1}, -1, 1), ({"y": 1, "z": 2}, 1, "2/3"),
                                   ({"z": 3}, -1, 5), ({}, 1, "1/4")):
            node = {"op": "unit_binomial", "exps": exps, "sign": sign, "scalar": scalar}
            expo = tuple(exps.get(n, 0) for n in names)
            value = sign * Fraction(scalar)
            terms = {expo: 1 + value} if not any(expo) else {(0, 0): 1, expo: value}
            assert_built_as_tuples(build_closed_form(node, names, caps, mode), terms)

    @pytest.mark.parametrize("entry_id", ["8.07.02", "8.07.03", "8.07.04", "8.07.01"])
    def test_family_log(self, entry_id):
        # the product log of a family that is not streamed: each image's
        # one-variable log spread over the powers of its monomial
        entry, caps = get_entry(entry_id), Caps.of((6, 6))
        for spec in (entry.lhs, entry.rhs):
            if not isinstance(spec, ProductSpec):
                continue
            terms = {}
            for (image, _), (count, _) in lattice.image_histogram(spec, caps)[1].items():
                for k, c in enumerate(lattice._factor_log(spec.factor,
                                                          caps.multiples(image)), 1):
                    key = tuple(e * k for e in image)
                    terms[key] = terms.get(key, 0) + count * c
            assert_built_as_tuples(product_series(spec, caps, EXACT, log=True), terms)

    def test_oracle_series(self):
        # every oracle side of the catalog: `count_grid` lists the box in lex order
        sides = [(e.rhs, Caps.of(e.caps)) for e in catalog() if isinstance(e.rhs, OracleSide)]
        assert len(sides) == 19
        for side, caps in sides:
            parts = [side.spec.image(v, EXACT)[0] for v in side.spec.vectors(caps)]
            assert_built_as_tuples(oracle_series(side.spec, caps, side.mode, side.k),
                                   count_grid(caps, parts, side.mode, side.k))

    def test_slot_order_is_lex_order_on_every_catalog_shape(self):
        # `first_mismatch` and `oracle_series` rest on it: the admitted keys,
        # row by row, are the cells in lex order, and increase
        shapes = {e.caps for e in catalog()} | {(), (0,), (3, 0, 2)}
        for limits in shapes:
            caps = Caps.of(limits)
            encode, decode, _, rows = _layout(caps)
            cells = list(itertools.product(*(range(c + 1) for c in limits)))
            keys = [k for row in rows for k in row]
            assert keys == list(map(encode, cells)) == sorted(set(keys)), limits
            assert list(map(decode, keys)) == cells
