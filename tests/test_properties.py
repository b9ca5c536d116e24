"""Property suites over the series ring and the identity families."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vpvlab.lattice import count_partitions
from vpvlab.series import APPROX, Caps, EXACT, Series, first_mismatch, polylog

NAMES = ("y", "z")
CAPS = Caps.of([6, 6])
SMALL_CAPS = Caps.of([5, 5])


def coefficients():
    return st.fractions(min_value=-3, max_value=3, max_denominator=6)


def exponents(limits=(6, 6)):
    return st.tuples(*(st.integers(min_value=0, max_value=c) for c in limits))


def series_strategy(caps=CAPS, min_terms=0):
    return st.dictionaries(exponents(caps.limits), coefficients(),
                           min_size=min_terms, max_size=8) \
        .map(lambda terms: Series(NAMES, caps, EXACT, terms))


def unit_series_strategy(caps=SMALL_CAPS):
    def attach_unit(terms):
        terms = dict(terms)
        terms[(0, 0)] = Fraction(1)
        return Series(NAMES, caps, EXACT, terms)

    nonconst = st.tuples(
        st.integers(min_value=0, max_value=caps.limits[0]),
        st.integers(min_value=0, max_value=caps.limits[1])).filter(
            lambda e: e != (0, 0))
    return st.dictionaries(nonconst, coefficients(), max_size=6) \
        .map(attach_unit)


@st.composite
def log_pairs(draw):
    """Two exact series with zero constant term under random box caps.

    The second is the first plus a perturbation that is often 0, so equal and
    unequal pairs are both drawn.
    """
    limits = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    caps = Caps.of(limits)
    names = ("x", "y", "z")[:len(limits)]
    nonconst = st.tuples(*(st.integers(0, c) for c in limits)).filter(any)
    terms = st.dictionaries(nonconst, coefficients(), max_size=6)
    a = Series(names, caps, EXACT, draw(terms))
    d = Series(names, caps, EXACT, draw(st.just({}) | terms))
    return a, a + d


class TestLogDomain:
    """What verifying in the log domain rests on: on a down-set caps window,
    exp is a bijection that keeps the lex-first mismatch and its difference."""

    @settings(max_examples=150, deadline=None)
    @given(log_pairs())
    def test_exp_keeps_equality_and_the_first_mismatch(self, pair):
        a, b = pair
        ea, eb = a.exp(), b.exp()
        assert (ea == eb) == (a == b)
        assert ea.log() == a
        in_logs, expanded = first_mismatch(a, b), first_mismatch(ea, eb)
        if in_logs is None:
            assert expanded is None
        else:
            assert expanded[0] == in_logs[0]
            assert expanded[1] - expanded[2] == in_logs[1] - in_logs[2]


@st.composite
def keyed_cases(draw):
    """Two series of either mode under random box caps, a unit series and
    a series with zero constant term built from them, and a scalar."""
    mode = draw(st.sampled_from([EXACT, APPROX]))
    limits = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    caps, names = Caps.of(limits), ("x", "y", "z")[:len(limits)]
    coeff = coefficients() if mode == EXACT else \
        st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    terms = st.dictionaries(st.tuples(*(st.integers(0, c) for c in limits)), coeff, max_size=6)
    a, b = (Series(names, caps, mode, draw(terms)) for _ in range(2))
    g = a - a.constant_term()
    scalar = draw(coefficients().filter(bool))
    return a, b, 1 + g, g, scalar if mode == EXACT else float(scalar)


def rebuilt(s):
    """`s` rebuilt from its exponent tuples through the public constructor."""
    return Series(s.names, s.caps, s.mode, s.terms)


class TestSlotKeyedResults:
    """Every operation hands back the series the public constructor builds
    from its exponent tuples: the same denominator, and slot keys that are
    admitted, nonzero and in the order of the decoded terms."""

    @settings(max_examples=150, deadline=None)
    @given(keyed_cases())
    def test_operations_agree_with_the_constructor(self, case):
        a, b, u, g, scalar = case
        results = [a + b, a - b, a * b, -a, a.scale(scalar), u.inverse(), g.exp(),
                   u.log(), u.pow(Fraction(-3, 2) if a.mode == EXACT else -1.5), u.pow(2),
                   u.pow(g)]
        for result in results:
            again = rebuilt(result)
            assert again == result and hash(again) == hash(result)
            assert list(again.by_slot.items()) == list(result.by_slot.items())
            assert list(again.terms.items()) == list(result.terms.items())
        # and the operations on the rebuilt operands give the same series
        assert rebuilt(a) * rebuilt(b) == a * b and rebuilt(u).log() == u.log()


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_commutativity(self, a, b):
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestExpLogInverse:
    @settings(max_examples=100, deadline=None)
    @given(unit_series_strategy())
    def test_exp_log_roundtrip(self, u):
        assert u.log().exp() == u

    @settings(max_examples=40, deadline=None)
    @given(unit_series_strategy(), st.integers(min_value=0, max_value=4))
    def test_pow_consistency(self, u, p):
        direct = Series.one(NAMES, SMALL_CAPS)
        for _ in range(p):
            direct = direct * u
        assert u.pow(p) == direct
        assert u.pow(Fraction(p)) == direct


class TestPolylogRecurrence:
    def test_termwise_derivative(self):
        caps = Caps.of([8])
        z = Series.variable("z", ("z",), caps)
        for s in range(-3, 5):
            assert polylog(s - 1, (1,), ("z",), caps) == \
                z * polylog(s, (1,), ("z",), caps).derivative("z")


class TestOracleSweep:
    def test_integer_coefficient_catalog_left_sides(self):
        """Every unrestricted/distinct product coefficient equals a count."""
        from vpvlab.catalog import get_entry
        from vpvlab.lattice import DISTINCT, UNRESTRICTED

        cases = [
            ("8.00a-2d", UNRESTRICTED, (6, 6)),
            ("8.00b-2d", DISTINCT, (6, 6)),
            ("8.06", DISTINCT, (4, 4, 4)),
            ("8.07", UNRESTRICTED, (4, 4, 4)),
        ]
        for entry_id, mode, caps in cases:
            entry = get_entry(entry_id)
            cap_obj = Caps.of(caps)
            series = entry.build_lhs(cap_obj)
            parts = [vec for vec in entry.lhs.vectors(cap_obj)]
            images = [entry.lhs.image(v, EXACT)[0] for v in parts]
            for expo in itertools.product(*(range(c + 1) for c in caps)):
                expected = count_partitions(expo, images, mode)
                assert series.terms.get(expo, 0) == expected, (entry_id, expo)

    def test_upper_vpv_parity_diff_matches_signed_products(self):
        from vpvlab.catalog import get_entry
        for plus_id, minus_id, caps in (("8.08", "8.08-neg", (1, 2)),
                                        ("8.09.03", "8.09.04", (4, 8)),
                                        ("8.10.03", "8.11.03", (6, 10)),
                                        ("8.12.02", "8.13.03", (6, 10))):
            cap_obj = Caps.of(caps)
            signed = get_entry(minus_id).build_lhs(cap_obj)
            report_rhs = get_entry(minus_id).build_rhs(cap_obj)
            assert signed == report_rhs, minus_id


class TestModeDiscipline:
    def test_exact_mode_never_produces_floats(self):
        from vpvlab.catalog import get_entry
        caps = Caps.of([5, 5])
        for entry_id in ("13.02", "14.02", "16.57f"):
            entry = get_entry(entry_id)
            cap_obj = Caps.of(entry.caps)
            for side in (entry.build_lhs(cap_obj), entry.build_rhs(cap_obj)):
                assert all(isinstance(c, Fraction) for c in side.terms.values())


class TestRandomizedInverses:
    def test_inverse_roundtrip_random(self):
        rng = random.Random(20260810)
        for _ in range(40):
            terms = {(0, 0): Fraction(rng.randint(1, 3))}
            for _ in range(rng.randint(0, 6)):
                expo = (rng.randint(0, 5), rng.randint(0, 5))
                terms[expo] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            s = Series(NAMES, SMALL_CAPS, EXACT, terms)
            if s.constant_term() == 0:
                continue
            assert s * s.inverse() == Series.one(NAMES, SMALL_CAPS)
