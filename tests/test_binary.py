import itertools

import pytest

from vpvlab.binary import (b_indicator, b_indicator_series, beta2_grid,
                           beta2_oracle, binary_count, binary_count_series,
                           binary_powers_spec, min_index_product, powers_upto,
                           repunits)
from vpvlab.catalog import get_entry
from vpvlab.determinants import binary_Ak
from vpvlab.lattice import DISTINCT, UNRESTRICTED, count_grid, product_series
from vpvlab.series import Caps


# expansion printed with the generating function, n = 0..20
B_SMALL = [1, 1, 2, 2, 4, 4, 6, 6, 10, 10, 14, 14, 20, 20, 26, 26, 36, 36,
           46, 46, 60]

# the printed alpha_k polynomials, k = 1..10, as {q-exponent: coefficient}
ALPHAS = {
    1: {1: 1},
    2: {1: 1, 2: 1},
    3: {2: 1, 3: 1},
    4: {1: 1, 2: 1, 3: 1, 4: 1},
    5: {2: 1, 3: 1, 4: 1, 5: 1},
    6: {2: 1, 3: 2, 4: 1, 5: 1, 6: 1},
    7: {3: 1, 4: 2, 5: 1, 6: 1, 7: 1},
    8: {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 1, 7: 1, 8: 1},
    9: {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 1, 8: 1, 9: 1},
    10: {2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1},
}


class TestBinaryCount:
    def test_printed_expansion(self):
        series = binary_count_series(20)
        for n, b in enumerate(B_SMALL):
            assert series.coefficient((n,)) == b

    def test_both_routes_agree_to_64(self):
        # binary_count raises internally if the two products disagree
        value = binary_count(64)
        assert value == binary_count_series(64).coefficient((64,))

    def test_examples(self):
        assert binary_count(5) == 4
        assert binary_count(20) == 60
        assert binary_count(0) == 1


class TestIndicator:
    def test_base2_examples(self):
        assert b_indicator(3, 4) == 1  # 7 = 2^3 - 1
        assert b_indicator(2, 2) == 0  # 4 is not a repunit
        assert b_indicator(7, 0) == 1  # endpoint term admitted

    def test_base10_example(self):
        assert b_indicator(101, 10, 10) == 1
        assert b_indicator(101, 11, 10) == 0

    def test_repunits(self):
        assert repunits(2, 1023) == [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023]
        assert repunits(10, 111) == [1, 11, 111]

    def test_exhaustive_bitwise_characterization(self):
        masks = set(repunits(2, 1023))
        for total in range(1, 1024):
            for a in range(total + 1):
                b = total - a
                got = b_indicator(a, b)
                expected = 1 if (total in masks and a & b == 0
                                 and (a | b) == total) else 0
                assert got == expected, (a, b)

    def test_series_matches_indicator(self):
        caps = Caps.of([33, 33])
        series = b_indicator_series(caps, 2)
        for a in range(34):
            for b in range(34):
                assert series.terms.get((a, b), 0) == b_indicator(a, b), (a, b)

    @pytest.mark.parametrize("base,cap", [(3, 15), (10, 112)])
    def test_series_matches_indicator_other_bases(self, base, cap):
        caps = Caps.of([cap, cap])
        series = b_indicator_series(caps, base)
        for a in range(cap + 1):
            for b in range(cap + 1):
                assert series.terms.get((a, b), 0) == \
                    b_indicator(a, b, base), (a, b)


class TestBetaGrid:
    def test_grid_routes_and_values(self):
        grid = beta2_grid(Caps.of([13, 13]))
        assert grid.cell(3, 6) == 2
        assert grid.cell(1, 1) == 1
        assert [grid.cell(j, 8) for j in range(1, 9)] == [1, 1, 1, 2, 2, 1, 1, 1]

    def test_alpha_polynomials(self):
        for k, expected in ALPHAS.items():
            ak = binary_Ak(k)
            assert {e[0]: c for e, c in ak.terms.items()} == expected, k

    def test_oracle_routes(self):
        for j, k in itertools.product(range(11), range(14)):
            assert beta2_oracle(j, k) == beta2_oracle(j, k, distinct_route=True)

    def test_corollary_case(self):
        assert beta2_oracle(3, 6) == 2


def b2_series(caps, sign):
    """B_2(y,z) = prod 1/(1 - y^(2^m) z^(2^n)) for sign -1, and its distinct
    counterpart bold B_2(y,z) = prod (1 + y^(2^m) z^(2^n)) for sign +1."""
    return product_series(binary_powers_spec(2, sign, sign), caps)


def _transform_sides(entry_id, caps):
    entry = get_entry(entry_id)
    caps = Caps.of(caps)
    return entry.build_lhs(caps), entry.build_rhs(caps)


class TestTransforms:
    def test_full_quadrant(self):
        lhs, rhs = _transform_sides("12.04", (16, 16))
        assert lhs == rhs == b2_series(Caps.of([16, 16]), 1)

    @pytest.mark.parametrize("sign,mode", [(-1, UNRESTRICTED), (1, DISTINCT)])
    def test_b2_products_match_the_counting_oracle(self, sign, mode):
        # the oracle counts partitions into binary parts with no series kernel
        caps = Caps.of([12, 12])
        parts = list(itertools.product(powers_upto(12), repeat=2))
        counts = {e: c for e, c in count_grid(caps, parts, mode).items() if c}
        assert b2_series(caps, sign).terms == counts

    def test_lower_diagonal(self):
        lhs, rhs = _transform_sides("12.1", (8, 32))
        assert lhs == rhs

    def test_pyramid(self):
        lhs, rhs = _transform_sides("12.08", (8, 8, 8))
        assert lhs == rhs

    def test_min_plus_one(self):
        caps = Caps.of([12, 12])
        lhs = min_index_product(caps, lambda e: e, 1)
        assert lhs == b2_series(caps, -1) == product_series(get_entry("7.24").rhs, caps)

    def test_triangular_exponent_law(self):
        caps = Caps.of([12, 12])
        lhs = min_index_product(caps, lambda e: e * (e + 1) // 2, 1)
        assert lhs == min_index_product(caps, lambda e: -e, -1)

    def test_functional_equation(self):
        # bold B2(y,z) = (1+yz) B2(y^2,z) B2(y,z^2) / B2(y^2,z^2)
        caps = Caps.of([12, 12])
        names = ("y", "z")
        B = b2_series(caps, 1)

        def subs(s, ym, zm):
            return s.substitute({"y": (1, {"y": ym}), "z": (1, {"z": zm})},
                                names, caps)

        from vpvlab.series import unit_binomial_pow
        rhs = subs(B, 2, 1) * subs(B, 1, 2) * subs(B, 2, 2).inverse() \
            * unit_binomial_pow((1, 1), 1, names, caps, sign=1)
        assert B == rhs

    def test_distinct_unrestricted_relation(self):
        # bold B2 = B2(y,z) / B2(y^2,z^2)
        caps = Caps.of([10, 10])
        names = ("y", "z")
        U = b2_series(caps, -1)
        D = b2_series(caps, 1)
        squared = U.substitute({"y": (1, {"y": 2}), "z": (1, {"z": 2})},
                               names, caps)
        assert D == U * squared.inverse()
