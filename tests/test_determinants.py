import itertools
from fractions import Fraction

import pytest

from vpvlab.determinants import (QBinomialSpec, binary_A_columns, binary_Ak,
                                 binary_power_sum, club_diagonal_series,
                                 coeffs_from_power_sums, determinant, diagonal_closed_forms,
                                 exact_parts_series, hessenberg_matrix,
                                 hyperpyramid_power_sum, power_sum,
                                 qbinom_coeff, spade_diagonal_partial_sum,
                                 spade_diagonal_series)
from vpvlab.lattice import count_exactly_k
from vpvlab.series import Caps, EXACT, Series


NAMES = ("y", "z")
ALL_PARTS = [p for p in itertools.product(range(9), repeat=2) if p != (0, 0)]


class TestQBinomial:
    def test_two_part_grid_values(self):
        caps = Caps.of([8, 8])
        spade = exact_parts_series(2, 2, caps, NAMES)
        # bold diagonal of the printed two-part grid
        diag = [1, 2, 5, 8, 13, 18, 25, 32, 41]
        for n, value in enumerate(diag):
            assert spade.coefficient((n, n)) == value
        assert spade.coefficient((4, 4)) == 13

    def test_three_part_grid_values(self):
        caps = Caps.of([8, 8])
        club = exact_parts_series(3, 2, caps, NAMES)
        for n, value in enumerate([1, 2, 8, 19, 42, 78, 139, 224, 350]):
            assert club.coefficient((n, n)) == value

    def test_determinant_equals_recurrence_and_closed_form(self):
        caps = Caps.of([6, 6])
        for k in (2, 3):
            spec = QBinomialSpec(2, NAMES, Fraction(0), k)
            det_route = qbinom_coeff(spec, caps, via_determinant=True)
            rec_route = qbinom_coeff(spec, caps)
            closed = exact_parts_series(k, 2, caps, NAMES)
            assert det_route == rec_route == closed

    def test_power_sum_identity_adjudicates_printed_expansion(self):
        # the 3x3 expansion is a1^3 + 3 a1 a2 + 2 a3 (not a2^3 + ...)
        caps = Caps.of([4, 4])
        a = [power_sum(QBinomialSpec(2, NAMES, Fraction(0), 3), m, caps)
             for m in (1, 2, 3)]
        det = determinant(hessenberg_matrix(a, 3))
        good = a[0] * a[0] * a[0] + (a[0] * a[1]).scale(3) + a[2].scale(2)
        bad = a[1] * a[1] * a[1] + (a[0] * a[1]).scale(3) + a[2].scale(2)
        assert det == good
        assert det != bad

    def test_exactly_k_oracle_agreement(self):
        caps = Caps.of([8, 8])
        for k in (1, 2, 3):
            series = exact_parts_series(k, 2, caps, NAMES)
            for expo in itertools.product(range(9), repeat=2):
                assert series.coefficient(expo) == \
                    count_exactly_k(expo, ALL_PARTS, k), (k, expo)

    def test_one_dimensional_exactly_three(self):
        # A_3 counts at-most-3 parts; the difference A_3 - A_2 is exactly-3
        caps = Caps.of([9])
        a3 = exact_parts_series(3, 1, caps, ("x",))
        a2 = exact_parts_series(2, 1, caps, ("x",))
        assert a3.coefficient((6,)) == 7
        assert a3.coefficient((6,)) - a2.coefficient((6,)) == 3

    def test_closed_rational_forms(self):
        # the three-part rational form is correct as displayed; the two-part
        # display is wrong (it evaluates to 1/2 at the origin) and the
        # corrected denominator is (1-y)^2 (1+y) (1-z)^2 (1+z)
        caps = Caps.of([8, 8])
        names = NAMES
        one = Series.one(names, caps)
        y = Series.variable("y", names, caps)
        z = Series.variable("z", names, caps)
        spade_closed = (one + y * z) * (
            (one - y).pow(2) * (one + y) * (one - z).pow(2) * (one + z)
        ).inverse()
        assert spade_closed == exact_parts_series(2, 2, caps, names)
        numer = (one + y * z + y * y * z + y * z * z + y * y * z * z
                 + (y * y * y) * (z * z * z))
        denom = ((one - y).pow(3) * (one + y) * (one + y + y * y)
                 * (one - z).pow(3) * (one + z) * (one + z + z * z))
        assert numer * denom.inverse() == exact_parts_series(3, 2, caps, names)

    def test_t_marked_product_slice(self):
        # the t^2 slice of prod 1/(1 - y^j z^k t) over (j,k) != (0,0), with
        # the origin factor 1/(1-t) padding, reproduces the two-part series;
        # its z = 0 row reads 1,1,2,2,3,3,4,4,5
        caps3 = Caps.of([8, 8, 2])
        names = ("y", "z", "t")
        from vpvlab.series import unit_binomial_pow
        out = unit_binomial_pow((0, 0, 1), -1, names, caps3, sign=-1)
        for j in range(9):
            for k in range(9):
                if (j, k) != (0, 0):
                    out = out * unit_binomial_pow((j, k, 1), -1, names, caps3, sign=-1)
        spade = exact_parts_series(2, 2, Caps.of([8, 8]), NAMES)
        t2_slice = {(e[0], e[1]): c for e, c in out.terms.items() if e[2] == 2}
        assert t2_slice == dict(spade.terms)
        assert [t2_slice.get((a, 0), 0) for a in range(9)] == \
            [1, 1, 2, 2, 3, 3, 4, 4, 5]

    def test_general_k_path(self):
        caps = Caps.of([5, 5])
        spec = QBinomialSpec(2, NAMES, Fraction(0), 4)
        a4 = qbinom_coeff(spec, caps)
        parts = [p for p in itertools.product(range(6), repeat=2) if p != (0, 0)]
        for expo in itertools.product(range(6), repeat=2):
            assert a4.coefficient(expo) == count_exactly_k(expo, parts, 4)

    def test_nonzero_a_parameter(self):
        # with a = -1 the product becomes prod (1+x^j t)/(1-x^j t)
        caps = Caps.of([5])
        spec = QBinomialSpec(1, ("x",), Fraction(-1), 2)
        a2 = qbinom_coeff(spec, caps)
        # t^2 coefficient of prod_j (1+x^j t)/(1-x^j t) via direct expansion
        tcaps = Caps.of([5, 2])
        names = ("x", "t")
        out = Series.one(names, tcaps)
        for j in range(0, 6):
            num = Series(names, tcaps, EXACT, {(0, 0): 1, (j, 1): 1})
            den = Series(names, tcaps, EXACT, {(0, 0): 1, (j, 1): -1})
            out = out * num * den.inverse()
        direct = Series(("x",), caps, EXACT,
                        {(e[0],): c for e, c in out.terms.items() if e[1] == 2})
        assert a2 == direct


class TestFunctionalEquation:
    def test_one_dimensional_telescope(self):
        # F(t) (1 - t) = (1 - a t) F(q t)
        caps = Caps.of([4, 4])  # (q, t)
        names = ("q", "t")
        a = Fraction(1, 2)
        sums = [power_sum(QBinomialSpec(1, ("q",), a, 4), m, Caps.of([4]))
                for m in range(1, 5)]
        coeffs = coeffs_from_power_sums(sums, 4)
        f = Series.zero(names, caps)
        for k, ak in enumerate(coeffs):
            f = f + Series(names, caps, EXACT,
                           {(e[0], k): c for e, c in ak.terms.items()})
        one = Series.one(names, caps)
        t = Series.variable("t", names, caps)
        f_shift = f.substitute({"q": (1, {"q": 1}), "t": (1, {"q": 1, "t": 1})},
                               names, caps)
        assert f * (one - t) == (one - t.scale(a)) * f_shift

    def test_two_dimensional_telescope(self):
        # F_2(y,z;a,t) = F_1(z;a,t) * F_2(y,z;a,yt)
        caps = Caps.of([3, 3, 3])  # (y, z, t)
        names = ("y", "z", "t")
        a = Fraction(0)
        sums2 = [power_sum(QBinomialSpec(2, ("y", "z"), a, 3), m, Caps.of([3, 3]))
                 for m in range(1, 4)]
        coeffs2 = coeffs_from_power_sums(sums2, 3)
        f2 = Series.zero(names, caps)
        for k, ak in enumerate(coeffs2):
            f2 = f2 + Series(names, caps, EXACT,
                             {(e[0], e[1], k): c for e, c in ak.terms.items()})
        sums1 = [power_sum(QBinomialSpec(1, ("z",), a, 3), m, Caps.of([3]))
                 for m in range(1, 4)]
        coeffs1 = coeffs_from_power_sums(sums1, 3)
        f1 = Series.zero(names, caps)
        for k, ak in enumerate(coeffs1):
            f1 = f1 + Series(names, caps, EXACT,
                             {(0, e[0], k): c for e, c in ak.terms.items()})
        f2_shift = f2.substitute({"y": (1, {"y": 1}), "z": (1, {"z": 1}),
                                  "t": (1, {"y": 1, "t": 1})}, names, caps)
        assert f2 == f1 * f2_shift


class TestDiagonals:
    def test_closed_forms_match_oracle(self):
        for n in range(0, 9):
            spade, club = diagonal_closed_forms(n)
            assert spade == count_exactly_k((n, n), ALL_PARTS, 2)
            assert club == count_exactly_k((n, n), ALL_PARTS, 3)

    def test_closed_forms_extended(self):
        assert diagonal_closed_forms(4)[0] == 13
        assert diagonal_closed_forms(3)[1] == 19
        assert diagonal_closed_forms(0) == (1, 1)

    def test_generating_functions(self):
        spade = spade_diagonal_series(12)
        club = club_diagonal_series(12)
        expected_spade = [1, 2, 5, 8, 13, 18, 25, 32, 41, 50, 61, 72, 85]
        for n, v in enumerate(expected_spade):
            assert spade.coefficient((n,)) == v
            assert v == diagonal_closed_forms(n)[0]
        for n in range(13):
            assert club.coefficient((n,)) == diagonal_closed_forms(n)[1]

    def test_dirichlet_partial_sum_window(self):
        total = spade_diagonal_partial_sum(10 ** 5)
        assert 2.2631 - 1e-3 < total < 2.26312655


class TestBinaryAk:
    def test_small_polynomials(self):
        assert dict(binary_Ak(1).terms) == {(1,): 1}
        assert dict(binary_Ak(2).terms) == {(1,): 1, (2,): 1}
        assert dict(binary_Ak(4).terms) == {(1,): 1, (2,): 1, (3,): 1, (4,): 1}

    def test_determinant_route(self):
        for k in range(1, 7):
            assert binary_Ak(k, via_determinant=True) == binary_Ak(k)

    @pytest.mark.parametrize("cap_t, cap_q", [(0, 5), (1, 1), (6, 3), (13, 13)])
    def test_one_recurrence_gives_every_column(self, cap_t, cap_q):
        columns = binary_A_columns(cap_t, cap_q)
        assert columns == [binary_Ak(k, cap_q) for k in range(1, cap_t + 1)]

    def test_power_sum_values(self):
        # p_4 = q^4 + 2 q^2 + 4 q
        p4 = binary_power_sum(4, 6)
        assert dict(p4.terms) == {(4,): 1, (2,): 2, (1,): 4}


class TestHyperpyramidDeterminants:
    def test_quoted_quartic_determinant(self):
        caps = Caps.of([3])
        sums = [hyperpyramid_power_sum(m, ("y",), caps) for m in range(1, 5)]
        det = determinant(hessenberg_matrix(sums, 4))
        assert dict(det.terms) == {(0,): 24, (1,): 26, (2,): 17, (3,): 6}

    def test_closed_form_coefficients_match_determinants(self):
        # the z^k/k! coefficients of ((1-yz)/(1-z))^(1/(1-y))
        caps = Caps.of([5, 5])
        names = NAMES
        one = Series.one(names, caps)
        y = Series.variable("y", names, caps)
        z = Series.variable("z", names, caps)
        closed = ((one - y * z) * (one - z).inverse()).pow((one - y).inverse())
        ycaps = Caps.of([5])
        sums = [hyperpyramid_power_sum(m, ("y",), ycaps) for m in range(1, 6)]
        coeffs = coeffs_from_power_sums(sums, 5)
        for k in range(6):
            column = {(e[0],): c for e, c in closed.terms.items() if e[1] == k}
            assert column == dict(coeffs[k].terms), k

    def test_recurrence_from_quoted_expansion(self):
        # n y c_n + (n+2) c_{n+2} = (2 + n + y + n y) c_{n+1}
        caps = Caps.of([8, 9])
        names = NAMES
        one = Series.one(names, caps)
        y = Series.variable("y", names, caps)
        z = Series.variable("z", names, caps)
        closed = ((one - y * z) * (one - z).inverse()).pow((one - y).inverse())
        ycaps = Caps.of([8])

        def c(n):
            return Series(("y",), ycaps, EXACT,
                          {(e[0],): v for e, v in closed.terms.items()
                           if e[1] == n})

        yy = Series.variable("y", ("y",), ycaps)
        for n in range(1, 7):
            lhs = c(n) * yy * n + c(n + 2) * (n + 2)
            rhs = c(n + 1) * (yy * (n + 1) + (n + 2))
            assert lhs == rhs, n
