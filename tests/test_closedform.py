import json
from fractions import Fraction

import pytest

from vpvlab import closedform as cf
from vpvlab.closedform import (ExprError, build_closed_form, build_log,
                               finite_euler_sum, finite_euler_sum_direct,
                               geometric_moment, geometric_moment_closed)
from vpvlab.series import APPROX, Caps, NoLogForm, Series, SeriesError


NAMES = ("y", "z")


class TestFiniteEulerSums:
    def test_closed_equals_direct(self):
        for p in (1, 2, 3, 4):
            for n in range(0, 20):
                assert finite_euler_sum(p, n) == finite_euler_sum_direct(p, n)

    def test_examples(self):
        assert finite_euler_sum(2, 3) == 14
        # p=4, n=1: -1/30 + 1/3 + 1/2 + 1/5 = 1
        assert finite_euler_sum(4, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(SeriesError):
            finite_euler_sum(5, 3)


class TestGeometricMoments:
    def test_direct_values(self):
        got = geometric_moment(1, 3)
        assert dict(got.terms) == {(1,): 1, (2,): 2, (3,): 3}

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_closed_forms(self, p, n):
        cap = n + 6
        assert geometric_moment(p, n, cap=cap) == \
            geometric_moment_closed(p, n, cap=cap)

    def test_quoted_closed_form_shape(self):
        # (z - 4z^4 + 3z^5)/(1-z)^2 for p=1, n=3
        cap = 9
        caps = Caps.of([cap])
        names = ("z",)
        one = Series.one(names, caps)
        z = Series.variable("z", names, caps)
        numer = z - Series.monomial((4,), names, caps, coeff=4) \
            + Series.monomial((5,), names, caps, coeff=3)
        closed = numer * (one - z).inverse().pow(2)
        assert closed == geometric_moment(1, 3, cap=cap)


class TestTreeEvaluation:
    def test_constant_and_monomial(self):
        caps = Caps.of([3, 3])
        got = build_closed_form(cf.const(Fraction(2, 3)), NAMES, caps)
        assert got.coefficient((0, 0)) == Fraction(2, 3)
        got = build_closed_form(cf.mono({"y": 1, "z": 2}), NAMES, caps)
        assert got.coefficient((1, 2)) == 1

    def test_div_unit_and_pow(self):
        caps = Caps.of([4, 4])
        tree = cf.pow_expr(cf.div_unit(cf.const(1), cf.unit_binomial({"z": 1})),
                           cf.div_unit(cf.var("y"), cf.unit_binomial({"y": 1})))
        got = build_closed_form(tree, NAMES, caps)
        assert got.coefficient((2, 3)) == Fraction(5, 6)

    def test_exp_log_polylog_nodes(self):
        caps = Caps.of([5])
        tree = cf.exp_expr(cf.polylog_expr(1, {"z": 1}))
        got = build_closed_form(tree, ("z",), caps)
        # exp(-log(1-z)) = 1/(1-z)
        assert all(got.coefficient((n,)) == 1 for n in range(6))
        tree = cf.log_expr(cf.unit_binomial({"z": 1}))
        got = build_closed_form(tree, ("z",), caps)
        assert got.coefficient((3,)) == Fraction(-1, 3)

    def test_error_carries_node_path(self):
        caps = Caps.of([3])
        tree = cf.exp_expr(cf.const(1))  # nonzero constant term
        with pytest.raises(ExprError) as err:
            build_closed_form(tree, ("z",), caps)
        assert "exp" in str(err.value)

    def test_partial_sum_pyramid(self):
        # exp(sum_n (sum_{m<=n} y^m) z^n/n) equals the 2D pyramid closed form
        caps = Caps.of([6, 6])
        tree = cf.exp_expr(cf.partial_sum([("y", 0)], "z", 1))
        got = build_closed_form(tree, NAMES, caps)
        one = Series.one(NAMES, caps)
        y = Series.variable("y", NAMES, caps)
        z = Series.variable("z", NAMES, caps)
        closed = ((one - y * z) * (one - z).inverse()).pow(y * (one - y).inverse())
        assert got == closed

    def test_partial_sum_euler_factor(self):
        # a var=None factor is the finite Euler sum S_p(k)
        caps = Caps.of([6])
        tree = cf.partial_sum([(None, -2)], "z", 3)
        got = build_closed_form(tree, ("z",), caps)
        for n in range(1, 7):
            assert got.coefficient((n,)) == \
                Fraction(finite_euler_sum(2, n), n ** 3)

    def test_json_roundtrip(self):
        caps = Caps.of([4, 4])
        tree = cf.mul(cf.pow_expr(cf.unit_binomial({"z": 1}), cf.const(2)),
                      cf.exp_expr(cf.polylog_expr(2, {"y": 1, "z": 1})))
        text = json.dumps(tree)
        got = build_closed_form(json.loads(text), NAMES, caps)
        assert got == build_closed_form(tree, NAMES, caps)

    def test_approx_mode(self):
        caps = Caps.of([4])
        tree = cf.exp_expr(cf.mul(cf.polylog_expr(Fraction(1, 2), {"z": 1}),
                                  cf.polylog_expr(Fraction(1, 2), {"z": 1})))
        got = build_closed_form(tree, ("z",), caps, APPROX)
        assert got.coefficient((2,)) == pytest.approx(1.0, abs=1e-12)
        assert got.coefficient((3,)) == pytest.approx(2 ** 0.5, abs=1e-12)


class TestBuildLog:
    """`build_log` gives the log of what `build_closed_form` expands, with no exp."""

    UB_Y = cf.unit_binomial({"y": 1})
    UB_YZ = cf.unit_binomial({"y": 1, "z": 2}, sign=1, scalar=Fraction(2, 3))

    @pytest.mark.parametrize("caps", [Caps.of([4, 5]), Caps.of([6, 2])])
    @pytest.mark.parametrize("tree", [
        UB_YZ,
        cf.unit_binomial({"y": 9}),  # outside the caps: the factor is 1
        cf.const(1),
        cf.mul(),
        cf.mul(UB_Y, UB_YZ, cf.const(1)),
        cf.div_unit(UB_YZ, UB_Y),
        cf.pow_expr(UB_YZ, "-3/2"),
        cf.pow_expr(UB_Y, 0),
        cf.pow_expr(cf.div_unit(cf.const(1), UB_Y),
                    cf.div_unit(cf.var("z"), cf.unit_binomial({"z": 1}))),
        cf.exp_expr(cf.add(cf.polylog_expr(2, {"y": 1, "z": 1}), cf.var("z", 2))),
        cf.mul(cf.exp_expr(cf.polylog_expr(1, {"z": 1})),
               cf.pow_expr(cf.mul(UB_Y, UB_YZ), 4)),
    ])
    def test_log_of_the_expansion(self, tree, caps):
        assert build_log(tree, NAMES, caps) == build_closed_form(tree, NAMES, caps).log()

    @pytest.mark.parametrize("tree", [
        cf.const(2), cf.var("y"), cf.add(cf.const(1)), cf.polylog_expr(1, {"y": 1}),
        cf.log_expr(UB_Y), cf.partial_sum([("y", 0)], "z", 1),
        cf.exp_expr(cf.const(1)),  # an exp argument with a constant term
        cf.unit_binomial({}),  # a constant monomial
        cf.mul(UB_Y, cf.pow_expr(cf.add(UB_Y, UB_Y), 2)),
    ])
    def test_other_nodes_have_no_log_form(self, tree):
        with pytest.raises(NoLogForm):
            build_log(tree, NAMES, Caps.of([3, 3]))

    def test_error_carries_node_path(self):
        tree = cf.mul(self.UB_Y, cf.unit_binomial({"w": 1}))
        with pytest.raises(ExprError, match="unknown variable 'w'.*mul\\[1\\]"):
            build_log(tree, NAMES, Caps.of([3, 3]))
