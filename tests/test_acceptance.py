"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `criterion N: PASS (t s)` line (visible with -s).
"""

import itertools
import json
import os
import time
from fractions import Fraction

from vpvlab.catalog import catalog, get_entry, verify_identity
from vpvlab.determinants import (club_diagonal_series, diagonal_closed_forms,
                                 exact_parts_series, spade_diagonal_partial_sum,
                                 spade_diagonal_series)
from vpvlab.lattice import count_exactly_k
from vpvlab.series import Caps, EXACT, Series

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ALL_PARTS = [p for p in itertools.product(range(9), repeat=2) if p != (0, 0)]


def _stamp(number, start):
    print(f"criterion {number}: PASS ({time.perf_counter() - start:.2f} s)")


def _verify_ids(ids, budget=None):
    start = time.perf_counter()
    for entry_id in ids:
        report = verify_identity(get_entry(entry_id))
        assert report.passed, (entry_id, report.mismatch)
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.1f}s over budget {budget}s"
    return elapsed


def _read_golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


class TestAcceptance:
    def test_criterion_01_two_and_three_part_grids(self):
        start = time.perf_counter()
        caps = Caps.of([8, 8])
        spade = exact_parts_series(2, 2, caps, ("y", "z"))
        club = exact_parts_series(3, 2, caps, ("y", "z"))
        assert spade.coefficient((4, 4)) == 13
        assert spade.coefficient((8, 8)) == 41
        assert club.coefficient((3, 3)) == 19
        assert club.coefficient((8, 8)) == 350
        # every cell equals the counting oracle
        for expo in itertools.product(range(9), repeat=2):
            assert spade.coefficient(expo) == count_exactly_k(expo, ALL_PARTS, 2)
            assert club.coefficient(expo) == count_exactly_k(expo, ALL_PARTS, 3)
        # the discrepant printed cell resolves to the oracle value, which the
        # golden grid records (printed row reads ... 32, 12, 40)
        assert club.coefficient((7, 2)) == 40 == club.coefficient((2, 7))
        from vpvlab.lattice import PartitionGrid
        golden = _read_golden("club2_9x9.csv")
        assert PartitionGrid.from_series(club, caps).to_csv() == golden
        errata = json.loads(_read_golden("errata.json"))
        assert any(f["id"] == "club2-grid-row2" for f in errata["findings"])
        elapsed = time.perf_counter() - start
        assert elapsed < 30
        _stamp(1, start)

    def test_criterion_02_diagonal_closed_forms(self):
        start = time.perf_counter()
        parts13 = [p for p in itertools.product(range(13), repeat=2)
                   if p != (0, 0)]
        spade_series = spade_diagonal_series(12)
        club_series = club_diagonal_series(12)
        for n in range(13):
            spade, club = diagonal_closed_forms(n)
            assert spade == count_exactly_k((n, n), parts13, 2)
            assert club == count_exactly_k((n, n), parts13, 3)
            assert spade_series.coefficient((n,)) == spade
            assert club_series.coefficient((n,)) == club
        elapsed = time.perf_counter() - start
        assert elapsed < 5
        _stamp(2, start)

    def test_criterion_03_dirichlet_partial_sum(self):
        start = time.perf_counter()
        total = spade_diagonal_partial_sum(10 ** 6)
        assert 2.263124 <= total <= 2.263128
        elapsed = time.perf_counter() - start
        assert elapsed < 10
        _stamp(3, start)

    def test_criterion_04_hyperquadrant_suite(self):
        start = time.perf_counter()
        ids = ["13.02", "13.03", "13.04",
               "13.24", "13.25", "13.26", "13.27",
               "13.29", "13.30", "13.31", "13.32",
               "13.33", "13.34", "13.35", "13.36",
               "13.38", "13.39", "13.40", "13.41",
               "13.42", "13.43", "13.44", "13.45"]
        minima = {2: (6, 6), 3: (4, 4, 5), 4: (3, 3, 3, 4), 5: (2, 2, 2, 2, 3)}
        for entry_id in ids:
            entry = get_entry(entry_id)
            floor = minima[len(entry.caps)]
            assert tuple(entry.caps) >= floor, entry_id
            report = verify_identity(entry)
            assert report.passed and report.mode == EXACT, entry_id
        elapsed = time.perf_counter() - start
        assert elapsed < 120
        _stamp(4, start)

    def test_criterion_05_finite_polynomial_specials(self):
        start = time.perf_counter()
        minus = [("13.03@y=1/2", 1), ("13.03@y=2/3", 2), ("13.03@y=3/4", 3),
                 ("13.03@y=4/5", 4), ("13.03@y=5/6", 5)]
        plus = [("13.02@y=2", 2), ("13.02@y=3/2", 3), ("13.02@y=4/3", 4),
                ("13.02@y=5/4", 5), ("13.02@y=6/5", 6)]
        from math import comb
        for entry_id, m in minus + plus:
            entry = get_entry(entry_id)
            lhs = entry.build_lhs(Caps.of([10]))
            expected = {(k,): Fraction((-1) ** k * comb(m, k))
                        for k in range(m + 1)}
            assert dict(lhs.terms) == expected, entry_id  # all higher terms 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10
        _stamp(5, start)

    def test_criterion_06_hyperpyramid_suite(self):
        start = time.perf_counter()
        _verify_ids(["14.02", "14.03", "14.04", "14.07", "14.08", "14.09",
                     "14.11", "14.12", "14.17", "14.18", "14.19", "14.20",
                     "14.21", "14.22", "14.23"])
        # determinant expansions match the closed forms and the quoted values
        from vpvlab.determinants import (coeffs_from_power_sums,
                                         hyperpyramid_power_sum)
        ycaps = Caps.of([4])
        for repeat, quoted_z4 in ((1, {0: 24, 1: 26, 2: 17, 3: 6}),):
            sums = [hyperpyramid_power_sum(m, ("y",), ycaps, repeat)
                    for m in range(1, 5)]
            coeffs = coeffs_from_power_sums(sums, 4)
            a4 = {e[0]: c * 24 for e, c in coeffs[4].terms.items()}
            assert a4 == {k: Fraction(v) for k, v in quoted_z4.items()}
        for repeat, eq in ((2, "14.21"), (3, "14.22"), (4, "14.23")):
            entry = get_entry(eq)
            caps = Caps.of(entry.caps)
            closed = entry.build_rhs(caps)
            sums = [hyperpyramid_power_sum(m, ("y",), Caps.of([caps.limits[0]]),
                                           repeat)
                    for m in range(1, caps.limits[1] + 1)]
            coeffs = coeffs_from_power_sums(sums, caps.limits[1])
            for k in range(caps.limits[1] + 1):
                column = {(e[0],): c for e, c in closed.terms.items()
                          if e[1] == k}
                assert column == dict(coeffs[k].terms), (eq, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 120
        _stamp(6, start)

    def test_criterion_07_totient_identities(self):
        start = time.perf_counter()
        for entry_id in ("14.05", "14.06"):
            report = verify_identity(get_entry(entry_id), caps=(12,))
            assert report.passed, entry_id
        elapsed = time.perf_counter() - start
        assert elapsed < 5
        _stamp(7, start)

    def test_criterion_08_euler_sum_theorems(self):
        start = time.perf_counter()
        for entry_id in ("16.57b", "16.57c", "16.57d", "16.57e"):
            assert verify_identity(get_entry(entry_id), caps=(10,)).passed
            assert verify_identity(get_entry(entry_id + "-inv"), caps=(10,)).passed
        for entry_id in ("16.57f", "16.57g", "16.57h"):
            assert verify_identity(get_entry(entry_id), caps=(5, 8)).passed
        # 16.57i / 16.62: the independent exp-form route must pass exactly;
        # the printed right sides are errata probes and must be reported
        assert verify_identity(get_entry("16.57i")).passed
        assert verify_identity(get_entry("16.62")).passed
        for probe in ("16.57i-printed", "16.62-printed"):
            report = verify_identity(get_entry(probe))
            assert report.expected == "errata-probe"
            assert not report.passed and report.mismatch is not None
        for entry_id in ("16.59", "16.60"):
            assert verify_identity(get_entry(entry_id), caps=(8,)).passed
        elapsed = time.perf_counter() - start
        assert elapsed < 180
        _stamp(8, start)

    def test_criterion_09_irrational_weight_identities(self):
        start = time.perf_counter()
        for entry_id in ("13.05", "13.06", "13.07", "13.13", "13.14", "13.15",
                         "13.16", "13.18", "13.19", "13.20", "13.21"):
            entry = get_entry(entry_id)
            report = verify_identity(entry)
            assert report.passed, entry_id
            assert report.max_rel_error is not None
            assert report.max_rel_error <= 1e-9, entry_id
        lhs18 = get_entry("13.18").build_lhs(Caps.of([6]))
        assert abs(lhs18.coefficient((3,)) - 2 ** 0.5) <= 1e-9
        lhs19 = get_entry("13.19").build_lhs(Caps.of([5]))
        assert abs(lhs19.coefficient((4,)) - 3 * 2 ** (-1 / 3)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        _stamp(9, start)

    def test_criterion_10_upper_region_products(self):
        start = time.perf_counter()
        # oracle equality over every grid cell
        _verify_ids(["8.08", "8.08-neg", "8.09.03", "8.09.04", "8.10.03",
                     "8.11.03", "8.12.02", "8.13.03",
                     "8.14", "8.15", "8.18a", "8.21a", "8.22"])
        # row/column sum polynomials as printed
        data = {
            "8.09.03": ((4, 8), [1, 2, 2, 2, 1],
                        {0: 1, 2: 1, 3: 2, 5: 2, 6: 1, 8: 1}),
            "8.09.04": ((4, 8), [1, -2, 0, 2, -1],
                        {0: 1, 2: -1, 3: -2, 5: 2, 6: 1, 8: -1}),
            "8.10.03": ((8, 16), [1, 3, 4, 5, 6, 5, 4, 3, 1],
                        {0: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 4, 8: 2, 9: 4,
                         10: 3, 11: 2, 12: 2, 13: 2, 14: 1, 16: 1}),
            "8.11.03": ((8, 16), [1, -3, 2, 1, 0, -1, -2, 3, -1],
                        {0: 1, 2: -1, 3: -2, 4: -2, 5: 2, 6: 3, 7: 4, 9: -4,
                         10: -3, 11: -2, 12: 2, 13: 2, 14: 1, 16: -1}),
            "8.12.02": ((18, 36),
                        [1, 4, 8, 14, 23, 32, 41, 50, 55, 56, 55, 50, 41, 32,
                         23, 14, 8, 4, 1],
                        {0: 1, 2: 1, 3: 2, 4: 2, 5: 6, 6: 3, 7: 8, 8: 10,
                         9: 12, 10: 17, 11: 14, 12: 24, 13: 22, 14: 29, 15: 28,
                         16: 27, 17: 36, 18: 28, 19: 36, 20: 27, 21: 28,
                         22: 29, 23: 22, 24: 24, 25: 14, 26: 17, 27: 12,
                         28: 10, 29: 8, 30: 3, 31: 6, 32: 2, 33: 2, 34: 1,
                         36: 1}),
            "8.13.03": ((18, 36),
                        [1, -4, 4, 2, -3, 0, -7, 10, -1, 0, 1, -10, 7, 0, 3,
                         -2, -4, 4, -1],
                        {0: 1, 2: -1, 3: -2, 4: -2, 5: -2, 6: 3, 7: 8, 8: 8,
                         9: 4, 10: -5, 11: -14, 12: -20, 13: -10, 14: 5,
                         15: 20, 16: 25, 17: 20, 19: -20, 20: -25, 21: -20,
                         22: -5, 23: 10, 24: 20, 25: 14, 26: 5, 27: -4,
                         28: -8, 29: -8, 30: -3, 31: 2, 32: 2, 33: 2, 34: 1,
                         36: -1}),
            "8.14": ((10, 20), [1, 3, 5, 8, 10, 10, 10, 8, 5, 3, 1],
                     {0: 1, 2: 1, 3: 2, 4: 3, 5: 2, 6: 4, 7: 6, 8: 4, 9: 6,
                      10: 6, 11: 6, 12: 4, 13: 6, 14: 4, 15: 2, 16: 3, 17: 2,
                      18: 1, 20: 1}),
            "8.15": ((10, 20), [1, -3, 1, 4, -2, -2, -2, 4, 1, -3, 1],
                     {0: 1, 2: -1, 3: -2, 4: -3, 5: 2, 6: 4, 7: 6, 8: 2,
                      9: -6, 10: -6, 11: -6, 12: 2, 13: 6, 14: 4, 15: 2,
                      16: -3, 17: -2, 18: -1, 20: 1}),
            "8.18a": ((16, 20), None,
                      {0: 1, 2: 1, 3: 2, 4: 4, 5: 2, 6: 7, 7: 8, 8: 13, 9: 12,
                       10: 22, 11: 24, 12: 37, 13: 36, 14: 55, 15: 62, 16: 85,
                       17: 86, 18: 122, 19: 134, 20: 173}),
            "8.21a": ((20, 40),
                      [1, 4, 9, 18, 31, 46, 64, 82, 96, 106, 110, 106, 96, 82,
                       64, 46, 31, 18, 9, 4, 1], None),
            "8.22": ((20, 40),
                     [1, -4, 3, 6, -7, -2, -4, 10, 6, -10, 2, -10, 6, 10, -4,
                      -2, -7, 6, 3, -4, 1], None),
        }
        for entry_id, (caps, cols, rows) in data.items():
            entry = get_entry(entry_id)
            series = entry.build_lhs(Caps.of(caps))
            col_sums = {}
            row_sums = {}
            for expo, value in series.terms.items():
                col_sums[expo[0]] = col_sums.get(expo[0], 0) + value
                row_sums[expo[1]] = row_sums.get(expo[1], 0) + value
            if cols is not None:
                got_cols = [col_sums.get(a, 0) for a in range(len(cols))]
                assert got_cols == cols, entry_id
            if rows is not None:
                assert {k: v for k, v in row_sums.items() if v} == \
                    {k: Fraction(v) for k, v in rows.items()}, entry_id
        # the unrestricted column sums run over unbounded rows, so they are
        # checked against the y=1 closed form 1/((1-x)^3 (1-x^2)^2 (1-x^3))
        from vpvlab.series import unit_binomial_pow
        xcaps = Caps.of([14])
        closed = Series.one(("x",), xcaps)
        for mono, repeat in (((1,), 3), ((2,), 2), ((3,), 1)):
            for _ in range(repeat):
                closed = closed * unit_binomial_pow(mono, -1, ("x",), xcaps, sign=-1)
        printed = [1, 3, 8, 17, 33, 58, 97, 153, 233, 342, 489, 681, 930,
                   1245, 1641]
        assert [closed.coefficient((a,)) for a in range(15)] == printed
        # order-5 rows spot values from the printed expansion
        series = get_entry("8.21a").build_lhs(Caps.of([20, 40]))
        rows = {}
        for expo, value in series.terms.items():
            rows[expo[1]] = rows.get(expo[1], 0) + value
        for b, v in ((5, 6), (12, 34), (20, 54), (33, 10), (40, 1)):
            assert rows.get(b, 0) == v, b
        # the weighted order-5 grid against its golden file
        from vpvlab.lattice import PartitionGrid
        wcaps = Caps.of([9, 13])
        weighted = get_entry("8.14.03").build_lhs(wcaps)
        assert PartitionGrid.from_series(weighted, wcaps).to_csv() == \
            _read_golden("weighted_814_9x13.csv")
        assert weighted.coefficient((2, 8)) == Fraction(-13, 480)
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        _stamp(10, start)

    def test_criterion_11_binary_suite(self):
        start = time.perf_counter()
        from vpvlab.binary import (b_indicator, beta2_grid, binary_count,
                                   binary_count_series, repunits)
        series = binary_count_series(20)
        printed = [1, 1, 2, 2, 4, 4, 6, 6, 10, 10, 14, 14, 20, 20, 26, 26, 36,
                   36, 46, 46, 60]
        for n, b in enumerate(printed):
            assert series.coefficient((n,)) == b
        binary_count(64)  # raises internally if the 11.08 route disagrees
        _verify_ids(["7.23a", "7.24", "7.25a", "12.04", "12.1", "12.05",
                     "12.01", "12.03", "11.06a", "11.08"])
        grid = beta2_grid(Caps.of([13, 13]))  # asserts all four routes agree
        assert grid.cell(3, 6) == 2
        masks = set(repunits(2, 1023))
        for total in range(1, 1024):
            for a in range(total + 1):
                b = total - a
                expected = 1 if (total in masks and a & b == 0
                                 and (a | b) == total) else 0
                assert b_indicator(a, b) == expected
        for base, spots in ((3, [((1, 3), 1), ((4, 9), 1), ((2, 2), 0),
                                 ((10, 3), 1)]),
                            (10, [((101, 10), 1), ((100, 11), 1),
                                  ((12, 0), 0), ((110, 1), 1)])):
            for (a, b), v in spots:
                assert b_indicator(a, b, base) == v, (base, a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 120
        _stamp(11, start)

    def test_criterion_12_property_suites(self):
        start = time.perf_counter()
        import random
        rng = random.Random(12)
        names = ("y", "z")
        caps = Caps.of([6, 6])

        def rand_series(n_terms=6):
            terms = {}
            for _ in range(n_terms):
                expo = (rng.randint(0, 6), rng.randint(0, 6))
                terms[expo] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            return Series(names, caps, EXACT, terms)

        for _ in range(25):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
        small = Caps.of([5, 5])
        for _ in range(100):
            terms = {(0, 0): Fraction(1)}
            for _ in range(rng.randint(0, 6)):
                expo = (rng.randint(0, 5), rng.randint(0, 5))
                if expo != (0, 0):
                    terms[expo] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            u = Series(names, small, EXACT, terms)
            assert u.log().exp() == u
        from vpvlab.series import polylog
        zcaps = Caps.of([7])
        z = Series.variable("z", ("z",), zcaps)
        for s in range(-3, 5):
            assert polylog(s - 1, (1,), ("z",), zcaps) == \
                z * polylog(s, (1,), ("z",), zcaps).derivative("z")
        # oracle-equivalence sweep over integer-coefficient left sides
        for entry_id, mode in (("8.00a-2d", "unrestricted"),
                               ("8.00b-2d", "distinct"),
                               ("8.09.03", "distinct"),
                               ("8.11.03", "distinct_parity_diff")):
            entry = get_entry(entry_id)
            report = verify_identity(entry)
            assert report.passed, entry_id
        # reciprocal duality
        for pos_id, neg_id in (("13.02", "13.03"), ("14.02", "14.03"),
                               ("14.07", "14.08"), ("13.24", None)):
            if neg_id is None:
                continue
            pos = get_entry(pos_id).build_lhs(caps)
            neg = get_entry(neg_id).build_lhs(caps)
            assert pos * neg == Series.one(names, caps)
        # plus-minus splice
        for plus_id, minus_id in (("13.04", "13.03"), ("14.04", "14.03"),
                                  ("14.09", "14.08"), ("13.38", "13.24"),
                                  ("13.42", "13.33")):
            entry = get_entry(plus_id)
            caps_p = Caps.of(tuple(min(c, 4) for c in entry.caps))
            plus = entry.build_lhs(caps_p)
            minus = get_entry(minus_id).build_lhs(caps_p)
            squared = minus.substitute({n: (1, {n: 2}) for n in entry.names},
                                       entry.names, caps_p)
            assert plus * minus == squared, plus_id
        # the negative fixture: weight exponents not summing to one must fail
        from vpvlab import closedform as cf
        from vpvlab.catalog import IdentityEntry
        from vpvlab.lattice import LatticeRegion, ProductSpec, WeightExpr
        bad = IdentityEntry(
            id="negative-fixture", mode=EXACT, caps=(4, 4), names=names,
            lhs=ProductSpec(
                region=LatticeRegion(arity=2, lower=(1, 1), coprime=True),
                factor=WeightExpr(sign=-1, direction=-1, powers=(-1, -1)),
                names=names),
            rhs=cf.exp_expr(cf.mul(cf.polylog_expr(1, {"y": 1}),
                                   cf.polylog_expr(1, {"z": 1}))))
        assert not verify_identity(bad).passed
        elapsed = time.perf_counter() - start
        assert elapsed < 120
        _stamp(12, start)
