import dataclasses
import hashlib
import json
import math
import os
from fractions import Fraction

import pytest

from vpvlab import lattice
from vpvlab.catalog import (IdentityEntry, OracleSide, _coefficient_of_exp, catalog,
                            catalog_ids, entry_from_json, get_entry, verify_identity)
from vpvlab.lattice import LatticeRegion, ProductSpec, WeightExpr, product_series
from vpvlab.series import Caps, EXACT, Series, first_mismatch

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

REQUIRED_IDS = [
    "13.02", "13.03", "13.04", "13.05", "13.06", "13.07",
    "13.09", "13.10", "13.11", "13.12", "13.13", "13.14", "13.15", "13.16",
    "13.18", "13.19", "13.20", "13.21", "13.22", "13.23",
    "13.24", "13.25", "13.26", "13.27", "13.28",
    "13.29", "13.30", "13.31", "13.32", "13.33", "13.34", "13.35", "13.36",
    "13.38", "13.39", "13.40", "13.41", "13.42", "13.43", "13.44", "13.45",
    "14.01a", "14.01b", "14.02", "14.03", "14.04", "14.05", "14.06",
    "14.07", "14.08", "14.09", "14.10", "14.11", "14.12",
    "14.15", "14.16", "14.16a",
    "14.17", "14.18", "14.19", "14.20", "14.21", "14.22", "14.23",
    "16.57b", "16.57c", "16.57d", "16.57e", "16.57f", "16.57g", "16.57h",
    "16.57i", "16.59", "16.60", "16.62",
    "8.00a-1d", "8.00a-2d", "8.00b-1d", "8.00b-2d",
    "8.01", "8.01a", "8.01b", "8.06", "8.07",
    "8.07.01", "8.07.02", "8.07.03", "8.07.04",
    "8.07.01a", "8.07.02a", "8.07.03a", "8.07.04a",
    "8.09.03", "8.10.03", "8.11.03", "8.12.02", "8.13.03", "8.14.03",
    "7.23a", "7.24", "7.25a", "11.06a", "11.08",
    "11b14", "11b25-3", "11b31",
    "12.01", "12.04", "12.05", "12.1",
]


class TestCatalogShape:
    def test_size(self):
        assert len(catalog()) >= 70

    def test_every_gating_entry_passes_and_every_probe_fails(self):
        for entry in catalog():
            report = verify_identity(entry)
            if entry.expected == "pass":
                assert report.passed, (entry.id, report.mismatch)
            else:
                assert not report.passed, entry.id

    def test_required_ids_present(self):
        ids = set(catalog_ids())
        missing = [i for i in REQUIRED_IDS if i not in ids]
        assert not missing, missing

    def test_16_57b_anchor(self):
        entry = get_entry("16.57b")
        assert r"= \sqrt{\frac{1}{1-z}}" in entry.tex_anchor

    def test_radial_specials_present(self):
        ids = set(catalog_ids())
        for q in ("1/2", "2/3", "3/4", "4/5", "5/6"):
            assert f"13.03@y={q}" in ids
            assert f"14.03@y={q}" in ids
        for q in ("2", "3/2", "4/3", "5/4", "6/5"):
            assert f"13.02@y={q}" in ids
            assert f"14.02@y={q}" in ids

    def test_unknown_entry_raises(self):
        with pytest.raises(KeyError):
            get_entry("bogus")

    @pytest.mark.parametrize("entry_id", [
        "13.02", "13.04", "13.24", "13.30", "13.34", "13.39",
        "14.02", "14.05", "14.11", "14.17", "14.21",
        "16.57b", "16.57f", "16.59", "16.62",
        "7.23a", "12.1", "12.05", "11b14", "8.09.03"])
    def test_entries_stable_under_cap_bump(self, entry_id):
        # growing every cap by one must still verify (truncation boundaries)
        entry = get_entry(entry_id)
        bumped = tuple(c + 1 for c in entry.caps)
        assert verify_identity(entry, caps=bumped).passed

    def test_entry_1205_default_caps(self):
        assert tuple(get_entry("12.05").caps) == (8, 8, 8)

    def test_built_sides_carry_entry_names(self):
        for entry in catalog():
            caps = Caps.of(tuple(min(c, 2) for c in entry.caps))
            for side in (entry.build_lhs, entry.build_rhs):
                assert side(caps).names == tuple(entry.names), entry.id

    def test_closure_side_counts(self):
        # sides the spec vocabulary can state are data, not closures
        entries = catalog()
        assert sum(callable(e.lhs) for e in entries) <= 6
        assert sum(callable(e.rhs) for e in entries) <= 11


def expand_hashes():
    """sha256 of `Series.dumps()` for both sides of every exact catalog entry
    at its catalog caps, keyed by entry id; approx entries are left out, since
    their floats depend on the platform's libm."""
    hashes = {}
    for entry in catalog():
        if entry.mode != EXACT:
            continue
        caps = Caps.of(entry.caps)
        hashes[entry.id] = {
            side: hashlib.sha256(build(caps).dumps().encode()).hexdigest()
            for side, build in (("lhs", entry.build_lhs), ("rhs", entry.build_rhs))}
    return hashes


class TestExpandHashes:
    """Exact expansions stay byte-identical to `golden/expand_sha256.json`."""

    def test_exact_documents_match_golden(self):
        with open(os.path.join(GOLDEN, "expand_sha256.json"), encoding="utf-8") as f:
            golden = json.load(f)
        hashes = expand_hashes()
        assert len(golden) == 155 and list(hashes) == list(golden)
        for entry_id, sides in golden.items():
            for side, digest in sides.items():
                assert hashes[entry_id][side] == digest, \
                    f"{entry_id} {side} differs from golden"


# the three approx entries of the benchmark's `deep` workload, one cap step up
APPROX_DEEP_CAPS = (("13.05", (14, 14)), ("13.14", (6, 6, 7)), ("13.15", (4, 4, 4, 5)))


def approx_hashes():
    """sha256 of each side's floats, `[(exponent, float.hex)]` in `nums` dict
    order, for every approx catalog entry at its catalog caps (keyed by id)
    and at the `APPROX_DEEP_CAPS` (keyed by id@caps).  Dict order and every
    bit count: the pin holds on libms that round `pow` as glibc's does."""
    cases = [(e.id, e, e.caps) for e in catalog() if e.mode != EXACT]
    cases += [(f"{i}@{','.join(map(str, caps))}", get_entry(i), caps)
              for i, caps in APPROX_DEEP_CAPS]
    hashes = {}
    for key, entry, caps in cases:
        caps = Caps.of(caps)
        hashes[key] = {
            side: hashlib.sha256(json.dumps(
                [(e, v.hex()) for e, v in build(caps).nums.items()]).encode()).hexdigest()
            for side, build in (("lhs", entry.build_lhs), ("rhs", entry.build_rhs))}
    return hashes


class TestApproxHashes:
    """Approx sides stay bit-identical, in dict order, to `golden/approx_sha256.json`."""

    def test_approx_sides_match_golden(self):
        with open(os.path.join(GOLDEN, "approx_sha256.json"), encoding="utf-8") as f:
            golden = json.load(f)
        hashes = approx_hashes()
        assert len(golden) == 17 and list(hashes) == list(golden)
        for key, sides in golden.items():
            for side, digest in sides.items():
                assert hashes[key][side] == digest, f"{key} {side} differs from golden"


def report_hashes():
    """sha256 of every catalog entry's `verify` report at its catalog caps,
    keyed by entry id: the report JSON as `verify` prints it, without
    `wall_time_s` and, for approx entries, without `max_rel_error`, which
    depends on the platform's libm."""
    hashes = {}
    for entry in catalog():
        report = verify_identity(entry).to_json()
        del report["wall_time_s"]
        if entry.mode != EXACT:
            report.pop("max_rel_error", None)
        hashes[entry.id] = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
    return hashes


class TestReportHashes:
    """Verdicts, mismatches and term counts stay byte-identical to
    `golden/verify_sha256.json`."""

    def test_reports_match_golden(self):
        with open(os.path.join(GOLDEN, "verify_sha256.json"), encoding="utf-8") as f:
            golden = json.load(f)
        hashes = report_hashes()
        assert len(golden) == 169 and list(hashes) == list(golden)
        for entry_id, digest in golden.items():
            assert hashes[entry_id] == digest, f"{entry_id} report differs from golden"


class TestSpotValues:
    def test_13_24_passes_at_6_6(self):
        report = verify_identity(get_entry("13.24"), caps=(6, 6))
        assert report.passed

    def test_14_05_passes_at_12(self):
        report = verify_identity(get_entry("14.05"), caps=(12,))
        assert report.passed

    def test_13_34_corrected_passes_at_4_4_6(self):
        report = verify_identity(get_entry("13.34"), caps=(4, 4, 6))
        assert report.passed

    def test_13_18_sqrt2_coefficient(self):
        entry = get_entry("13.18")
        lhs = entry.build_lhs(Caps.of([6]))
        assert lhs.coefficient((2,)) == pytest.approx(1.0, abs=1e-9)
        assert lhs.coefficient((3,)) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_13_19_cbrt_coefficient(self):
        entry = get_entry("13.19")
        lhs = entry.build_lhs(Caps.of([5]))
        assert lhs.coefficient((4,)) == pytest.approx(3 * 2 ** (-1 / 3), abs=1e-9)
        assert lhs.coefficient((3,)) == pytest.approx(1.0, abs=1e-9)

    def test_14_03_special_value(self):
        # at y=1/2 the product collapses to (2-2z)/(2-z)
        entry = get_entry("14.03@y=1/2")
        lhs = entry.build_lhs(Caps.of([6]))
        assert lhs.coefficient((1,)) == Fraction(-1, 2)
        assert lhs.coefficient((2,)) == Fraction(-1, 4)
        assert verify_identity(entry).passed

    def test_13_03_special_finite_polynomial(self):
        entry = get_entry("13.03@y=3/4")
        lhs = entry.build_lhs(Caps.of([10]))
        assert dict(lhs.terms) == {(0,): 1, (1,): -3, (2,): 3, (3,): -1}


class TestLogRoute:
    def test_routes_agree_on_every_exact_entry(self):
        """The log route gives the expanded comparison's verdict and mismatch."""
        log_routed = 0
        for entry in catalog():
            if entry.mode != EXACT:
                continue
            report = verify_identity(entry)
            caps = Caps.of(entry.caps)
            expanded = first_mismatch(entry.build_lhs(caps), entry.build_rhs(caps))
            assert report.passed == (expanded is None), entry.id
            if expanded is not None:
                expo, lhs, rhs = expanded
                assert report.mismatch == {
                    "e": list(expo), "lhs": f"{lhs.numerator}/{lhs.denominator}",
                    "rhs": f"{rhs.numerator}/{rhs.denominator}"}, entry.id
            # every exact entry with a product left side and a tree or
            # product right side has a log form
            product_tree = isinstance(entry.lhs, ProductSpec) and \
                isinstance(entry.rhs, (dict, ProductSpec))
            assert (report.route == "log") == product_tree, entry.id
            log_routed += product_tree
        assert log_routed == 122
        # a product-against-product probe keeps its recorded mismatch
        report = verify_identity(get_entry("12.05-printed"))
        assert report.route == "log"
        assert report.mismatch == {"e": [1, 1, 2], "lhs": "0/1", "rhs": "1/1"}

    def test_mismatch_coefficients_are_read_from_the_logs(self):
        """On every log-route probe, the coefficients a failing report gives
        are those of the sides expanded on the box below the mismatch."""
        probes = 0
        for entry in catalog():
            if entry.expected == "pass" or verify_identity(entry).route != "log":
                continue
            caps = Caps.of(entry.caps)
            lhs, rhs = entry.build_lhs(caps, log=True), entry.build_rhs(caps, log=True)
            expo = first_mismatch(lhs, rhs)[0]
            box = Caps.of(expo)
            assert _coefficient_of_exp(lhs, expo) == entry.build_lhs(box).coefficient(expo)
            assert _coefficient_of_exp(rhs, expo) == entry.build_rhs(box).coefficient(expo)
            probes += 1
        assert probes == 15

    def test_tree_without_log_form_is_expanded(self):
        entry = get_entry("13.02")
        tree = {"op": "add", "args": [entry.rhs]}
        report = verify_identity(IdentityEntry(
            id="13.02-add", mode=EXACT, caps=entry.caps, names=entry.names,
            lhs=entry.lhs, rhs=tree))
        assert report.passed and report.route is None
        assert (report.lhs_terms, report.rhs_terms) == (65, 65)

    def test_tolerance_keeps_the_expanded_comparison(self):
        report = verify_identity(get_entry("13.02"), tolerance=1e-12)
        assert report.passed and report.route is None


class TestProbes:
    def test_probe_entries_fail_as_recorded(self):
        probes = [e for e in catalog() if e.expected == "errata-probe"]
        assert len(probes) >= 10
        for entry in probes:
            assert not verify_identity(entry).passed, entry.id

    def test_probe_ids_documented_in_errata(self):
        with open(os.path.join(GOLDEN, "errata.json"), encoding="utf-8") as f:
            errata = json.load(f)
        ids = {finding["id"] for finding in errata["findings"]}
        assert "16.57g" in ids and "14.11-14.12" in ids and "12.05" in ids
        assert "club2-grid-row2" in ids


class TestNegativeFixture:
    def test_weight_sum_violation_fails(self):
        # 13.08 with b = (1, 1): the identity genuinely fails
        from vpvlab import closedform as cf
        from vpvlab.lattice import LatticeRegion, ProductSpec, WeightExpr
        region = LatticeRegion(arity=2, lower=(1, 1), coprime=True)
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1,
                                             powers=(-1, -1)),
                           names=("y", "z"))
        bad = IdentityEntry(
            id="negative-fixture", mode=EXACT, caps=(4, 4), names=("y", "z"),
            lhs=spec,
            rhs=cf.exp_expr(cf.mul(cf.polylog_expr(1, {"y": 1}),
                                   cf.polylog_expr(1, {"z": 1}))))
        report = verify_identity(bad)
        assert not report.passed
        assert report.mismatch is not None

    def test_custom_entry_weight_sum_guard(self):
        doc = {
            "id": "custom-bad",
            "mode": "exact",
            "caps": [4, 4],
            "lhs": {
                "region": {"arity": 2, "lower": [1, 1], "order": "none",
                           "coprime": True, "base_powers": None},
                "weight": {"sign": -1, "direction": -1, "powers": ["-1", "-1"]},
                "mapping": [0, 1],
                "vars": ["y", "z"],
            },
            "rhs": {"op": "exp", "arg": {"op": "mul", "args": [
                {"op": "polylog", "s": "1", "exps": {"y": 1}},
                {"op": "polylog", "s": "1", "exps": {"z": 1}}]}},
            "enforce_weight_sum": True,
        }
        with pytest.raises(ValueError):
            entry_from_json(doc)


class TestCustomEntries:
    def test_custom_json_roundtrip(self):
        doc = {
            "id": "custom-13.02",
            "mode": "exact",
            "caps": [5, 5],
            "lhs": {
                "region": {"arity": 2, "lower": [1, 1], "order": "none",
                           "coprime": True, "base_powers": None},
                "weight": {"sign": -1, "direction": -1, "powers": ["0", "-1"]},
                "mapping": [0, 1],
                "vars": ["y", "z"],
            },
            "rhs": {"op": "pow",
                    "base": {"op": "div_unit",
                             "num": {"op": "const", "value": "1"},
                             "den": {"op": "unit_binomial", "sign": -1,
                                     "scalar": "1", "exps": {"z": 1}}},
                    "exponent": {"op": "div_unit",
                                 "num": {"op": "mono", "exps": {"y": 1}},
                                 "den": {"op": "unit_binomial", "sign": -1,
                                         "scalar": "1", "exps": {"y": 1}}}},
        }
        entry = entry_from_json(doc)
        assert verify_identity(entry).passed


# the entries one side of which is the counting oracle (perfbench's
# ORACLE_IDS); it is the right side except in 8.01, 8.01a and 8.01b
ORACLE_IDS = (
    "8.00a-1d", "8.00b-1d", "8.00a-2d", "8.00b-2d", "8.01", "8.01a", "8.01b",
    "8.06", "8.07", "8.08", "8.08-neg", "8.09.03", "8.09.04", "8.10.03",
    "8.11.03", "8.12.02", "8.13.03", "8.14", "8.15", "8.18a", "8.21a", "8.22",
)


def test_oracle_sides_walk_their_regions(monkeypatch):
    """The oracle's part list comes from `ProductSpec.vectors`, never from
    the counted histogram the product builder uses, so a fault in the count
    cannot make a product agree with its own oracle."""
    entries = []
    for e in map(get_entry, ORACLE_IDS):
        # the other side is built now, before the count is broken
        key = "lhs" if isinstance(e.rhs, OracleSide) else "rhs"
        assert isinstance(getattr(e, "rhs" if key == "lhs" else "lhs"), OracleSide)
        side = getattr(e, f"build_{key}")(Caps.of(e.caps))
        entries.append(dataclasses.replace(e, **{key: lambda caps, side=side: side}))

    def refuse(spec, caps):
        raise AssertionError("the region was counted")

    monkeypatch.setattr(lattice, "image_histogram", refuse)
    with pytest.raises(AssertionError, match="counted"):
        product_series(get_entry("8.06").lhs, Caps.of((2, 2, 2)))
    for e in entries:
        assert verify_identity(e).passed, e.id


class TestInvariantFamilies:
    def test_reciprocal_duality(self):
        caps = Caps.of([6, 6])
        for pos_id, neg_id in (("13.02", "13.03"), ("14.02", "14.03"),
                               ("14.07", "14.08")):
            pos = get_entry(pos_id).build_lhs(caps)
            neg = get_entry(neg_id).build_lhs(caps)
            assert pos * neg == Series.one(pos.names, caps), pos_id

    def test_euler_pair_duality(self):
        caps = Caps.of([8])
        for eq in ("16.57b", "16.57c", "16.57d", "16.57e"):
            pos = get_entry(eq).build_lhs(caps)
            neg = get_entry(eq + "-inv").build_lhs(caps)
            assert pos * neg == Series.one(("z",), caps), eq

    @pytest.mark.parametrize("plus_id,minus_id", [
        ("13.04", "13.03"), ("14.04", "14.03"), ("14.09", "14.08"),
        ("13.38", "13.24"), ("13.39", "13.25"), ("13.40", "13.26"),
        ("13.41", "13.27"), ("13.42", "13.33"), ("13.43", "13.34"),
        ("13.44", "13.35"), ("13.45", "13.36")])
    def test_plus_minus_splice(self, plus_id, minus_id):
        plus_entry = get_entry(plus_id)
        caps = Caps.of(tuple(min(c, 4) for c in plus_entry.caps))
        names = plus_entry.names
        plus = plus_entry.build_lhs(caps)
        minus = get_entry(minus_id).build_lhs(caps)
        squared = minus.substitute({n: (1, {n: 2}) for n in names}, names, caps)
        assert plus * minus == squared

    def test_plus_minus_splice_approx(self):
        # the irrational-weight splice: 13.07 against 13.06
        from vpvlab.series import max_rel_error
        caps = Caps.of([6, 6])
        names = ("y", "z")
        plus = get_entry("13.07").build_lhs(caps)
        minus = get_entry("13.06").build_lhs(caps)
        squared = minus.substitute({n: (1, {n: 2}) for n in names}, names, caps)
        assert max_rel_error(plus * minus, squared) <= 1e-9

    def test_pyramid_quadrant_consistency(self):
        # full quadrant product = (j <= k part) * (j > k part); the strictly
        # lower triangle is the strict upper triangle with axes swapped, so
        # the weight 1/k lands on the swapped component
        from vpvlab.lattice import (LatticeRegion, ProductSpec, WeightExpr,
                                    ORDER_ALL_BELOW_LAST,
                                    ORDER_ALL_BELOW_LAST_STRICT)
        caps = Caps.of([6, 6])
        names = ("y", "z")
        full = ProductSpec(
            region=LatticeRegion(arity=2, lower=(1, 1), coprime=True),
            factor=WeightExpr(sign=-1, direction=-1, powers=(0, -1)),
            names=names)
        upper = ProductSpec(
            region=LatticeRegion(arity=2, lower=(1, 1), coprime=True,
                                 order=ORDER_ALL_BELOW_LAST),
            factor=WeightExpr(sign=-1, direction=-1, powers=(0, -1)),
            names=names)
        lower = ProductSpec(
            region=LatticeRegion(arity=2, lower=(1, 1), coprime=True,
                                 order=ORDER_ALL_BELOW_LAST_STRICT),
            factor=WeightExpr(sign=-1, direction=-1, powers=(-1, 0)),
            mapping=(1, 0), names=names)
        full_s = product_series(full, caps)
        upper_s = product_series(upper, caps)
        lower_s = product_series(lower, caps)
        assert full_s == upper_s * lower_s

    def test_diagonal_substitution_route(self):
        # 13.18's merged product equals the substituted 13.13 expansion
        entry_2d = get_entry("13.13")
        caps2 = Caps.of([6, 6])
        grid2 = entry_2d.build_lhs(caps2)
        diag = grid2.substitute({"y": (1, {"z": 1}), "z": (1, {"z": 1})},
                                ("z",), Caps.of([6]))
        merged = get_entry("13.18").build_lhs(Caps.of([6]))
        for n in range(7):
            a = diag.terms.get((n,), 0.0)
            b = merged.terms.get((n,), 0.0)
            assert a == pytest.approx(b, abs=1e-9)
