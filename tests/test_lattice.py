import dataclasses
import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vpvlab import catalog as catalog_mod
from vpvlab import lattice as lattice_mod
from vpvlab.lattice import (DISTINCT, DISTINCT_PARITY_DIFF, EXACTLY_K,
                            UNRESTRICTED,
                            LatticeRegion, LocalFactorFamily, PartitionGrid,
                            ProductSpec, RegionError, WeightExpr,
                            ORDER_ALL_BELOW_LAST, ORDER_ALL_BELOW_LAST_STRICT,
                            ORDER_NONE, ORDER_STRICT_CHAIN,
                            coprime_geometric_value, count_exactly_k, count_grid,
                            count_partitions, euler_phi,
                            grid, image_histogram, moebius, product_series,
                            DISTINCT_BINOMIAL, GEOMETRIC, MULTIPLICITY, SQUARE,
                            ODD_ONLY, _members)
from vpvlab.series import (APPROX, Caps, EXACT, NoLogForm, Series, SeriesError,
                           unit_binomial_pow)


ALL_PARTS_8 = [p for p in itertools.product(range(9), repeat=2) if p != (0, 0)]


class TestNumberTheoryHelpers:
    def test_euler_phi(self):
        assert [euler_phi(k) for k in range(1, 13)] == \
            [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_moebius(self):
        assert [moebius(k) for k in range(1, 13)] == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    def test_coprime_geometric_value(self):
        q = Fraction(1, 2)
        # k = 1: plain geometric sum q/(1-q)
        assert coprime_geometric_value(q, 1) == 1
        # k = 2: odd exponents only: q/(1-q^2)
        assert coprime_geometric_value(q, 2) == Fraction(2, 3)
        # k = 6: j coprime to 6, checked against the convergent float sum
        direct6 = sum(float(q) ** j for j in range(1, 200)
                      if j % 2 != 0 and j % 3 != 0)
        assert float(coprime_geometric_value(q, 6)) == pytest.approx(direct6, abs=1e-12)


ORDERS = (ORDER_NONE, ORDER_ALL_BELOW_LAST, ORDER_ALL_BELOW_LAST_STRICT,
          ORDER_STRICT_CHAIN)


@st.composite
def regions_with_bounds(draw):
    order = draw(st.sampled_from(ORDERS))
    arity = draw(st.integers(2, 4))
    region = LatticeRegion(
        arity=arity, order=order,
        lower=tuple(draw(st.integers(0, 1)) for _ in range(arity)),
        coprime=draw(st.booleans()),
        base_powers=draw(st.sampled_from([None, None, 2, 3])),
        upper=draw(st.none() | st.tuples(*[st.none() | st.integers(0, 6)] * arity)),
        unit_counts=draw(st.none() | st.lists(st.integers(0, arity), unique=True)))
    return region, tuple(draw(st.integers(0, 5)) for _ in range(arity))


def members(region, bounds) -> list:
    """The region members within the bounds, lex sorted."""
    return sorted(_members(region, bounds))


class TestEnumerateRegion:
    def test_upper_vpv_order5(self):
        region = LatticeRegion(arity=2, lower=(1, 1), coprime=True,
                               order=ORDER_ALL_BELOW_LAST_STRICT)
        got = members(region, (5, 5))
        expected = {(1, 2), (1, 3), (2, 3), (1, 4), (3, 4),
                    (1, 5), (2, 5), (3, 5), (4, 5)}
        assert set(got) == expected
        assert got == sorted(got)

    def test_strict_chain(self):
        region = LatticeRegion(arity=3, lower=(1, 1, 1), order=ORDER_STRICT_CHAIN)
        got = members(region, (4, 4, 4))
        assert set(got) == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}

    def test_power_of_two_region(self):
        region = LatticeRegion(arity=2, lower=(1, 1), base_powers=2)
        got = members(region, (2, 2))
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]
        with pytest.raises(RegionError):
            LatticeRegion(arity=2, base_powers=1)

    def test_unit_counts(self):
        region = LatticeRegion(arity=3, lower=(1, 1, 1), unit_counts=(1, 3))
        got = members(region, (2, 2, 2))
        assert got == [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
        assert LatticeRegion.from_json(region.to_json()) == region
        for bad in ((1, 1), (4,), (0.5,), ("1",), 1):
            with pytest.raises(RegionError):
                LatticeRegion(arity=3, unit_counts=bad)

    def test_upper_clips_axes_before_enumerating(self, monkeypatch):
        # only the 3 x 2 clipped box is tested, not the 1000 x 1000 one
        region = LatticeRegion(arity=2, lower=(1, 0), upper=(3, 1))
        tested = 0
        contains = LatticeRegion.contains

        def counting(self, vec):
            nonlocal tested
            tested += 1
            return contains(self, vec)

        monkeypatch.setattr(LatticeRegion, "contains", counting)
        got = members(region, (1000, 1000))
        assert got == [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
        assert tested == 6
        # an upper bound above the caller's bound changes nothing
        assert members(LatticeRegion(arity=2, upper=(None, 9)), (2, 2)) == \
            members(LatticeRegion(arity=2), (2, 2))

    def test_origin_never_included(self):
        region = LatticeRegion(arity=2, lower=(0, 0))
        assert (0, 0) not in members(region, (2, 2))

    @settings(max_examples=300, deadline=None)
    @given(case=regions_with_bounds())
    def test_matches_filtered_box(self, case):
        region, bounds = case
        box = itertools.product(*(range(lo, b + 1)
                                  for lo, b in zip(region.lower, bounds)))
        assert members(region, bounds) == \
            [vec for vec in box if region.contains(vec)]


class TestCountPartitions:
    def test_p2_examples(self):
        parts = [p for p in ALL_PARTS_8 if p[0] >= 1 and p[1] >= 1]
        assert count_partitions((1, 1), parts) == 1
        assert count_partitions((2, 2), parts) == 2
        assert count_partitions((3, 2), parts) == 2

    def test_club_oracle_at_most_three(self):
        assert count_exactly_k((3, 3), ALL_PARTS_8, 3) == 19
        assert count_partitions((3, 3), ALL_PARTS_8, EXACTLY_K, 3) == 19

    def test_zero_target(self):
        assert count_partitions((0, 0), ALL_PARTS_8) == 1
        assert count_partitions((0, 0), ALL_PARTS_8, DISTINCT) == 1
        # grids put 1 at the origin for every order (zero-padding semantics)
        assert count_exactly_k((0, 0), ALL_PARTS_8, 3) == 1

    def test_distinct_vpv_example(self):
        parts = [(1, 2), (1, 3), (2, 3)]
        assert count_partitions((2, 5), parts, DISTINCT) == 1

    def test_parity_diff_single_factor(self):
        # the (1 - x y^2) product: even minus odd subset counts
        assert count_partitions((1, 2), [(1, 2)], DISTINCT_PARITY_DIFF) == -1

    def test_club_grid_row_resolution(self):
        # the discrepant printed cells: oracle says 40 and 50
        assert count_exactly_k((7, 2), ALL_PARTS_8, 3) == 40
        assert count_exactly_k((2, 7), ALL_PARTS_8, 3) == 40
        assert count_exactly_k((8, 2), ALL_PARTS_8, 3) == 50


def brute_count(target, parts, mode, k=None):
    """Partitions of `target` by direct recursive enumeration, no DP.

    Walks the nonzero, non-negative parts in turn and tries every
    multiplicity that still fits (0 or 1 for the subset modes); the
    at-most-k mode also stops once k parts are used.
    """
    parts = [tuple(p) for p in parts if any(p) and min(p) >= 0]

    def walk(i, rest, size):
        if i == len(parts):
            if any(rest):
                return 0
            return (-1) ** size if mode == DISTINCT_PARITY_DIFF else 1
        total, used = 0, 0
        while min(rest, default=0) >= 0:
            if mode == EXACTLY_K and size + used > k:
                break
            total += walk(i + 1, rest, size + used)
            if mode in (DISTINCT, DISTINCT_PARITY_DIFF) and used == 1:
                break
            used += 1
            rest = tuple(r - p for r, p in zip(rest, parts[i]))
        return total

    return walk(0, tuple(target), 0)


@st.composite
def boxes_with_parts(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    box = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(dim))
    part = st.tuples(*[st.integers(min_value=-1, max_value=4)] * dim)
    return box, draw(st.lists(part, max_size=5))


ORACLE_MODES = [(UNRESTRICTED, None), (DISTINCT, None),
                (DISTINCT_PARITY_DIFF, None),
                (EXACTLY_K, 1), (EXACTLY_K, 2), (EXACTLY_K, 3)]


class TestCountGrid:
    @pytest.mark.parametrize("mode,k", ORACLE_MODES)
    @settings(max_examples=40, deadline=None)
    @given(case=boxes_with_parts())
    def test_matches_enumeration_at_every_cell(self, mode, k, case):
        box, parts = case
        counts = count_grid(box, parts, mode, k)
        cells = list(itertools.product(*(range(b + 1) for b in box)))
        assert list(counts) == cells
        for cell in cells:
            assert counts[cell] == brute_count(cell, parts, mode, k), cell
            assert counts[cell] == count_partitions(cell, parts, mode, k), cell

    def test_exactly_k_grid_and_single_cell_views(self):
        grid3 = count_grid((8, 8), ALL_PARTS_8, EXACTLY_K, 3)
        assert grid3[(3, 3)] == 19
        assert grid3[(7, 2)] == count_exactly_k((7, 2), ALL_PARTS_8, 3) == 40

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            count_grid((2, 2), ALL_PARTS_8, "bogus")
        with pytest.raises(ValueError):
            count_grid((2, 2), ALL_PARTS_8, EXACTLY_K)


class TestWeightExpr:
    @staticmethod
    def fraction_powers(vec, powers, phi_over):
        """Reference exact weight: one Fraction power per component."""
        w = Fraction(1)
        for v, p in zip(vec, powers):
            w *= Fraction(v) ** p
        if phi_over is not None:
            w *= Fraction(euler_phi(vec[phi_over]), vec[phi_over])
        return w

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exact_weight_matches_fraction_powers(self, data):
        n = data.draw(st.integers(1, 4))
        powers = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
        vec = data.draw(st.tuples(*[st.integers(0, 12)] * n))
        phi_over = data.draw(st.none() | st.integers(0, n - 1))
        w = WeightExpr(powers=powers, phi_over=phi_over)
        try:
            expected = self.fraction_powers(vec, powers, phi_over)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                w.weight(vec, EXACT)
            return
        got = w.weight(vec, EXACT)
        assert type(got) is Fraction and got == expected

    def test_mixed_powers_examples(self):
        # zero component under a zero power, phi(12)/12 = 1/3
        assert WeightExpr(powers=(0, -1)).weight((0, 3), EXACT) == Fraction(1, 3)
        assert WeightExpr(powers=(2, 0, -3), phi_over=0).weight((12, 5, 2), EXACT) \
            == Fraction(144, 8) * Fraction(1, 3)
        assert WeightExpr(powers=(1, -1)).weight((0, 4), EXACT) == 0

    def test_json_round_trip_and_validation(self):
        for w in (WeightExpr(), WeightExpr(sign=1, direction=-1, powers=(0, -1)),
                  WeightExpr(powers=(Fraction(-1, 2), Fraction(-1, 2))),
                  WeightExpr(sign=1, powers=(0, 1, -2), phi_over=2)):
            doc = w.to_json()
            assert WeightExpr.from_json(json.loads(json.dumps(doc))) == w
            assert all(type(doc[k]) is int for k in ("sign", "direction"))
        for bad in ({"sign": 1.0}, {"sign": -1.0}, {"sign": True}, {"sign": 2},
                    {"sign": None}, {"direction": True}, {"direction": -1.0},
                    {"direction": "1"}, {"phi_over": True}, {"phi_over": False},
                    {"phi_over": 1.0}, {"phi_over": "0"}):
            with pytest.raises(RegionError):
                WeightExpr.from_json({"powers": ["0", "-1"], **bad})


class TestProductSeries:
    def test_weighted_product_is_order_independent_and_deterministic(self):
        region = LatticeRegion(arity=2, lower=(1, 1), coprime=True)
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1,
                                             powers=(0, -1)),
                           names=("y", "z"))
        caps = Caps.of([5, 5])
        a = product_series(spec, caps)
        b = product_series(spec, caps)
        assert a == b

    def test_exact_mode_rejects_irrational_weight(self):
        region = LatticeRegion(arity=2, lower=(1, 1), coprime=True)
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1,
                                             powers=(Fraction(-1, 2),) * 2),
                           names=("y", "z"))
        with pytest.raises(SeriesError):
            product_series(spec, Caps.of([3, 3]), EXACT)

    def test_infinite_region_rejected(self):
        region = LatticeRegion(arity=2, lower=(1, 1))
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1, powers=(0, 0)),
                           mapping=(None, None), names=("z",))
        with pytest.raises(RegionError):
            product_series(spec, Caps.of([3]))

    def test_local_factor_families_match_defining_sums(self):
        caps = Caps.of([6, 6])
        names = ("x", "y")
        for kind in (GEOMETRIC, MULTIPLICITY, SQUARE, ODD_ONLY):
            closed = LocalFactorFamily(kind=kind).series((1, 1), names, caps, EXACT)
            truncated = LocalFactorFamily(kind=kind, defining_sum=True) \
                .series((1, 1), names, caps, EXACT)
            assert closed == truncated, kind

    def test_local_factor_family_validation(self):
        families = [LocalFactorFamily(kind=kind, defining_sum=defining)
                    for kind in (GEOMETRIC, MULTIPLICITY, SQUARE, ODD_ONLY)
                    for defining in (False, True)]
        families.append(LocalFactorFamily(kind=DISTINCT_BINOMIAL,
                                          exponent=Fraction(-3, 2), sign=-1))
        for family in families:
            assert LocalFactorFamily.from_json(family.to_json()) == family
        for bad in ({"sign": None}, {"sign": "x"}, {"sign": 1.5}, {"sign": True},
                    {"sign": 2}, {"defining_sum": "false"}, {"defining_sum": 1}):
            with pytest.raises(RegionError):
                LocalFactorFamily.from_json({"family": DISTINCT_BINOMIAL, **bad})
        for kind in (GEOMETRIC, MULTIPLICITY, SQUARE, ODD_ONLY):
            for bad in ({"exponent": "2"}, {"sign": -1}):
                with pytest.raises(RegionError):
                    LocalFactorFamily.from_json({"family": kind, **bad})

    @pytest.mark.parametrize("family", [
        LocalFactorFamily(kind=GEOMETRIC),
        LocalFactorFamily(kind=DISTINCT_BINOMIAL, exponent=Fraction(1, 2), sign=-1),
        LocalFactorFamily(kind=MULTIPLICITY)])
    def test_family_products_match_a_chain_per_vector(self, family):
        # with repeated image monomials: (a, b) -> y^(a+b)
        region = LatticeRegion(arity=2, lower=(1, 1))
        spec = ProductSpec(region=region, factor=family, mapping=(0, 0),
                           names=("y",))
        caps = Caps.of([7])
        chain = Series.one(("y",), caps)
        for vec in spec.vectors(caps):
            chain = chain * family.series(spec.image(vec, EXACT)[0], ("y",), caps,
                                          EXACT)
        assert product_series(spec, caps) == chain
        if family.kind != DISTINCT_BINOMIAL:
            summed = dataclasses.replace(
                spec, factor=dataclasses.replace(family, defining_sum=True))
            assert product_series(summed, caps) == chain
        # (a, b) -> (1/2)^a y^b with a < b
        scaled = ProductSpec(
            region=LatticeRegion(arity=2, order=ORDER_ALL_BELOW_LAST),
            factor=family, mapping=(Fraction(1, 2), 0), names=("y",))
        with pytest.raises(RegionError, match="scalar mappings"):
            product_series(scaled, caps)

    @pytest.mark.parametrize("caps", [Caps.of([5, 6]), Caps.of([7, 3])])
    @pytest.mark.parametrize("spec", [
        ProductSpec(region=LatticeRegion(arity=2, lower=(1, 1), coprime=True),
                    factor=WeightExpr(sign=-1, direction=-1, powers=(0, -1)),
                    names=("y", "z")),
        # merged images, a scalar component and a phi weight
        ProductSpec(region=LatticeRegion(arity=3, order=ORDER_ALL_BELOW_LAST),
                    factor=WeightExpr(sign=1, powers=(0, 1, -2), phi_over=2),
                    mapping=(Fraction(-1, 2), 0, 1), names=("y", "z")),
        ProductSpec(region=LatticeRegion(arity=2, lower=(1, 1)),
                    factor=LocalFactorFamily(kind=GEOMETRIC), mapping=(0, 0),
                    names=("y", "z")),
        ProductSpec(region=LatticeRegion(arity=2, lower=(0, 1)),
                    factor=LocalFactorFamily(kind=DISTINCT_BINOMIAL,
                                             exponent=Fraction(1, 2), sign=-1),
                    names=("y", "z")),
    ] + [
        # every family kind, closed form and defining sum, with merged
        # images: (a, b, c) -> y^(a+b) z^c with a, b <= c
        ProductSpec(region=LatticeRegion(arity=3, order=ORDER_ALL_BELOW_LAST),
                    factor=LocalFactorFamily(kind=kind, defining_sum=defining),
                    mapping=(0, 0, 1), names=("y", "z"))
        for kind in (GEOMETRIC, MULTIPLICITY, SQUARE, ODD_ONLY)
        for defining in (False, True)
    ])
    def test_log_form_is_the_log_of_the_product(self, spec, caps):
        log = product_series(spec, caps, log=True)
        assert log == product_series(spec, caps).log()
        assert log.exp() == product_series(spec, caps)

    @pytest.mark.parametrize("family", [
        LocalFactorFamily(kind=MULTIPLICITY),
        LocalFactorFamily(kind=GEOMETRIC, defining_sum=True)])
    def test_per_vector_families_have_no_approx_log_form(self, family,
                                                         monkeypatch):
        spec = ProductSpec(region=LatticeRegion(arity=2, lower=(1, 1)),
                           factor=family, names=("y", "z"))
        # refused before the region is walked or counted
        monkeypatch.setattr(ProductSpec, "vectors", None)
        monkeypatch.setattr(lattice_mod, "image_histogram", None)
        with pytest.raises(NoLogForm):
            product_series(spec, Caps.of([3, 3]), APPROX, log=True)

    @pytest.mark.parametrize("family", [
        LocalFactorFamily(kind=SQUARE),
        LocalFactorFamily(kind=ODD_ONLY, defining_sum=True)])
    def test_scalar_mapped_family_log_is_refused(self, family):
        # (a, b) -> (1/2)^a y^b with a <= b
        spec = ProductSpec(
            region=LatticeRegion(arity=2, order=ORDER_ALL_BELOW_LAST),
            factor=family, mapping=(Fraction(1, 2), 0), names=("y",))
        with pytest.raises(RegionError, match="scalar mappings"):
            product_series(spec, Caps.of([5]), log=True)

    def test_approx_mode_has_no_log_form(self):
        spec = ProductSpec(region=LatticeRegion(arity=2, lower=(1, 1)),
                           factor=WeightExpr(powers=(0, 0)), names=("y", "z"))
        with pytest.raises(NoLogForm):
            product_series(spec, Caps.of([3, 3]), APPROX, log=True)

    def test_odd_only_family_values(self):
        caps = Caps.of([6])
        fam = LocalFactorFamily(kind=ODD_ONLY)
        s = fam.series((1,), ("x",), caps, EXACT)
        assert [s.coefficient((k,)) for k in range(7)] == [1, 1, 0, 3, 0, 5, 0]

    def test_oracle_equivalence_unrestricted(self):
        # first-quadrant product coefficients equal multiset counts
        region = LatticeRegion(arity=2, lower=(1, 1))
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1, powers=(0, 0)),
                           names=("y", "z"))
        caps = Caps.of([6, 6])
        series = product_series(spec, caps)
        parts = [p for p in itertools.product(range(1, 7), repeat=2)]
        for expo in itertools.product(range(7), repeat=2):
            assert series.terms.get(expo, 0) == count_partitions(expo, parts)

    def test_region_monotonicity(self):
        region = LatticeRegion(arity=2, lower=(1, 1), coprime=True)
        spec = ProductSpec(region=region,
                           factor=WeightExpr(sign=-1, direction=-1,
                                             powers=(0, -1)),
                           names=("y", "z"))
        small = product_series(spec, Caps.of([4, 4]))
        large = product_series(spec, Caps.of([7, 7]))
        for expo, coeff in small.terms.items():
            assert large.terms.get(expo, 0) == coeff

    def test_spade_symmetry(self):
        from vpvlab.determinants import exact_parts_series
        caps = Caps.of([8, 8])
        spade = exact_parts_series(2, 2, caps, ("y", "z"))
        club = exact_parts_series(3, 2, caps, ("y", "z"))
        for a in range(9):
            for b in range(9):
                assert spade.coefficient((a, b)) == spade.coefficient((b, a))
                assert club.coefficient((a, b)) == club.coefficient((b, a))


def filtered_region(spec, caps):
    """Reference vectors: the sorted region in a loose box, then the members
    whose image the caps admit.

    The box is read from the caps alone: a component mapped to a variable
    stops at that variable's cap, any other at the largest cap (in
    `specs_with_caps` an ordering bounds it by the last component, which is
    mapped to a variable).  `component_bounds` tightens this box, and the
    comparison checks that it drops no member.
    """
    top = max(caps.limits)
    bounds = [caps.limits[m] if isinstance(m, int) else top for m in spec.mapping]
    out = []
    for vec in members(spec.region, bounds):
        expo, _ = spec.image(vec, EXACT)
        if not any(expo):
            raise RegionError(f"region vector {vec} feeds no capped variable")
        if caps.admits(expo):
            out.append(vec)
    return out


@st.composite
def specs_with_caps(draw):
    region, _ = draw(regions_with_bounds())
    arity = draw(st.integers(1, 3))
    # components merge when they share an index; a Fraction is a scalar
    # mapping and None drops the component, which only an ordering against
    # the last component can bound
    index = st.integers(0, arity - 1)
    target = index if region.order == ORDER_NONE else \
        index | st.sampled_from([Fraction(1, 2), Fraction(-3), None])
    mapping = tuple(draw(target) for _ in range(region.arity - 1)) + (draw(index),)
    limits = tuple(draw(st.integers(0, 6)) for _ in range(arity))
    caps = Caps.of(limits)
    spec = ProductSpec(region=region, factor=WeightExpr(powers=(0,) * region.arity),
                       mapping=mapping, names=tuple("xyz"[:arity]))
    return spec, caps


@st.composite
def counted_specs(draw):
    """A spec of arity 1-5 with caps: any ordering, bounds, base and
    unit_counts; merging, scalar and dropped mappings; a weight or a family.

    The last component feeds a variable, so an ordering bounds the others.
    Without an ordering, a component that feeds no variable gets an upper
    bound, except in about one case in ten, whose region is then unbounded.
    """
    arity = draw(st.integers(1, 5))
    order = draw(st.sampled_from(ORDERS))
    width = draw(st.integers(1, 3))
    index = st.integers(0, width - 1)
    target = index | st.sampled_from([Fraction(1, 2), Fraction(-3), None])
    mapping = tuple(draw(target) for _ in range(arity - 1)) + (draw(index),)
    free = order != ORDER_NONE or draw(st.integers(0, 9)) == 0
    upper = tuple(draw(st.sampled_from([None, None, None, 1, 3, 5]))
                  if isinstance(m, int) or free
                  else draw(st.integers(0, 3)) for m in mapping)
    lower = tuple(draw(st.sampled_from([0, 1, 0, 1, 2])) for _ in range(arity))
    region = LatticeRegion(
        arity=arity, lower=lower, order=order, coprime=draw(st.booleans()),
        base_powers=draw(st.sampled_from([None, None, 2, 3])),
        upper=upper if any(u is not None for u in upper) else None,
        unit_counts=draw(st.none() | st.lists(st.integers(0, arity), min_size=1,
                                               unique=True)))
    limits = tuple(draw(st.integers(1, 6)) for _ in range(width))
    caps = Caps.of(limits)
    # a component that may be 0 takes no negative power and no phi
    powers = tuple(draw(st.integers(-2 if lo else 0, 2)) for lo in lower)
    phi_over = draw(st.none() | st.sampled_from(
        [i for i, lo in enumerate(lower) if lo] or [None]))
    factor = draw(st.sampled_from([WeightExpr(powers=powers, phi_over=phi_over),
                                   LocalFactorFamily(kind=GEOMETRIC)]))
    spec = ProductSpec(region=region, factor=factor, mapping=mapping,
                       names=tuple("xyz"[:width]))
    return spec, caps


def walked_histogram(spec, caps):
    """{(image, scalar): [count, summed weight]} from the walked vectors."""
    out = {}
    for vec in spec.vectors(caps):
        cell = out.setdefault(spec.image(vec, EXACT), [0, 0])
        cell[0] += 1
        cell[1] += spec.factor.weight(vec, EXACT) \
            if isinstance(spec.factor, WeightExpr) else 1
    return out


def fraction_histogram(spec, caps):
    """`image_histogram` with each int weight read as Fraction(weight, den)."""
    den, hist = image_histogram(spec, caps)
    assert type(den) is int and den > 0
    assert all(type(weight) is int for _, weight in hist.values())
    return {image: [count, Fraction(weight, den)] for image, (count, weight) in hist.items()}


@st.composite
def weighted_specs(draw):
    """A `counted_specs` case with a weight factor of either sign and
    direction: negative powers, phi_over, scalar mappings, every ordering,
    box caps."""
    spec, caps = draw(counted_specs())
    weight = spec.factor if isinstance(spec.factor, WeightExpr) \
        else WeightExpr(powers=(0,) * spec.region.arity)
    weight = dataclasses.replace(weight, sign=draw(st.sampled_from([1, -1])),
                                 direction=draw(st.sampled_from([1, -1])))
    return dataclasses.replace(spec, factor=weight), caps


def fraction_product(spec, caps, log):
    """Reference exact `product_series` on Fractions: each walked vector's
    weight a Fraction, summed per image into the factor's exponent; the
    factors expanded one by one and multiplied, or, with `log`, each
    factor's log summed term by term."""
    exponents = {}
    for vec in spec.vectors(caps):
        image = spec.image(vec, EXACT)
        exponents[image] = exponents.get(image, 0) \
            + spec.factor.weight(vec, EXACT) * spec.factor.direction
    sign, names = spec.factor.sign, spec.names
    if not log:
        out = Series.one(names, caps)
        for (mono, scalar), e in exponents.items():
            out = out * unit_binomial_pow(mono, e, names, caps, sign=sign, scalar=scalar)
        return out
    terms = {}
    for (mono, scalar), e in exponents.items():
        ratio, power, k = -sign * Fraction(scalar), -Fraction(e), 1
        while caps.admits(key := tuple(x * k for x in mono)):
            power *= ratio
            terms[key] = terms.get(key, 0) + power / k
            k += 1
    return Series(names, caps, EXACT, terms)


class TestImageHistogram:
    @settings(max_examples=500, deadline=None)
    @given(case=counted_specs())
    def test_count_matches_walk(self, case):
        spec, caps = case
        try:
            expected = walked_histogram(spec, caps)
        except RegionError as err:
            with pytest.raises(RegionError, match=re.escape(str(err))):
                image_histogram(spec, caps)
        else:
            assert fraction_histogram(spec, caps) == expected

    @settings(max_examples=300, deadline=None)
    @given(case=weighted_specs())
    def test_products_match_fraction_reference(self, case):
        # the int weights over one denominator give the same lowest terms
        # as Fraction weights, expanded and as logs
        spec, caps = case
        try:
            reference = [fraction_product(spec, caps, log) for log in (False, True)]
        except RegionError:
            assume(False)  # refused by the walk, or an unbounded folded component
        for log, want in zip((False, True), reference):
            got = product_series(spec, caps, log=log)
            assert (got.den, got.nums) == (want.den, want.nums)
            assert all(type(v) is int for v in got.nums.values())

    def test_merged_images(self):
        # 14.23 at (12, 10): 7,715 region vectors on 97 image monomials
        spec, caps = catalog_mod.get_entry("14.23").lhs, Caps.of((12, 10))
        hist = fraction_histogram(spec, caps)
        assert len(hist) == 97
        assert sum(count for count, _ in hist.values()) == 7715
        assert hist == walked_histogram(spec, caps)

    def test_no_fraction_per_state(self, monkeypatch):
        # 13.40 at (3, 3, 4, 4): the weight 1/d over 17 component values and
        # thousands of region states; every Fraction built in `lattice` and
        # every Fraction product or sum counts, and one per value is allowed
        spec, caps = catalog_mod.get_entry("13.40").lhs, Caps.of((3, 3, 4, 4))
        values = sum(len(range(lo, hi + 1)) for lo, hi
                     in zip(spec.region.lower, spec.component_bounds(caps)))
        made = []

        class Counted(Fraction):
            def __new__(cls, *args):
                made.append(args)
                return Fraction(*args)
        monkeypatch.setattr(lattice_mod, "Fraction", Counted)
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(a, b, op=getattr(Fraction, name)):
                made.append((a, b))
                return op(a, b)
            monkeypatch.setattr(Fraction, name, counted)
        den, hist = image_histogram(spec, caps)
        assert values == 17 and len(hist) > 100
        assert len(made) <= values


class TestSpecVectors:
    @settings(max_examples=300, deadline=None)
    @given(case=specs_with_caps())
    def test_matches_filtered_region(self, case):
        spec, caps = case
        try:
            expected = filtered_region(spec, caps)
        except RegionError:
            with pytest.raises(RegionError):
                spec.vectors(caps)
        else:
            assert spec.vectors(caps) == expected

    def test_large_region_is_filtered_as_it_streams(self):
        # 14.23 at (12, 10) enumerates 24,240 region members and keeps 7,715:
        # the rejected ones are never held, so the left side peaks below 1 MB
        # of traced allocations (2.2 MB when the whole region was listed first)
        entry = catalog_mod.get_entry("14.23")
        caps = Caps.of((12, 10))
        assert len(entry.lhs.vectors(caps)) == 7715
        tracemalloc.start()
        try:
            entry.build_lhs(caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGrids:
    def test_grid_from_product_and_sums(self):
        # the order-3 distinct product (1+xy^2)(1+xy^3)(1+x^2y^3)
        caps = Caps.of([4, 8])
        s = Series.one(("x", "y"), caps)
        for mono in ((1, 2), (1, 3), (2, 3)):
            s = s * unit_binomial_pow(mono, 1, ("x", "y"), caps, sign=1)
        g = grid(s, caps)
        cols = g.col_sums()
        assert [cols.get((a,), 0) for a in range(5)] == [1, 2, 2, 2, 1]
        rows = g.row_sums()
        expected_rows = {0: 1, 2: 1, 3: 2, 5: 2, 6: 1, 8: 1}
        assert {e[0]: v for e, v in rows.items()} == expected_rows

    def test_grid_rejects_high_arity(self):
        s = Series.one(("a", "b", "c", "d"), Caps.of([1, 1, 1, 1]))
        with pytest.raises(RegionError):
            PartitionGrid.from_series(s)

    def test_csv_shape(self):
        caps = Caps.of([2, 2])
        s = Series.from_terms([((0, 0), 1), ((1, 1), Fraction(1, 2))],
                              ("y", "z"), caps)
        csv = PartitionGrid.from_series(s, caps).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == ",0,1,2"
        assert lines[1] == "0,1,0,0"
        assert lines[2] == "1,0,1/2,0"


def pyramid_radial_spec(q, direction, order=ORDER_ALL_BELOW_LAST):
    """prod over coprime j <= k (j < k when strict) of (1 - q^j z^k)^(direction/k)."""
    return ProductSpec(region=LatticeRegion(arity=2, coprime=True, order=order),
                       factor=WeightExpr(sign=-1, direction=direction, powers=(0, -1)),
                       mapping=(q, 0), names=("z",))


def quadrant_radial_spec(q, direction):
    """prod over coprime j, k >= 1 of (1 - q^j z^k)^(direction/k): the j-range
    is unbounded, so `product_series` sums it in closed form."""
    return ProductSpec(region=LatticeRegion(arity=2, coprime=True),
                       factor=WeightExpr(sign=-1, direction=direction, powers=(0, -1)),
                       mapping=(q, 0), names=("z",))


class TestRadialSpecials:
    @pytest.mark.parametrize("q,m", [(Fraction(1, 2), 1), (Fraction(2, 3), 2),
                                     (Fraction(3, 4), 3), (Fraction(4, 5), 4),
                                     (Fraction(5, 6), 5)])
    def test_quadrant_minus_family(self, q, m):
        got = product_series(quadrant_radial_spec(q, 1), Caps.of([10]))
        caps = Caps.of([10])
        expected = unit_binomial_pow((1,), m, ("z",), caps, sign=-1)
        assert got == expected

    @pytest.mark.parametrize("q,m", [(Fraction(2), 2), (Fraction(3, 2), 3),
                                     (Fraction(4, 3), 4), (Fraction(5, 4), 5),
                                     (Fraction(6, 5), 6)])
    def test_quadrant_plus_family(self, q, m):
        got = product_series(quadrant_radial_spec(q, -1), Caps.of([10]))
        caps = Caps.of([10])
        expected = unit_binomial_pow((1,), m, ("z",), caps, sign=-1)
        assert got == expected

    def test_quadrant_partial_products_converge(self):
        # the exact fold against the float product with the scalar component
        # cut at j <= 80, where |q|^j is below 1e-24: the coprime quadrant, a
        # quadrant that is not coprime, and coprime arity-3 regions, one with
        # a second, bounded scalar component
        cases = [
            (quadrant_radial_spec(Fraction(1, 3), 1), Caps.of([6])),
            (dataclasses.replace(quadrant_radial_spec(Fraction(-1, 2), -1),
                                 region=LatticeRegion(arity=2)), Caps.of([6])),
            (ProductSpec(region=LatticeRegion(arity=3, lower=(1, 0, 1), coprime=True),
                         factor=WeightExpr(sign=1, direction=-1, powers=(0, 0, -1)),
                         mapping=(Fraction(1, 3), 0, 1), names=("y", "z")),
             Caps.of([3, 4])),
            (ProductSpec(region=LatticeRegion(arity=3, coprime=True,
                                              upper=(None, 2, None)),
                         factor=WeightExpr(sign=-1, direction=1, powers=(0, 1, -1)),
                         mapping=(Fraction(1, 2), Fraction(-3), 0), names=("z",)),
             Caps.of([5]))]
        for spec, caps in cases:
            region = spec.region
            upper = (80,) + (region.upper or (None,) * region.arity)[1:]
            cut = dataclasses.replace(spec, region=dataclasses.replace(region,
                                                                       upper=upper))
            got = product_series(spec, caps)
            assert product_series(spec, caps, log=True).exp() == got
            expected = product_series(cut, caps, APPROX)
            for expo in set(got.terms) | set(expected.terms):
                assert float(got.terms.get(expo, 0)) == pytest.approx(
                    expected.terms.get(expo, 0.0), abs=1e-9), (spec, expo)

    def test_pyramid_special_expansion(self):
        # (2-2z)/(2-z) = 1 - z/2 - z^2/4 - z^3/8 - ...
        got = product_series(pyramid_radial_spec(Fraction(1, 2), 1), Caps.of([6]))
        assert got.coefficient((0,)) == 1
        for n in range(1, 7):
            assert got.coefficient((n,)) == Fraction(-1, 2 ** n)

    def test_pyramid_strict_y2(self):
        # (1-2z)/(1-z)^2: coefficient of z^n is 1-n (the displayed expansion
        # "1 - z - 2z^2 - ..." is off by one against its own rational form)
        got = product_series(
            pyramid_radial_spec(Fraction(2), 1, ORDER_ALL_BELOW_LAST_STRICT), Caps.of([8]))
        caps = Caps.of([8])
        one = Series.one(("z",), caps)
        z = Series.variable("z", ("z",), caps)
        closed = (one - z.scale(2)) * (one - z).inverse().pow(2)
        assert got == closed
        for n in range(9):
            assert got.coefficient((n,)) == 1 - n
