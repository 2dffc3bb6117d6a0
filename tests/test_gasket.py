import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diskgeom import (
    Circle,
    ComplexRoots,
    DiskGeomError,
    EmptyGasket,
    Gasket,
    GasketDisk,
    GenerationLimits,
    InvalidSeed,
    Quadruple,
    canonical_quadruple,
    curvature_spectrum,
    descartes_residual,
    generate,
    inner,
    lift,
    render_svg,
    verify_generalized,
    vieta_reflect,
)
from diskgeom.gasket import CHUNK_ROWS, GasketDisks, GasketQuadruples

SEED_CURVATURES = (-1.0, 2.0, 2.0, 3.0)
# generate reflects CHUNK_ROWS // 3 quadruples at a time; the first such block of
# depth 8 in a run without pruning ends at disk 4 + 2 * (3**7 - 1) + 3 * (CHUNK_ROWS // 3)
DEPTH_8_BLOCK_EDGE = 4376 + 3 * (CHUNK_ROWS // 3)


def depth_limit(n: int) -> GenerationLimits:
    return GenerationLimits(max_depth=n)


def brute_force_counts(seed: Quadruple, max_depth: int) -> dict[int, int]:
    """Independent BFS census: all-pairs closeness dedup instead of keys."""
    stored: list[tuple[tuple[float, float, float, float], int]] = [
        (tuple(v), 0) for v in seed.vectors
    ]

    def is_new(vec) -> bool:
        cand = tuple(vec)
        for old, _ in stored:
            scale = max(1.0, abs(cand[2]))
            if all(abs(a - b) <= 1e-6 * scale for a, b in zip(cand, old)):
                return False
        return True

    frontier = [(seed, -1)]
    for depth in range(1, max_depth + 1):
        next_frontier = []
        for quad, born in frontier:
            for slot in range(4):
                if slot == born:
                    continue
                child = vieta_reflect(quad, slot)
                if is_new(child.vectors[slot]):
                    stored.append((tuple(child.vectors[slot]), depth))
                next_frontier.append((child, slot))
        frontier = next_frontier
    counts: dict[int, int] = {}
    for _, depth in stored:
        counts[depth] = counts.get(depth, 0) + 1
    return counts


def reference_generate(seed: Quadruple, limits: GenerationLimits):
    """Object BFS over vieta_reflect: the reference for the array engine.

    Returns the disks as (vector, depth, quadruple_id) tuples, the explored
    quadruples and their depths, in generation order.
    """
    try:
        seed.validate()
    except DiskGeomError as exc:
        raise InvalidSeed(str(exc)) from exc
    disks = [(v, 0, 0) for v in seed.vectors]
    quads = [seed]
    qdepths = [0]
    queue = deque([(0, -1, 0)])
    full = False
    while queue and not full:
        qid, born_slot, depth = queue.popleft()
        if limits.max_depth is not None and depth + 1 > limits.max_depth:
            continue
        for slot in range(4):
            if slot == born_slot:
                continue
            child = vieta_reflect(quads[qid], slot)
            new = child.vectors[slot]
            if limits.max_curvature is not None and new.beta > limits.max_curvature:
                continue
            if limits.max_count is not None and len(disks) >= limits.max_count:
                full = True
                break
            disks.append((new, depth + 1, qid))
            quads.append(child)
            qdepths.append(depth + 1)
            queue.append((len(quads) - 1, slot, depth + 1))
    return disks, quads, qdepths


def bits(vectors) -> bytes:
    """Raw float64 bytes, so signed zeros and last-bit differences count."""
    return np.array([tuple(v) for v in vectors], dtype=float).tobytes()


class TestCanonicalQuadruple:
    def test_integral_seed(self):
        quad = canonical_quadruple(SEED_CURVATURES)
        assert quad.curvatures == pytest.approx(SEED_CURVATURES, abs=1e-12)
        quad.validate()

    def test_integral_seed_geometry(self, int_quadruple):
        quad = canonical_quadruple(SEED_CURVATURES)
        for got, want in zip(quad.vectors, int_quadruple.vectors):
            assert np.allclose(got.as_array(), want.as_array(), atol=1e-12)

    def test_triple_completed_with_enclosing_root(self):
        quad = canonical_quadruple((1.0, 1.0, 1.0))
        assert quad.curvatures[:3] == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        assert quad.curvatures[3] == pytest.approx(3 - 2 * math.sqrt(3), abs=1e-12)
        quad.validate()

    def test_triple_with_enclosing_curvature(self):
        quad = canonical_quadruple((2.0, 2.0, 3.0))
        assert quad.curvatures[3] == pytest.approx(-1.0, abs=1e-12)
        quad.validate()

    def test_strip_seed(self):
        quad = canonical_quadruple((0.0, 0.0, 1.0))
        assert quad.curvatures == pytest.approx((0.0, 0.0, 1.0, 1.0), abs=1e-12)
        quad.validate()

    def test_negative_pair_sum_rejected(self):
        # the gate of solve_fourth_curvature, which canonical_quadruple calls
        with pytest.raises(ComplexRoots, match=r"^ab\+bc\+ca = -1\.0 is negative, no real fourth curvature$"):
            canonical_quadruple((1.0, 1.0, -1.0))

    def test_scaleless_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            canonical_quadruple((0.0, 0.0, 0.0))

    def test_inconsistent_fourth_rejected(self):
        with pytest.raises(InvalidSeed):
            canonical_quadruple((1.0, 1.0, 1.0, 5.0))

    def test_near_miss_fourth_fails_the_root_match(self):
        # the Descartes residual, -1e-6, is small beside the seed's scale (sum |k|)^2 = 64,
        # so only the root match, within 1e-6 * |k4|, tells 3.001 from the root 3
        ks = (-1.0, 2.0, 2.0, 3.001)
        assert abs(descartes_residual(*ks)) < 1e-6 * 64.0
        message = r"^fourth curvature 3\.001 matches neither tangent root within 3\.0009"
        with pytest.raises(InvalidSeed, match=message):
            canonical_quadruple(ks)

    def test_nan_fourth_fails_the_root_match(self):
        message = r"^fourth curvature nan matches neither tangent root within 1e-06$"
        with pytest.raises(InvalidSeed, match=message):
            canonical_quadruple((1.0, 2.0, 3.0, math.nan))

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidSeed):
            canonical_quadruple((1.0, 1.0))


class TestGenerate:
    def test_depth_zero_keeps_seed(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(0))
        assert len(g.disks) == 4
        assert [d.depth for d in g.disks] == [0, 0, 0, 0]

    def test_disks_take_negative_indices_and_slices(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(2))
        disks = list(g.disks)
        assert g.disks[-1] == disks[-1] and g.disks[-len(disks)] == disks[0]
        assert g.disks[2:9:3] == tuple(disks[2:9:3])
        with pytest.raises(IndexError):
            g.disks[-len(disks) - 1]

    def test_depth_past_any_array_needs_a_count_limit(self, int_quadruple):
        message = r"^cannot allocate the arrays of 4 \+ 2 \* \(3\*\*41 - 1\) disks$"
        with pytest.raises(DiskGeomError, match=message):
            generate(int_quadruple, GenerationLimits(max_depth=41))

    def test_depth_one_census(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(1))
        new = sorted(d.vector.beta for d in g.disks if d.depth == 1)
        assert new == [3.0, 6.0, 6.0, 15.0]
        assert len(g.disks) == 8

    def test_quadruple_counts_follow_reflection_tree(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(4))
        for depth in range(1, 5):
            explored = sum(1 for d in g.quadruple_depths if d == depth)
            assert explored == 4 * 3 ** (depth - 1)

    def test_counts_match_brute_force_census(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(4))
        counts: dict[int, int] = {}
        for d in g.disks:
            counts[d.depth] = counts.get(d.depth, 0) + 1
        assert counts == brute_force_counts(int_quadruple, 4)

    def test_determinism(self, int_quadruple):
        a = generate(int_quadruple, depth_limit(3))
        b = generate(int_quadruple, depth_limit(3))
        assert a.disks == b.disks
        assert a == b and hash(a) == hash(b)
        assert generate(int_quadruple, depth_limit(2)) != a
        # a count cap that cuts nothing leaves the disks alone, but the limits still differ
        uncut = generate(int_quadruple, GenerationLimits(max_depth=3, max_count=1000))
        assert uncut.disks == a.disks and uncut != a

    def test_hash_builds_no_items(self, int_quadruple, monkeypatch):
        a, b = generate(int_quadruple, depth_limit(4)), generate(int_quadruple, depth_limit(4))

        def no_items(*args):
            raise AssertionError("hashing built a disk or quadruple")

        for cls in (GasketDisks, GasketQuadruples):
            monkeypatch.setattr(cls, "_item", no_items)
        monkeypatch.setattr(GasketDisks, "__iter__", no_items)
        assert hash(a) == hash(b) and hash(a.disks) == hash(b.disks)

    def test_signed_zeros_compare_and_hash_alike(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(2))
        flipped = np.where(g.disks.vectors == 0.0, -0.0, g.disks.vectors)
        disks = GasketDisks(flipped, g.disks.depths, g.disks.quadruple_ids)
        quadruples = GasketQuadruples(g.quadruples.members, flipped)
        assert bits(disks.vectors) != bits(g.disks.vectors)
        assert disks == g.disks and hash(disks) == hash(g.disks)
        assert quadruples == g.quadruples and hash(quadruples) == hash(g.quadruples)

    def test_sequences_are_not_tuples(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(2))
        assert g.disks != tuple(g.disks) and g.quadruples != tuple(g.quadruples)

    def test_integral_curvatures(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(8))
        for d in g.disks:
            assert abs(d.vector.beta - round(d.vector.beta)) <= 1e-6

    def test_max_count_cap(self, int_quadruple):
        g = generate(int_quadruple, GenerationLimits(max_depth=3, max_count=11))
        assert len(g.disks) == 11

    def test_max_curvature_prunes(self, int_quadruple):
        capped = generate(int_quadruple, GenerationLimits(max_depth=3, max_curvature=20.0))
        free = generate(int_quadruple, depth_limit(3))
        assert all(d.vector.beta <= 20.0 for d in capped.disks)
        assert len(capped.disks) < len(free.disks)

    def test_generated_quadruples_verify(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(4))
        for quad in g.quadruples:
            assert verify_generalized(quad.vectors) <= 1e-7

    def test_positive_disks_never_overlap(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(3))
        positive = [d.vector for d in g.disks if d.vector.beta > 0]
        for i in range(len(positive)):
            for j in range(i + 1, len(positive)):
                assert inner(positive[i], positive[j]) >= 1.0 - 1e-6

    def test_disk_depths_follow_parents(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(3))
        for d in g.disks:
            if d.depth == 0:
                assert d.quadruple_id == 0
            else:
                assert d.depth == g.quadruple_depths[d.quadruple_id] + 1
        # the stored arrays are read-only views
        with pytest.raises(ValueError):
            g.disks.vectors[0, 0] = 0.0
        with pytest.raises(ValueError):
            g.quadruple_depths[0] = 1

    def test_invalid_seed_rejected(self):
        bad = Quadruple(
            (
                lift(Circle((0.0, 0.0), 1.0)),
                lift(Circle((5.0, 0.0), 1.0)),
                lift(Circle((0.0, 5.0), 1.0)),
                lift(Circle((5.0, 5.0), 1.0)),
            )
        )
        with pytest.raises(InvalidSeed):
            generate(bad, depth_limit(1))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.just(0.0) | st.floats(0.05, 40.0), min_size=3, max_size=3),
        st.integers(0, 5),
        st.none() | st.floats(0.5, 300.0),
        st.none() | st.integers(4, 600),
    )
    # a curvature-only run that grows its stores mid-level, over levels of several blocks
    @example([2.0, 2.0, 3.0], None, 3000.0, None)
    # a halfplane seed cut one disk past a block edge
    @example([0.0, 0.0, 1.0], 8, None, DEPTH_8_BLOCK_EDGE + 1)
    def test_matches_object_bfs(self, curvatures, max_depth, max_curvature, max_count):
        try:
            seed = canonical_quadruple(curvatures)
        except DiskGeomError:
            assume(False)
        limits = GenerationLimits(max_depth, max_curvature, max_count)
        try:
            disks, quads, qdepths = reference_generate(seed, limits)
        except InvalidSeed:
            with pytest.raises(InvalidSeed):
                generate(seed, limits)
            return
        g = generate(seed, limits)
        assert bits(d[0] for d in disks) == g.disks.vectors.tobytes()
        assert [d[1:] for d in disks] == [(d.depth, d.quadruple_id) for d in g.disks]
        assert list(g.disks) == [GasketDisk(*d) for d in disks]
        assert list(g.quadruple_depths) == qdepths
        assert len(g.quadruples) == len(quads)
        for ours, theirs in zip(g.quadruples, quads):
            assert bits(ours.vectors) == bits(theirs.vectors)

    @pytest.mark.parametrize("curvatures", [(0.0, 1.0, 2.0), (0.0, 0.0, 1.0, 1.0)])
    def test_halfplane_seed_needs_depth_or_count(self, curvatures):
        # a halfplane seed has infinitely many disks below any curvature cap
        seed = canonical_quadruple(curvatures)
        with pytest.raises(InvalidSeed, match="halfplane.*depth or count"):
            generate(seed, GenerationLimits(max_curvature=10.0))
        assert len(generate(seed, GenerationLimits(max_depth=4, max_curvature=10.0)).disks) > 4
        assert len(generate(seed, GenerationLimits(max_curvature=10.0, max_count=50)).disks) == 50

    @pytest.mark.parametrize("curvatures, count", [(SEED_CURVATURES, 9), ((0.7, 1.3, 2.9), 45)])
    def test_bounded_seed_stops_at_curvature_cap(self, curvatures, count):
        seed = canonical_quadruple(curvatures)
        g = generate(seed, GenerationLimits(max_curvature=10.0))
        assert len(g.disks) == count
        # a count cap that no array can hold still lets the pruned run grow to its end
        assert generate(seed, GenerationLimits(max_curvature=10.0, max_count=10**15)).disks == g.disks

    def test_max_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="max_count must be an integer"):
            GenerationLimits(max_count=100.0)

    def test_max_depth_must_not_be_a_bool(self):
        with pytest.raises(ValueError, match="max_depth must be an integer"):
            GenerationLimits(max_depth=True)

    def test_limits_must_be_finite(self):
        with pytest.raises(ValueError):
            GenerationLimits()
        with pytest.raises(ValueError):
            GenerationLimits(max_depth=-1)
        with pytest.raises(ValueError):
            GenerationLimits(max_count=2)
        for cap in (True, "5", math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="max_curvature must be a finite real number > 0"):
                GenerationLimits(max_curvature=cap)


class TestOracles:
    """Checks against facts about Apollonian packings, not against recorded output."""

    # circles of curvature <= T in the (-1, 2, 2, 3) packing
    COUNTS = {1e3: 3329, 3e3: 13965, 1e4: 67167, 3e4: 281991}
    # Hausdorff dimension of the gasket (McMullen 1998): the count grows as c * T^delta
    DELTA = 1.305688

    @pytest.fixture(scope="class")
    def capped(self):
        seed = canonical_quadruple(SEED_CURVATURES)
        return {t: generate(seed, GenerationLimits(max_curvature=t)) for t in self.COUNTS}

    def test_curvature_count_grows_with_hausdorff_dimension(self, capped):
        counts = {t: len(g.disks) for t, g in capped.items()}
        assert counts == self.COUNTS
        slope = np.polyfit(np.log(list(counts)), np.log(list(counts.values())), 1)[0]
        assert abs(slope - self.DELTA) < 0.003

    def test_strong_integrality(self, capped):
        # every lifted component of the root packing is an integer (Graham et al.,
        # math/0009113), so the Minkowski products hold exactly, not within a tolerance
        v = capped[3e4].disks.vectors
        assert np.array_equal(v, np.round(v))
        assert np.abs(v).max() < 2.0**53
        x, y, b, g = v.T
        assert np.all(b * g - x * x - y * y == -1.0)
        g = capped[1e4]
        quads = g.disks.vectors[g.quadruples.members]  # (M, 4, 4)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            u, w = quads[:, i], quads[:, j]
            dot = u[:, 0] * w[:, 0] + u[:, 1] * w[:, 1]
            twice = u[:, 2] * w[:, 3] + w[:, 2] * u[:, 3] - 2.0 * dot
            assert np.all(twice == 2.0)

    @pytest.mark.parametrize(
        "curvatures, limits",
        [
            (SEED_CURVATURES, GenerationLimits(max_curvature=2000.0)),
            ((0.7, 1.3, 2.9), GenerationLimits(max_curvature=2000.0)),
            ((0.0, 0.0, 1.0, 1.0), GenerationLimits(max_depth=7)),
            (SEED_CURVATURES, GenerationLimits(max_depth=8)),
        ],
    )
    def test_count_cut_is_a_prefix_of_the_uncut_run(self, curvatures, limits):
        seed = canonical_quadruple(curvatures)
        full = generate(seed, limits).disks
        edge = DEPTH_8_BLOCK_EDGE
        for k in (4, 5, 17, 1000, 7777, edge - 1, edge, edge + 1):
            cut = generate(seed, dataclasses.replace(limits, max_count=k)).disks
            assert len(cut) == min(k, len(full))
            assert cut.vectors.tobytes() == full.vectors[:k].tobytes()
            assert np.array_equal(cut.depths, full.depths[:k])
            assert np.array_equal(cut.quadruple_ids, full.quadruple_ids[:k])


class TestCurvatureSpectrum:
    def test_depth_zero(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(0))
        assert curvature_spectrum(g) == [(-1.0, 1), (2.0, 2), (3.0, 1)]

    def test_depth_one(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(1))
        assert curvature_spectrum(g) == [
            (-1.0, 1),
            (2.0, 2),
            (3.0, 2),
            (6.0, 2),
            (15.0, 1),
        ]

    def test_multiplicities_sum_to_disk_count(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(3))
        assert sum(n for _, n in curvature_spectrum(g)) == len(g.disks)


class TestRenderSvg:
    def test_depth_zero_has_four_circles(self, int_quadruple):
        svg = render_svg(generate(int_quadruple, depth_limit(0)))
        assert svg.count("<circle ") == 4
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg
        assert 'version="1.1"' in svg
        assert "viewBox=" in svg

    def test_circle_count_matches_disk_count(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(3))
        svg = render_svg(g)
        assert svg.count("<circle ") == len(g.disks)

    def test_fill_by_depth_distinct_per_level(self, int_quadruple):
        g = generate(int_quadruple, depth_limit(3))
        svg = render_svg(g, fill_by_depth=True)
        fills = {
            line.split('fill="')[1].split('"')[0]
            for line in svg.splitlines()
            if line.startswith("<circle ")
        }
        # four depth levels plus "none" for the enclosing disk
        assert len(fills) == 5

    def test_enclosing_disk_is_outline(self, int_quadruple):
        svg = render_svg(generate(int_quadruple, depth_limit(0)), fill_by_depth=True)
        first_circle = next(l for l in svg.splitlines() if l.startswith("<circle "))
        assert 'fill="none"' in first_circle

    def test_halfplanes_render_as_lines(self):
        g = generate(canonical_quadruple((0.0, 0.0, 1.0)), depth_limit(1))
        svg = render_svg(g)
        assert svg.count("<line ") == 2
        assert svg.count("<circle ") == len(g.disks) - 2

    def test_empty_gasket_rejected(self, int_quadruple):
        disks = GasketDisks(np.empty((0, 4)), np.empty(0, np.intp), np.empty(0, np.intp))
        quadruples = GasketQuadruples(np.empty((0, 4), np.intp), disks.vectors)
        empty = Gasket(int_quadruple, depth_limit(0), disks, quadruples)
        assert len(empty.quadruple_depths) == 0
        with pytest.raises(EmptyGasket):
            render_svg(empty)
