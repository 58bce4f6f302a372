import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcplab import op_cover as oc
from bcplab import spaces as sp


def _certify_point_reference(c, v):
    """The first-hit rule one ball at a time: the reference for the block kernel."""
    v = np.asarray(v, dtype=float)
    boundary = None
    min_excess, nearest = math.inf, -1
    for k, b in enumerate(c.balls):
        d = sp.norm_of(c.space, v - b.center)
        excess = d - b.radius
        if excess < min_excess:
            min_excess, nearest = excess, k
        if d <= b.radius - sp.STRICT_SLACK:
            return sp.CoverCertificate(v, k, d, b.radius - d)
        if d <= b.radius and boundary is None:
            boundary = sp.CoverCertificate(v, k, d, b.radius - d)
    if boundary is not None:
        return boundary
    raise sp.NotCovered(min_excess, nearest)


def _outcome(certify, c, v):
    """Everything a certificate or a miss carries, as a comparable tuple."""
    try:
        cert = certify(c, v)
    except sp.NotCovered as exc:
        return ("miss", exc.min_excess, exc.nearest_index)
    return ("hit", cert.ball_index, cert.distance, cert.margin)


class TestNorms:
    def test_lp_cube_root(self):
        assert sp.norm_of(sp.lp(2, 3), [1.0, 1.0]) == pytest.approx(2 ** (1 / 3), abs=1e-15)

    def test_sup_grid_max(self):
        assert sp.norm_of(sp.sup_grid(3), [0.2, -0.9, 0.5]) == 0.9

    def test_linf_sum_of_blocks(self):
        space = sp.linf_sum([sp.lp(2, 2), sp.lp(2, 2)])
        assert sp.norm_of(space, [3.0, 4.0, 1.0, 0.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sp.norm_of(sp.lp(3, 2), [1.0, 2.0])

    def test_zero_iff_zero(self):
        space = sp.lp(4, 1.7)
        assert sp.norm_of(space, np.zeros(4)) == 0.0
        assert sp.norm_of(space, [0, 0, 1e-30, 0]) > 0.0

    @pytest.mark.parametrize("space", [
        sp.lp(4, 1.0), sp.lp(4, 1.7), sp.lp(4, 2.0), sp.lp(4, 3.0),
        sp.lp(4, math.inf), sp.sup_grid(4),
        sp.linf_sum([sp.lp(2, 2), sp.lp(2, 1)]),
    ])
    def test_triangle_and_homogeneity_batch(self, space):
        rng = np.random.default_rng(101)
        n = sp.dim(space)
        X = rng.standard_normal((100_000, n))
        Y = rng.standard_normal((100_000, n))
        t = rng.uniform(-3, 3, size=100_000)
        nx = sp.norms_rows(space, X)
        ny = sp.norms_rows(space, Y)
        nxy = sp.norms_rows(space, X + Y)
        assert np.all(nxy <= nx + ny + 1e-12)
        assert np.all(np.abs(sp.norms_rows(space, t[:, None] * X)
                             - np.abs(t) * nx) <= 1e-11)

    def test_triangle_operator_kind_batched(self):
        rng = np.random.default_rng(103)
        X = rng.standard_normal((100_000, 2, 2))
        Y = rng.standard_normal((100_000, 2, 2))
        nx = np.linalg.svd(X, compute_uv=False)[:, 0]
        ny = np.linalg.svd(Y, compute_uv=False)[:, 0]
        nxy = np.linalg.svd(X + Y, compute_uv=False)[:, 0]
        assert np.all(nxy <= nx + ny + 1e-12)
        # spot-check the batched oracle against the space-model norm
        space = sp.operator_space(sp.lp(2, 2), sp.lp(2, 2))
        for k in range(0, 100_000, 20_000):
            assert sp.norm_of(space, X[k].ravel()) == pytest.approx(nx[k], abs=1e-10)

    def test_norms_rows_matches_scalar(self):
        rng = np.random.default_rng(7)
        for space in (sp.lp(3, 1.3), sp.sup_grid(3),
                      sp.linf_sum([sp.lp(2, 1), sp.lp(1, 2)])):
            X = rng.standard_normal((50, sp.dim(space)))
            batch = sp.norms_rows(space, X)
            for i in range(50):
                assert batch[i] == pytest.approx(sp.norm_of(space, X[i]), abs=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.1, 1.5, 2.0, 2.5, 3.0, math.inf])
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_norms_rows_equal_lp_norm_bitwise(self, n, p):
        V = np.random.default_rng(n).standard_normal((1000, n))
        batch = sp.norms_rows(sp.lp(n, p), V)
        assert [float(x) for x in batch] == [sp.lp_norm(row, p) for row in V]


class TestSampler:
    @pytest.mark.parametrize("space", [
        sp.lp(4, 1.0), sp.lp(4, 1.7), sp.lp(3, 2.0), sp.lp(5, math.inf),
        sp.sup_grid(6), sp.linf_sum([sp.lp(2, 2), sp.lp(3, 1)]),
    ])
    def test_unit_norm(self, space):
        for seed in (0, 1, 99, 2**63):
            v = sp.sample_sphere(space, seed)
            assert abs(sp.norm_of(space, v) - 1.0) <= 1e-12

    def test_deterministic(self):
        space = sp.lp(4, 2.5)
        assert np.array_equal(sp.sample_sphere(space, 7), sp.sample_sphere(space, 7))
        assert not np.array_equal(sp.sample_sphere(space, 7), sp.sample_sphere(space, 8))

    def test_lipschitz_slope_doubles_at_most(self):
        space = sp.sup_grid(32, "lipschitz", slope=4.0)
        bound = sp.grid_increment_bound(space)
        for seed in range(1000):
            v = sp.sample_sphere(space, seed)
            assert abs(sp.norm_of(space, v) - 1.0) <= 1e-12
            assert np.all(np.abs(np.diff(v)) <= 2 * bound + 1e-12)
            assert sp.is_admissible_grid(space, v, factor=2.0)


class TestClassify:
    def test_single_ball_admissible(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [(np.array([2.0, 0.0]), 1.0)])
        cls = sp.classify_covering(cov)
        assert cls.admissible and cls.origin_gap == pytest.approx(1.0)
        assert cls.label == "UBCP"

    def test_ball_containing_origin_flagged(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [(np.array([0.5, 0.0]), 1.0)])
        cls = sp.classify_covering(cov)
        assert not cls.admissible
        assert cls.label == "inadmissible"

    def test_radius_bound_is_max(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([2, 0], 0.5), ([0, 3], 1.25)])
        assert cov.radius_bound == 1.25
        assert cov.origin_gap == pytest.approx(1.5)


class TestCertify:
    def setup_method(self):
        self.space = sp.lp(2, 2)
        balls = []
        for i in range(2):
            for sign in (1.0, -1.0):
                e = np.zeros(2)
                e[i] = 2.0 * sign
                balls.append((e, 1.5))
        self.cov = sp.make_covering(self.space, balls)

    def test_first_hit_in_list_order(self):
        cert = sp.certify_point(self.cov, [1.0, 0.0])
        assert cert.ball_index == 0
        assert cert.distance == pytest.approx(1.0)
        assert cert.margin == pytest.approx(0.5)

    def test_zero_vector_never_covered(self):
        with pytest.raises(sp.NotCovered) as exc:
            sp.certify_point(self.cov, [0.0, 0.0])
        assert exc.value.min_excess == pytest.approx(0.5)

    def test_not_covered_carries_min_excess(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([3.0, 0.0], 1.0)])
        with pytest.raises(sp.NotCovered) as exc:
            sp.certify_point(cov, [-1.0, 0.0])
        assert exc.value.min_excess == pytest.approx(3.0)
        assert exc.value.nearest_index == 0

    def test_boundary_hit_yields_zero_margin(self):
        space = sp.sup_grid(2)
        cov = sp.make_covering(space, [(np.array([1.2, 0.0]), 1.0)])
        cert = sp.certify_point(cov, [1.0, 1.0])
        assert cert.distance == 1.0
        assert cert.margin == 0.0

    def test_strict_hit_preferred_over_earlier_boundary_graze(self):
        space = sp.sup_grid(2)
        cov = sp.make_covering(space, [(np.array([1.2, 0.0]), 1.0),
                                       (np.array([0.0, 1.2]), 1.0)])
        # node 1 carries the peak: ball 0 only grazes, ball 1 holds strictly
        cert = sp.certify_point(cov, [0.4, 1.0])
        assert cert.ball_index == 1
        assert cert.margin > 0.5

    def test_batch_matches_scalar(self):
        lp15 = sp.make_covering(sp.lp(2, 1.5), [(b.center, 1.75) for b in self.cov.balls])
        for cov in (self.cov, lp15):
            pts = np.stack([sp.sample_sphere(cov.space, s) for s in range(200)])
            batch = sp.certify_points(cov, pts)
            for i in range(200):
                one = _certify_point_reference(cov, pts[i])
                assert batch[i] is not None
                assert batch[i].ball_index == one.ball_index
                assert batch[i].distance == one.distance
                assert batch[i].margin == one.margin

    def test_batch_reports_misses(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([3.0, 0.0], 1.0)])
        out = sp.certify_points(cov, [[-1.0, 0.0], [3.5, 0.0]])
        assert out[0] is None
        assert out[1] is not None


class TestCertifyKernel:
    """certify_point against the per-ball reference, compared exactly."""

    @staticmethod
    def _random_covering(space, k, seed):
        # centers at norm 2 with radii mostly too small to reach the sphere:
        # hits land anywhere in the list, in any block, and some points miss
        rng = np.random.default_rng(seed)
        return sp.make_covering(space, [
            (2.0 * sp.sample_sphere(space, int(s)), float(r))
            for s, r in zip(rng.integers(2**32, size=k), rng.uniform(0.2, 1.1, size=k))])

    @pytest.mark.parametrize("space", [
        sp.lp(3, 1.0), sp.lp(3, 1.5), sp.lp(3, 2.0), sp.lp(3, 3.0), sp.lp(3, math.inf),
        sp.sup_grid(6), sp.linf_sum([sp.lp(3, 1.5), sp.lp(3, 3.0), sp.lp(2, 1.0)]),
    ], ids=repr)
    def test_matches_reference(self, space):
        cov = self._random_covering(space, 3 * sp._BLOCK, seed=sp.dim(space))
        outcomes = []
        for s in range(120):
            v = sp.sample_sphere(space, s)
            out = _outcome(sp.certify_point, cov, v)
            assert out == _outcome(_certify_point_reference, cov, v)
            outcomes.append(out)
        # the sample reaches a later block and the miss path
        assert any(o[0] == "hit" and o[1] >= sp._BLOCK for o in outcomes)
        assert any(o[0] == "miss" for o in outcomes)

    def _far_covering(self, extra):
        """sup_grid(2) balls that all miss [0.4, 1.0], plus the given ones."""
        balls = [(np.array([-5.0, -5.0]), 1.0)] * (3 * sp._BLOCK)
        for k, ball in extra.items():
            balls[k] = ball
        return sp.make_covering(sp.sup_grid(2), balls)

    def test_boundary_graze_then_strict_hit_in_next_block(self):
        graze, strict = 100, sp._BLOCK + 44
        cov = self._far_covering({graze: (np.array([1.2, 0.0]), 1.0),
                                  strict: (np.array([0.0, 1.2]), 1.0)})
        v = np.array([0.4, 1.0])
        out = _outcome(sp.certify_point, cov, v)
        assert out == _outcome(_certify_point_reference, cov, v)
        assert out[:2] == ("hit", strict)

    def test_first_boundary_graze_wins_without_strict_hit(self):
        graze = (np.array([1.2, 0.0]), 1.0)
        cov = self._far_covering({sp._BLOCK + 3: graze, sp._BLOCK + 7: graze,
                                  2 * sp._BLOCK + 5: graze})
        v = np.array([0.4, 1.0])
        out = _outcome(sp.certify_point, cov, v)
        assert out == _outcome(_certify_point_reference, cov, v)
        assert out == ("hit", sp._BLOCK + 3, 1.0, 0.0)

    def test_ties_for_the_minimum_excess(self):
        # few distinct (center, radius) pairs: the least excess recurs within
        # and across blocks, and the first ball reaching it must be reported
        rng = np.random.default_rng(5)
        choices = [(np.array([-3.0, 0.0]), 1.5), (np.array([-3.0, 0.5]), 1.0),
                   (np.array([0.0, -4.0]), 1.0)]  # excess 2.5, 3, 3 at [1, 0]
        picks = rng.integers(1, 3, size=3 * sp._BLOCK)
        picks[rng.choice(np.arange(sp._BLOCK, 3 * sp._BLOCK), size=5)] = 0
        cov = sp.make_covering(sp.sup_grid(2), [choices[i] for i in picks])
        v = np.array([1.0, 0.0])
        with pytest.raises(sp.NotCovered) as exc:
            sp.certify_point(cov, v)
        assert _outcome(sp.certify_point, cov, v) == _outcome(_certify_point_reference, cov, v)
        assert exc.value.nearest_index == int(np.flatnonzero(picks == 0)[0])

    def test_operator_covering_stops_at_first_strict_hit(self, monkeypatch):
        cov = oc.hilbert_rank_one_covering(2, 1.5, 0.3)
        calls = []
        oracle = oc.operator_norm

        def counted(*args, **kwargs):
            calls.append(1)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(oc, "operator_norm", counted)
        indices = set()
        for s in range(30):
            v = sp.sample_sphere(cov.space, s)
            calls.clear()
            cert = sp.certify_point(cov, v)
            assert len(calls) == cert.ball_index + 1
            assert cert.margin > sp.STRICT_SLACK
            assert _outcome(sp.certify_point, cov, v) == _outcome(_certify_point_reference, cov, v)
            indices.add(cert.ball_index)
        assert max(indices) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sp.certify_point(sp.make_covering(sp.lp(3, 2), [([2.0, 0, 0], 1.5)]), [1.0])


class TestScalingMargin:
    def test_collinear_equality(self):
        first, second = sp.scaling_margin([1, 0], [0.5, 0], 1.0, 2.0, sp.lp(2, 2))
        assert first == pytest.approx(0.5)
        assert second == pytest.approx(0.5)

    def test_orthogonal_example(self):
        first, second = sp.scaling_margin([1, 0], [0, 1], 1.0, 2.0, sp.lp(2, 2))
        assert first == pytest.approx(1 - math.sqrt(2), abs=1e-12)
        assert second == pytest.approx(2 - math.sqrt(5), abs=1e-12)
        assert first <= second + 1e-12

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            sp.scaling_margin([1, 0], [0, 1], 2.0, 1.0, sp.lp(2, 2))
        with pytest.raises(ValueError):
            sp.scaling_margin([0, 0], [0, 1], 1.0, 2.0, sp.lp(2, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 1.7, 2.0, math.inf]))
    def test_monotone_everywhere(self, seed, p):
        rng = np.random.default_rng(seed)
        space = sp.lp(3, p)
        x = rng.standard_normal(3)
        if not np.any(x):
            x = np.array([1.0, 0, 0])
        y = rng.standard_normal(3) * rng.uniform(0, 4)
        s = rng.uniform(0.01, 3.0)
        t = s + rng.uniform(1e-9, 3.0)
        first, second = sp.scaling_margin(x, y, s, t, space)
        assert first <= second + 1e-12


class TestRescale:
    def test_single_ball_example(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([1.5, 0.0], 1.0)])
        out = sp.rescale_covering(cov, 0.5)
        assert np.allclose(out.balls[0].center, [5.0, 0.0])
        assert out.balls[0].radius == pytest.approx(4.5)
        # every previously covered sphere point stays covered by the same ball
        rng = np.random.default_rng(3)
        hits = 0
        for seed in range(3000):
            v = sp.sample_sphere(space, seed)
            if sp.norm_of(space, v - cov.balls[0].center) <= 1.0:
                hits += 1
                assert sp.norm_of(space, v - out.balls[0].center) <= 4.5 + 1e-12
        assert hits > 100

    def test_fixed_point_input(self):
        # centers already at the target norm with matching radii: r* = 4, M = 1
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([5.0, 0.0], 1.0), ([0.0, 5.0], 1.0)])
        out = sp.rescale_covering(cov, 4.0)
        for bin_, bout in zip(cov.balls, out.balls):
            assert np.allclose(bin_.center, bout.center, atol=1e-12)
            assert bout.radius == pytest.approx(bin_.radius, abs=1e-12)

    def test_zero_r_star_normalizes_radii_only(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([2.0, 0.0], 1.5)])
        out = sp.rescale_covering(cov, 0.0)
        target = 2 + 2 * 1.5 + 1
        assert sp.norm_of(space, out.balls[0].center) == pytest.approx(target, abs=1e-12)
        assert out.balls[0].radius == target

    def test_gap_preserved_exactly(self):
        space = sp.lp(3, 1.5)
        cov = sp.make_covering(space, [([2, 0, 0], 1.0), ([0, 0, 2.5], 1.2)])
        out = sp.rescale_covering(cov, 0.7)
        cls = sp.classify_covering(out)
        assert cls.origin_gap >= 0.7 - 1e-12

    def test_rejects_r_star_above_gap(self):
        space = sp.lp(2, 2)
        cov = sp.make_covering(space, [([2.0, 0.0], 1.5)])
        with pytest.raises(ValueError):
            sp.rescale_covering(cov, 0.75)


class TestSerialization:
    def test_covering_round_trip(self):
        space = sp.linf_sum([sp.lp(2, 2), sp.lp(1, math.inf)])
        cov = sp.make_covering(space, [([2.0, 0.0, 0.1], 1.5), ([0, 2, -1], 1.0)])
        d = sp.covering_to_dict(cov)
        text = json.dumps(d)
        back = sp.covering_from_dict(json.loads(text))
        assert back.origin_gap == cov.origin_gap
        assert back.radius_bound == cov.radius_bound
        for a, b in zip(cov.balls, back.balls):
            assert np.array_equal(a.center, b.center)
            assert a.radius == b.radius

    def test_space_round_trip_infinite_exponent(self):
        space = sp.operator_space(sp.lp(3, math.inf), sp.lp(2, 2))
        back = sp.space_from_dict(sp.space_to_dict(space))
        assert back == space
