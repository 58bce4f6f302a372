import numpy as np
import pytest

from bcplab import ck_cover as ck
from bcplab import op_cover as oc
from bcplab import spaces as sp
from bcplab import topology as tp


def make_cover(nodes=4, lam=1.2):
    space = sp.sup_grid(nodes)
    return space, ck.build_ck_cover(space, ck.CkCoverConfig(lam=lam))


class TestBuildCkCover:
    def test_shape_and_constants(self):
        space, cov = make_cover(4, 1.2)
        assert len(cov.balls) == 8  # one signed pair per singleton
        assert cov.radius_bound == 1.0
        assert cov.origin_gap == 1.2 - 1.0
        assert sp.classify_covering(cov).label == "UBCP"

    def test_peak_sample_certified_by_matching_bump(self):
        space, cov = make_cover(4, 1.2)
        cert = sp.certify_point(cov, [1.0, 0.0, 0.0, 0.0])
        assert cert.ball_index == 0
        assert cert.distance == pytest.approx(0.2, abs=1e-15)

    def test_constant_one_is_a_boundary_pass(self):
        space, cov = make_cover(4, 1.2)
        cert = sp.certify_point(cov, np.ones(4))
        assert cert.distance == 1.0
        assert cert.margin == 0.0

    def test_scaled_bump_distance(self):
        space, cov = make_cover(4, 1.2)
        g = cov.balls[0].center / 1.2
        cert = sp.certify_point(cov, g)
        assert cert.distance == pytest.approx(1.2 - 1.0, abs=1e-15)

    def test_lambda_range_enforced(self):
        space = sp.sup_grid(4)
        for lam in (0.9, 1.0, 1.6):
            with pytest.raises(ValueError):
                ck.build_ck_cover(space, ck.CkCoverConfig(lam=lam))

    def test_all_samples_certified_discrete(self):
        space, cov = make_cover(8, 1.2)
        for seed in range(500):
            g = sp.sample_sphere(space, seed)
            cert = sp.certify_point(cov, g)
            assert cert.margin >= 0.0

    def test_origin_never_covered(self):
        space, cov = make_cover(6, 1.4)
        with pytest.raises(sp.NotCovered):
            sp.certify_point(cov, np.zeros(6))


class TestLipschitzMode:
    def setup_method(self):
        self.space = sp.sup_grid(64, "lipschitz", slope=4.0)
        self.basis = ck.dyadic_interval_basis(self.space)
        self.cov = ck.build_ck_cover(
            self.space, ck.CkCoverConfig(lam=1.2, basis=self.basis))

    def test_tent_bumps_are_admissible_centers(self):
        for member, ball in zip(self.basis, self.cov.balls[::2]):
            f = ball.center
            assert f.max() == pytest.approx(1.2)
            assert np.all(f >= 0)
            outside = [i for i in range(self.space.n) if i not in member]
            assert np.all(f[outside] == 0.0)

    def test_superlevel_samples_always_certify(self):
        certified = unmet = 0
        for seed in range(300):
            g = sp.sample_sphere(self.space, seed)
            member = ck.superlevel_member(self.space, self.basis, g)
            if member is None:
                unmet += 1
                continue
            cert = sp.certify_point(self.cov, g)
            assert cert.margin >= 0.0
            certified += 1
        assert certified > 200  # the dyadic depth matches the sampler's slope
        assert certified + unmet == 300


class TestWitnessSearch:
    def rigged(self, nodes=4, dead=3):
        space = sp.sup_grid(nodes)
        balls = []
        for i in range(nodes):
            if i == dead:
                continue
            e = np.zeros(nodes)
            e[i] = 1.3
            balls.append((e, 1.1))
            balls.append((-e, 1.1))
        return sp.make_covering(space, balls)

    def test_dead_node_yields_exact_witness(self):
        cov = self.rigged()
        res = ck.pibasis_witness_search(cov, [(i,) for i in range(4)])
        assert res.falsified
        assert res.witness_open == (3,)
        assert all(m >= 0.0 for m in res.margins)
        # the witness bump defeats every ball: distance at least the center norm
        for ball in cov.balls:
            nrm = sp.norm_of(cov.space, ball.center)
            assert sp.norm_of(cov.space, res.witness_bump - ball.center) >= nrm

    def test_witness_is_uncoverable(self):
        cov = self.rigged()
        res = ck.pibasis_witness_search(cov, [(i,) for i in range(4)])
        with pytest.raises(sp.NotCovered):
            sp.certify_point(cov, res.witness_bump)

    def test_healthy_covering_passes(self):
        space, cov = make_cover(4, 1.2)
        res = ck.pibasis_witness_search(cov, [(i,) for i in range(4)])
        assert not res.falsified
        assert res.relative_pibasis

    def test_level_sets_are_the_bump_peaks(self):
        space, cov = make_cover(4, 1.2)
        centers = [b.center for b in cov.balls]
        for c in centers:
            peak = set(np.flatnonzero(np.abs(c) > 1.2 - 1.0).tolist())
            assert peak == set(np.flatnonzero(np.abs(c) > 0.5).tolist())

    def test_level_set_nesting(self):
        space, cov = make_cover(4, 1.2)
        c = cov.balls[0].center
        nrm = float(np.abs(c).max())
        sets = [frozenset(np.flatnonzero(np.abs(c) > nrm - 1.0 / k).tolist())
                for k in range(1, 9)]
        for a, b in zip(sets, sets[1:]):
            assert b <= a

    def test_rejects_small_centers(self):
        space = sp.sup_grid(3)
        cov = sp.make_covering(space, [(np.array([0.9, 0.0, 0.0]), 0.5)])
        with pytest.raises(ValueError):
            ck.pibasis_witness_search(cov, [(0,)])


def rescaled_axis_covering(x_space, r_star=0.5):
    return sp.rescale_covering(oc.axis_covering(x_space), r_star)


class TestBuildCkxCover:
    def test_example_ball_and_constant_function(self):
        space = sp.sup_grid(2)
        x_space = sp.lp(2, 2)
        x_cov = sp.make_covering(
            x_space, [([2.0, 0.0], 1.2), ([-2.0, 0.0], 1.2),
                      ([0.0, 2.0], 1.2), ([0.0, -2.0], 1.2)])
        cov = ck.build_ckx_cover(space, x_cov)
        assert cov.balls[0].radius == pytest.approx(1.6)  # max((2+1.2)/2, 1)
        g = np.array([1.0, 0.0, 1.0, 0.0])  # constantly e1 on both nodes
        matches = [k for k, b in enumerate(cov.balls)
                   if sp.norm_of(cov.space, g - b.center) <= 1.6 + 1e-12]
        assert matches  # certified within the two-case bound

    def test_bump_times_center_distance(self):
        space = sp.sup_grid(2)
        x_space = sp.lp(2, 2)
        x_cov = sp.make_covering(x_space, [([2.0, 0.0], 1.2)])
        cov = ck.build_ckx_cover(space, x_cov)
        ball = cov.balls[0]
        g = ball.center / sp.norm_of(cov.space, ball.center)
        cert = sp.certify_point(cov, g)
        assert cert.distance <= ball.radius

    def test_precondition_on_radii(self):
        space = sp.sup_grid(2)
        x_space = sp.lp(2, 2)
        with pytest.raises(ValueError):
            ck.build_ckx_cover(space, sp.make_covering(x_space, [([2.0, 0.0], 0.9)]))
        with pytest.raises(ValueError):
            ck.build_ckx_cover(space, sp.make_covering(x_space, [([2.0, 0.0], 2.5)]))

    def test_monte_carlo_fully_certified(self):
        space = sp.sup_grid(4)
        x_space = sp.lp(2, 2)
        cov = ck.build_ckx_cover(space, rescaled_axis_covering(x_space))
        for seed in range(300):
            g = sp.sample_sphere(cov.space, seed)
            cert = sp.certify_point(cov, g)
            assert cert.margin >= 0.0

    def test_rejects_lipschitz_mode(self):
        space = sp.sup_grid(8, "lipschitz", slope=4.0)
        with pytest.raises(ValueError):
            ck.build_ckx_cover(space, rescaled_axis_covering(sp.lp(2, 2)))


@pytest.fixture(scope="module")
def pipeline():
    space = sp.sup_grid(4)
    x_space = sp.lp(2, 2)
    x_cov = rescaled_axis_covering(x_space)
    cov = ck.build_ckx_cover(space, x_cov)
    return x_space, space, cov, ck.ckx_transfer(cov, m_max=50)


class TestCkxTransfer:
    def test_x_covering_inherits_admissibility(self, pipeline):
        x_space, space, cov, res = pipeline
        for ball, src in zip(res.x_covering.balls, cov.balls):
            assert ball.radius < sp.norm_of(x_space, ball.center)
            assert ball.radius == src.radius

    def test_x_samples_certified(self, pipeline):
        x_space, space, cov, res = pipeline
        for seed in range(300):
            x = sp.sample_sphere(x_space, seed)
            cert = sp.certify_point(res.x_covering, x)
            assert cert.margin >= 0.0

    def test_scalar_samples_certified(self, pipeline):
        x_space, space, cov, res = pipeline
        for seed in range(300):
            f = sp.sample_sphere(space, seed)
            cert = ck.scalar_transfer_certify(res, f)
            m, n, sign = res.scalar_labels[cert.ball_index]
            assert 1 <= m <= 50
            assert cert.margin > 0.0

    def test_scalar_search_ascends_in_m(self, pipeline):
        x_space, space, cov, res = pipeline
        multiples = [res.scalar_labels[k][0] for k in range(len(res.scalar_labels))]
        assert multiples == sorted(multiples)

    def test_exhaustion_reported(self):
        # flat node norms never separate the positive and negative parts
        space = sp.linf_sum((sp.lp(1, 2), sp.lp(1, 2)))
        cov = sp.make_covering(space, [(np.array([2.0, 2.0]), 1.5)])
        res = ck.ckx_transfer(cov, m_max=8)
        f = np.array([1.0, -0.5])
        with pytest.raises(ck.ScalarTransferExhausted):
            ck.scalar_transfer_certify(res, f)


class TestContinuousSampling:
    def test_model_classes_pair_base_with_last_repeat(self):
        # each base point is glued to the last isolated point carrying its label
        model = tp.convergent_model(4, 2)
        classes = ck.continuity_classes(model)
        assert sorted(len(c) for c in classes) == [2, 2, 2, 2]
        for cls in classes:
            labels = {model.points[i][0] for i in cls}
            assert len(labels) == 1

    def test_continuous_samples_certify_with_pi_basis_covering(self):
        # covering of C(model) built from the N-member minimal pi-basis only
        model = tp.convergent_model(5, 2)
        basis_masks = tp.minimal_open_sets(model).members
        basis = tuple(tuple(i for i in range(model.n) if (mm >> i) & 1)
                      for mm in basis_masks)
        space = sp.sup_grid(model.n)
        cov = ck.build_ck_cover(space, ck.CkCoverConfig(lam=1.2, basis=basis))
        assert len(cov.balls) == 2 * 5  # driven by pi-weight, not node count
        for seed in range(300):
            g = ck.sample_continuous_sup(model, seed)
            cert = sp.certify_point(cov, g)
            assert cert.margin >= 0.0


class TestComplementation:
    def make_pair(self, N=4, m=2):
        model = tp.convergent_model(N, m)
        cube = tp.discrete_cube(m)
        alpha = tp.first_coordinate_projection(model, cube)
        beta = tp.zero_level_embedding(cube, model)
        return model, cube, alpha, beta

    def test_all_checks_exact(self):
        model, cube, alpha, beta = self.make_pair()
        rec = ck.complementation_pair(model, cube, alpha, beta)
        assert rec.identity_ok
        assert rec.idempotent_ok
        assert rec.lift_norm == 1
        assert rec.restriction_norm == 1

    def test_projection_applied_twice_equals_once(self):
        model, cube, alpha, beta = self.make_pair()
        rec = ck.complementation_pair(model, cube, alpha, beta)
        rng = np.random.default_rng(13)
        v = rng.standard_normal(model.n)
        once = rec.projection @ v
        assert np.array_equal(rec.projection @ once, once)

    def test_lift_preserves_sup_norm(self):
        model, cube, alpha, beta = self.make_pair()
        rec = ck.complementation_pair(model, cube, alpha, beta)
        rng = np.random.default_rng(29)
        for _ in range(50):
            h = rng.standard_normal(cube.n)
            assert np.abs(rec.lift @ h).max() == np.abs(h).max()

    def test_rejects_non_identity_composition(self):
        model, cube, alpha, beta = self.make_pair()
        twisted = tp.PointMap(cube, model,
                              beta.assignment[1:] + beta.assignment[:1])
        with pytest.raises(ValueError):
            ck.complementation_pair(model, cube, alpha, twisted)

    def test_rejects_discontinuous_map(self):
        # N < 2^m leaves a cube vertex with no matching isolated point, which
        # breaks continuity of the projection
        model = tp.convergent_model(2, 2)
        cube = tp.discrete_cube(2)
        alpha = tp.first_coordinate_projection(model, cube)
        beta = tp.zero_level_embedding(cube, model)
        assert not tp.is_continuous_map(alpha).continuous
        with pytest.raises(ValueError):
            ck.complementation_pair(model, cube, alpha, beta)
