"""Live kernels against the references in ``reference.py``, compared exactly.

Floats must be equal, arrays ``np.array_equal`` and dicts equal: these
kernels feed every report, and one ulp moves a digest.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference as ref
from bcplab import op_cover as oc
from bcplab import spaces as sp

EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=64)

lp_spaces = st.builds(sp.lp, st.integers(1, 12), st.sampled_from(EXPONENTS))
sup_grids = st.one_of(
    st.builds(sp.sup_grid, st.integers(1, 12)),
    st.builds(sp.sup_grid, st.integers(2, 40), st.just("lipschitz"),
              st.floats(0.25, 16.0)))
flat_spaces = st.one_of(lp_spaces, sup_grids)
sums = st.lists(flat_spaces, min_size=1, max_size=4).map(sp.linf_sum)
nested_sums = st.lists(st.one_of(flat_spaces, sums), min_size=1, max_size=3).map(sp.linf_sum)
operator_spaces = st.builds(
    lambda shape, q, p: sp.operator_space(sp.lp(shape[1], q), sp.lp(shape[0], p)),
    st.sampled_from([(2, 2), (2, 3)]), st.sampled_from(EXPONENTS), st.sampled_from(EXPONENTS),
).filter(lambda s: not (s.codomain.p == 1.0 and 1.0 < s.domain.p < math.inf))  # no oracle
vector_spaces = st.one_of(flat_spaces, nested_sums)
all_spaces = st.one_of(vector_spaces, operator_spaces)


def _rows(space, k, seed):
    """k rows at mixed scales: sphere-sized, tiny and large entries."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-3, 4, size=(k, 1))
    return rng.standard_normal((k, space.dim)) * scales


class TestSpaceKernels:
    @settings(max_examples=300, deadline=None)
    @given(vector_spaces, st.integers(0, 2**32 - 1))
    def test_norm_of(self, space, seed):
        for v in _rows(space, 8, seed):
            live, expected = sp.norm_of(space, v), ref.norm_of(space, v)
            assert type(live) is float and live == expected

    @settings(max_examples=300, deadline=None)
    @given(vector_spaces, st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_norms_rows(self, space, k, seed):
        rows = _rows(space, k, seed)
        assert np.array_equal(sp.norms_rows(space, rows), ref.norms_rows(space, rows))

    @settings(max_examples=300, deadline=None)
    @given(vector_spaces, st.integers(0, 2**64 - 1))
    def test_sample_sphere(self, space, seed):
        assert np.array_equal(sp.sample_sphere(space, seed), ref.sample_sphere(space, seed))

    @settings(max_examples=40, deadline=None)
    @given(operator_spaces, st.integers(0, 2**32 - 1))
    def test_operator_kernels(self, space, seed):
        rows = _rows(space, 3, seed)
        assert np.array_equal(sp.norms_rows(space, rows), ref.norms_rows(space, rows))
        assert sp.norm_of(space, rows[0]) == ref.norm_of(space, rows[0])
        assert np.array_equal(sp.sample_sphere(space, seed), ref.sample_sphere(space, seed))

    @given(all_spaces)
    def test_to_dict(self, space):
        assert space.to_dict() == ref.space_to_dict(space)
        assert space.dim == ref.dim(space)


class TestLpNormsKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EXPONENTS + (1.1, 2.5, 7.0)),
           hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24),
                      elements=ENTRIES))
    def test_axis_0_and_1(self, p, X):
        assert np.array_equal(oc._lp_norms(X, p, 0), ref.col_lp_norms(X, p)[0])
        rows = oc._lp_norms(X, p, 1)
        assert np.array_equal(rows, ref.separating_row_norms(X, p))
        assert np.array_equal(rows, ref.bruteforce_row_norms(X, p))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(EXPONENTS + (2.5,)), st.integers(1, 12), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_sphere_scaled_columns(self, p, n, k, seed):
        # the ascent normalizes columns of near-unit size, where the last ulp
        # of the root decides; a scalar root would differ on some of them
        X = np.random.default_rng(seed).standard_normal((n, k))
        assert np.array_equal(oc._lp_norms(X, p, 0), ref.col_lp_norms(X, p)[0])
        assert np.array_equal(oc._lp_norms(X.T, p, 1), ref.separating_row_norms(X.T, p))


class TestJsonRoundTrip:
    SPACES = [
        sp.lp(3, 1.5), sp.lp(4, math.inf), sp.sup_grid(5),
        sp.sup_grid(8, "lipschitz", slope=2.5),
        sp.linf_sum([sp.lp(2, 1.0), sp.sup_grid(3), sp.linf_sum([sp.lp(2, math.inf)])]),
        sp.operator_space(sp.lp(3, math.inf), sp.lp(2, 2.0)),
    ]

    def test_every_kind(self):
        for space in self.SPACES:
            d = space.to_dict()
            assert d == ref.space_to_dict(space)
            assert sp.space_from_dict(d) == space
            assert sp.space_from_dict(json.loads(json.dumps(d))) == space

    @given(all_spaces)
    def test_generated(self, space):
        assert sp.space_from_dict(json.loads(json.dumps(space.to_dict()))) == space
