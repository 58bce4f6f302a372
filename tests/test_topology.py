import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcplab import topology as tp


def exhaustive_minimal(space):
    """Independent oracle: quadratic scan for inclusion-minimal nonempty opens."""
    opens = [o for o in space.opens if o]
    return sorted(o for o in opens
                  if not any(u != o and u & o == u for u in opens))


def exhaustive_pibasis(space, members):
    """Independent oracle for the pi-basis property."""
    for o in space.opens:
        if o and not any(m & o == m for m in members):
            return False, o
    return True, None


def preimage(pm, mask):
    out = 0
    for x, t in enumerate(pm.assignment):
        if (mask >> t) & 1:
            out |= 1 << x
    return out


class TestBuilders:
    def test_discrete_cube_2(self):
        s = tp.discrete_cube(2)
        assert s.n == 4
        assert len(s.opens) == 16
        tp.check_invariants(s)

    def test_discrete_cube_rejects_large_m(self):
        with pytest.raises(tp.TopologyError):
            tp.discrete_cube(17)
        with pytest.raises(tp.TopologyError):
            tp.discrete_cube(0)

    def test_discrete_cube_above_materialization(self):
        s = tp.discrete_cube(5)
        assert s.all_open and not s.materialized()
        assert s.is_open(0b1011)
        with pytest.raises(tp.TopologyError):
            tp.space_to_text(s)

    def test_sierpinski(self):
        s = tp.sierpinski()
        assert set(s.opens) == {0b00, 0b01, 0b11}
        tp.check_invariants(s)

    def test_convergent_model_shape(self):
        s = tp.convergent_model(5, 2)
        assert s.n == 9  # 5 isolated points, 4 base points
        # every isolated singleton is itself open
        for i in range(5):
            assert (1 << i) in s.opens
        tp.check_invariants(s)

    def test_convergent_model_size_guard(self):
        with pytest.raises(tp.TopologyError):
            tp.convergent_model(8, 4)

    def test_custom_space_accepts_topology(self):
        s = tp.custom_space(("x", "y"), [0b00, 0b01, 0b11])
        assert set(s.opens) == {0b00, 0b01, 0b11}

    def test_custom_space_rejects_non_closed_family(self):
        # missing the intersection {b} of {a,b} and {b,c}
        with pytest.raises(tp.TopologyError):
            tp.custom_space(("a", "b", "c"), [0b000, 0b011, 0b110, 0b111])


class TestProducts:
    def test_discrete_times_discrete(self):
        a = tp.discrete_cube(1)
        prod = tp.product_space(a, a)
        assert prod.n == 4
        assert len(prod.opens) == 16  # discrete again

    def test_sierpinski_square(self):
        s = tp.sierpinski()
        prod = tp.product_space(s, s)
        assert prod.n == 4
        aa = 1 << prod.points.index(("a", "a"))
        assert prod.is_open(aa)
        assert aa in tp.minimal_open_sets(prod).members
        tp.check_invariants(prod)

    def test_product_pibasis(self):
        a = tp.custom_space(("0", "1", "2"),
                            [0b000, 0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111])
        b = tp.sierpinski()
        prod = tp.product_space(a, b)
        basis_a = tp.PiBasis(a, (0b001, 0b010, 0b100))
        basis_b = tp.PiBasis(b, (0b01,))
        rects = tp.product_pibasis(basis_a, basis_b, prod)
        assert len(rects.members) == 3
        check = tp.is_pibasis(prod, rects)
        assert check.holds
        # oracle agreement
        assert exhaustive_pibasis(prod, rects.members) == (True, None)

    def test_rectangle_count(self):
        a = tp.discrete_cube(1)
        prod = tp.product_space(a, a)
        ba = tp.PiBasis(a, (0b01, 0b10))
        rects = tp.product_pibasis(ba, ba, prod)
        assert len(rects.members) == 4
        assert tp.is_pibasis(prod, rects).holds


class TestPiBasis:
    def test_singletons_of_discrete(self):
        s = tp.discrete_cube(2)
        singles = [1 << i for i in range(4)]
        assert tp.is_pibasis(s, singles).holds

    def test_split_family_fails_with_witness(self):
        s = tp.discrete_cube(2)
        check = tp.is_pibasis(s, [0b0011, 0b1100])
        assert not check.holds
        assert check.witness == 0b0001  # the smallest uncovered open

    def test_sierpinski_a_alone(self):
        s = tp.sierpinski()
        assert tp.is_pibasis(s, [0b01]).holds

    def test_rejects_malformed_members(self):
        s = tp.sierpinski()
        with pytest.raises(tp.TopologyError):
            tp.is_pibasis(s, [0b00])  # empty
        with pytest.raises(tp.TopologyError):
            tp.is_pibasis(s, [0b10])  # {b} is not open

    def test_all_open_space_needs_all_singletons(self):
        s = tp.discrete_cube(5)
        full = [1 << i for i in range(32)]
        assert tp.is_pibasis(s, full).holds
        check = tp.is_pibasis(s, full[1:])
        assert not check.holds and check.witness == 1


class TestMinimalOpens:
    def test_cube3_singletons(self):
        s = tp.discrete_cube(3)
        basis = tp.minimal_open_sets(s)
        assert len(basis.members) == 8
        assert set(basis.members) == {1 << i for i in range(8)}

    def test_convergent_model_oracle(self):
        s = tp.convergent_model(5, 2)
        basis = tp.minimal_open_sets(s)
        assert sorted(basis.members) == exhaustive_minimal(s)
        assert len(basis.members) == 5

    def test_sierpinski_weight_one(self):
        s = tp.sierpinski()
        assert tp.minimal_open_sets(s).members == (0b01,)
        assert tp.pi_weight(s) == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_cube_weight_exact(self, m):
        assert tp.pi_weight(tp.discrete_cube(m)) == 2 ** m

    @pytest.mark.parametrize("N", [1, 3, 5, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_model_weight_independent_of_m(self, N, m):
        assert tp.pi_weight(tp.convergent_model(N, m)) == N

    def test_minimal_family_is_pibasis_and_minimal(self):
        for space in (tp.discrete_cube(2), tp.sierpinski(),
                      tp.convergent_model(4, 2)):
            basis = tp.minimal_open_sets(space)
            assert tp.is_pibasis(space, basis).holds
            for k in range(len(basis.members)):
                reduced = basis.members[:k] + basis.members[k + 1:]
                if reduced:
                    assert not tp.is_pibasis(space, reduced).holds

    def test_any_pibasis_contains_every_minimal_open(self):
        space = tp.convergent_model(4, 2)
        minimal = set(tp.minimal_open_sets(space).members)
        # a fatter pi-basis: all opens of size <= 3
        family = [o for o in space.opens if o and o.bit_count() <= 3]
        assert tp.is_pibasis(space, family).holds
        assert minimal <= set(family)


class TestContinuity:
    def test_projection_and_embedding(self):
        model = tp.convergent_model(4, 2)
        cube = tp.discrete_cube(2)
        alpha = tp.first_coordinate_projection(model, cube)
        beta = tp.zero_level_embedding(cube, model)
        assert tp.is_continuous_map(alpha).continuous
        assert tp.is_continuous_map(beta).continuous
        comp = tp.compose(beta, alpha)
        assert comp.assignment == tuple(range(cube.n))

    def test_projection_larger_model(self):
        model = tp.convergent_model(8, 3)
        cube = tp.discrete_cube(3)
        assert tp.is_continuous_map(
            tp.first_coordinate_projection(model, cube)).continuous

    def test_sierpinski_collapse_is_continuous(self):
        # sending the closed point b to a (fixing a) pulls {a} back to {a,b},
        # which is open, so the exhaustive check says continuous
        s = tp.sierpinski()
        collapse = tp.PointMap(s, s, (0, 0))
        check = tp.is_continuous_map(collapse)
        oracle = all(s.is_open(preimage(collapse, o)) for o in s.opens)
        assert check.continuous == oracle is True

    def test_sierpinski_swap_is_discontinuous(self):
        s = tp.sierpinski()
        swap = tp.PointMap(s, s, (1, 0))
        check = tp.is_continuous_map(swap)
        assert not check.continuous
        assert check.witness == 0b01  # preimage {b} is not open

    def test_totality_enforced(self):
        s = tp.sierpinski()
        with pytest.raises(tp.TopologyError):
            tp.PointMap(s, s, (0,))
        with pytest.raises(tp.TopologyError):
            tp.PointMap(s, s, (0, 5))

    def test_quotient_weight_collapse(self):
        # continuous surjection from pi-weight N model onto the 2^m cube
        model = tp.convergent_model(8, 3)
        cube = tp.discrete_cube(3)
        alpha = tp.first_coordinate_projection(model, cube)
        assert tp.is_continuous_map(alpha).continuous
        assert set(alpha.assignment) == set(range(cube.n))  # onto
        assert tp.pi_weight(model) == 8
        assert tp.pi_weight(cube) == 2 ** 3


class TestCubeWeightGrowth:
    def test_exponential_weight_of_cubes(self):
        # the cube's smallest pi-basis doubles with each coordinate
        weights = [tp.pi_weight(tp.discrete_cube(m)) for m in (1, 2, 3, 4)]
        assert weights == [2, 4, 8, 16]


class TestSerialization:
    def test_round_trip(self):
        s = tp.convergent_model(3, 1)
        text = tp.space_to_text(s)
        back = tp.space_from_text(text)
        assert back.n == s.n
        assert set(back.opens) == set(s.opens)

    def test_header_required(self):
        with pytest.raises(tp.TopologyError):
            tp.space_from_text("0x3\n0x0\n")

    def test_text_format_shape(self):
        text = tp.space_to_text(tp.sierpinski())
        lines = text.strip().splitlines()
        assert lines[0] == "points: 2"
        assert lines[1:] == ["0x0", "0x1", "0x3"]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5),
       st.lists(st.integers(1, 31), min_size=1, max_size=6))
def test_generated_spaces_satisfy_invariants(n, gens):
    gens = [g & ((1 << n) - 1) for g in gens]
    space = tp.space_from_generators(tuple(range(n)), [g for g in gens if g])
    tp.check_invariants(space)
    basis = tp.minimal_open_sets(space)
    assert tp.is_pibasis(space, basis).holds
    assert sorted(basis.members) == exhaustive_minimal(space)
