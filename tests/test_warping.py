import numpy as np
import pytest

from gpalign.errors import EndpointViolation, QueryOutOfDomain
from gpalign.warping import (_compose_inverse, apply_warp, at_inverse_warps,
                             eval_linear, invert_warp, project_endpoint,
                             warp_from_base)


class TestWarpFromBase:
    def test_identity(self, grid3):
        h = warp_from_base(np.zeros(2), grid3)
        assert np.allclose(h, [0.0, 0.5, 1.0])

    def test_cumulative_sum_evaluation(self, grid3):
        # direct evaluation: h = (0, 0 + 0.5*1.5, 0.75 + 0.5*0.5)
        h = warp_from_base(np.log([1.5, 0.5]), grid3)
        assert np.allclose(h, [0.0, 0.75, 1.0])

    def test_unprojected_constant_violates_endpoint(self, grid3):
        with pytest.raises(EndpointViolation):
            warp_from_base(np.array([0.3, 0.3]), grid3)

    def test_strictly_increasing(self, grid10):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = project_endpoint(rng.normal(0, 1.5, grid10.p - 1), grid10)
            h = warp_from_base(w, grid10)
            assert np.all(np.diff(h) > 0)
            assert h[0] == grid10.t1 and h[-1] == grid10.tp


class TestProjectEndpoint:
    def test_constant_base_projects_to_zero(self, grid3):
        for c in (-2.0, 0.7, 3.1):
            w = project_endpoint(np.full(2, c), grid3)
            assert np.allclose(w, 0.0, atol=1e-12)

    def test_idempotent(self, grid10):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 1, grid10.p - 1)
        w1 = project_endpoint(w, grid10)
        w2 = project_endpoint(w1, grid10)
        assert np.allclose(w1, w2, atol=1e-14)

    def test_hand_computed_scale(self, grid3):
        # s = e^{0.3}: sum of 0.5*e^{0.3} twice over a unit domain
        w = project_endpoint(np.array([0.3, 0.3]), grid3)
        assert np.allclose(w, 0.0, atol=1e-12)

    def test_shape_invariant_up_to_rescale(self, grid10):
        # projection subtracts a constant, so base differences are preserved
        rng = np.random.default_rng(2)
        w = rng.normal(0, 0.8, grid10.p - 1)
        w1 = project_endpoint(w, grid10)
        assert np.allclose(np.diff(w), np.diff(w1), atol=1e-12)


class TestInvertWarp:
    def test_identity(self, grid3):
        h = np.array([0.0, 0.5, 1.0])
        assert invert_warp(h, grid3, 0.3) == pytest.approx(0.3)

    def test_first_segment_solution(self, grid3):
        # h(t) = 1.5 t on [0, 0.5]; h(s) = 0.5 at s = 1/3
        h = np.array([0.0, 0.75, 1.0])
        assert invert_warp(h, grid3, 0.5) == pytest.approx(1.0 / 3.0)

    def test_out_of_domain(self, grid3):
        h = np.array([0.0, 0.75, 1.0])
        with pytest.raises(QueryOutOfDomain):
            invert_warp(h, grid3, 1.2)

    def test_exact_at_knots(self, grid10):
        rng = np.random.default_rng(4)
        w = project_endpoint(rng.normal(0, 1, grid10.p - 1), grid10)
        h = warp_from_base(w, grid10)
        back = invert_warp(h, grid10, h)
        assert np.allclose(back, grid10.points, atol=1e-12)


class TestEvalLinear:
    def test_midpoint(self, grid3):
        assert eval_linear([0.0, 1.0, 2.0], grid3, 0.25) == pytest.approx(0.5)

    def test_exact_at_knot(self, grid3):
        assert eval_linear([0.0, 1.0, 2.0], grid3, 0.5) == pytest.approx(1.0)

    def test_hand_interpolation(self, grid3):
        assert eval_linear([1.0, 3.0, 2.0], grid3, 0.75) == pytest.approx(2.5)

    def test_out_of_domain(self, grid3):
        with pytest.raises(QueryOutOfDomain):
            eval_linear([1.0, 3.0, 2.0], grid3, -0.1)


class TestApplyWarp:
    def test_identity(self, grid3):
        x = np.array([0.3, -1.0, 2.0])
        out = apply_warp(x, grid3, grid3.points)
        assert np.allclose(out, x)

    def test_hand_example(self, grid3):
        out = apply_warp([0.0, 1.0, 2.0], grid3, np.array([0.0, 0.75, 1.0]))
        assert np.allclose(out, [0.0, 1.5, 2.0])

    def test_constants_preserved(self, grid10):
        rng = np.random.default_rng(5)
        w = project_endpoint(rng.normal(0, 1, grid10.p - 1), grid10)
        h = warp_from_base(w, grid10)
        out = apply_warp(np.full(grid10.p, 4.2), grid10, h)
        assert np.allclose(out, 4.2)


def test_round_trip_interpolation_error(grid10):
    # warp then unwarp a smooth curve: error is O(max spacing^2)
    rng = np.random.default_rng(6)
    t = grid10.points
    x = np.sin(2.0 * np.pi * t / 2.0)
    spacing = np.max(np.diff(t))
    for _ in range(20):
        w = project_endpoint(rng.normal(0, 0.5, grid10.p - 1), grid10)
        h = warp_from_base(w, grid10)
        warped = apply_warp(x, grid10, h)
        hinv = invert_warp(h, grid10, t)
        back = np.interp(hinv, t, warped)
        interior = slice(1, -1)
        assert np.abs(back - x)[interior].max() < 4.0 * spacing ** 2 * (2 * np.pi / 2.0) ** 2


def test_round_trip_exact_for_aligned_piecewise_linear(grid3):
    # piecewise-linear curve with knots at the warp images is recovered exactly
    w = project_endpoint(np.array([0.4, -0.4]), grid3)
    h = warp_from_base(w, grid3)
    x = np.array([0.0, 2.0, 1.0])
    warped = apply_warp(x, grid3, h)
    assert warped[1] == pytest.approx(np.interp(h[1], grid3.points, x))


def test_warp_with_custom_end_value():
    nodes = np.array([0.0, 0.4, 0.8, 1.2])
    w = project_endpoint(np.zeros(3), nodes, end_value=0.9)
    h = warp_from_base(w, nodes, end_value=0.9)
    assert h[0] == 0.0
    assert h[-1] == pytest.approx(0.9)
    assert np.all(np.diff(h) > 0)


class TestComposeInverse:
    """The one inverse-composition kernel against np.interp, row by row."""

    @pytest.mark.parametrize("per_row", [False, True])
    def test_matches_np_interp(self, per_row):
        rng = np.random.default_rng(18)
        n, m = 7, 9
        nodes = np.sort(rng.uniform(0.0, 2.0, m))
        h = np.sort(rng.uniform(0.3, 1.7, (n, m)), axis=1)  # random increasing maps
        # values' knots start above nodes[0] and end on nodes[-1]
        knots = np.sort(np.concatenate([nodes[2:], rng.uniform(nodes[2], nodes[-1], 4)]))
        values = rng.standard_normal((n, knots.size) if per_row else knots.size)
        # below every map's first knot, exactly on knots of row 0 (so the
        # inverse lands on knots of ``values``), on its last knot, and beyond
        queries = np.sort(np.concatenate([[0.1], h[0, [2, 5, -1]],
                                          rng.uniform(0.0, 2.0, 12), [1.9]]))
        out = _compose_inverse(values, knots, h, nodes, queries)
        assert out.shape == (n, queries.size)
        for i in range(n):
            expected = np.interp(np.interp(queries, h[i], nodes), knots,
                                 values[i] if per_row else values)
            assert np.array_equal(out[i], expected)

    def test_at_inverse_warps_is_the_grid_case(self, grid_nonuniform):
        rng = np.random.default_rng(19)
        t = grid_nonuniform.points
        w = project_endpoint(rng.normal(0.0, 0.6, (5, t.size - 1)), t)
        f = rng.standard_normal((5, t.size))
        h = warp_from_base(w, t)
        out = at_inverse_warps(f, w, grid_nonuniform)
        assert np.array_equal(out, _compose_inverse(f, t, h, t, t))
        for i in range(5):
            assert np.array_equal(out[i], np.interp(np.interp(t, h[i], t), t, f[i]))
