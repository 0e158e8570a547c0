import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsa import regularizers
from sparsa.regularizers import (
    GroupL2Regularizer,
    L1Regularizer,
    Regularizer,
    TVIsoRegularizer,
    soft_threshold,
    tv_divergence,
    tv_gradient,
    tv_prox,
    tv_value_2d,
)
from conftest import (
    _tv_divergence,
    _tv_gradient,
    golden_min,
    tv_objective,
    tv_prox_dual_oracle,
    tv_prox_plain_loop,
)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestValues:
    def test_l1_value(self):
        assert L1Regularizer(2.0).value([1.0, -3.0]) == pytest.approx(8.0)

    def test_group_value(self):
        reg = GroupL2Regularizer(1.0, [[0, 1], [2, 3]])
        assert reg.value([3.0, 4.0, 0.0, 0.0]) == pytest.approx(5.0)

    def test_tv_constant_image_is_zero(self):
        reg = TVIsoRegularizer(1.0, (4, 4))
        assert reg.value(np.full(16, 2.5)) == 0.0

    def test_zero_value(self):
        assert L1Regularizer(0.0).value([1.0, 2.0]) == 0.0

    def test_values_convex_on_random_pairs(self, rng):
        regs = [
            L1Regularizer(0.7),
            GroupL2Regularizer(0.7, [[0, 1, 2], [3, 4, 5]]),
            TVIsoRegularizer(0.7, (2, 3)),
        ]
        for reg in regs:
            for _ in range(50):
                x = rng.standard_normal(6)
                y = rng.standard_normal(6)
                mid = reg.value(0.5 * (x + y))
                assert mid <= 0.5 * (reg.value(x) + reg.value(y)) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^x: expected vector of length 2"):
            GroupL2Regularizer(1.0, [[0, 1]]).value([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^x: expected vector of length 4"):
            TVIsoRegularizer(1.0, (2, 2)).value([1.0, 2.0])
        with pytest.raises(ValueError, match="^u: expected vector of length 2"):
            GroupL2Regularizer(1.0, [[0, 1]]).prox([1.0, 2.0, 3.0], alpha=1.0)
        with pytest.raises(ValueError, match="^u: expected vector of length 4"):
            TVIsoRegularizer(1.0, (2, 2)).prox([1.0, 2.0], alpha=1.0)


class TestProxClosedForms:
    def test_l1_soft_threshold(self):
        reg = L1Regularizer(2.0)
        # threshold tau/(2 alpha) = 1
        assert np.allclose(reg.prox([3.0, -1.0, 0.5], alpha=1.0), [2.0, 0.0, 0.0])

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.5])
    def test_soft_threshold_byte_equal_to_formula(self, rng, t):
        u = np.concatenate([[0.0, -0.0, 0.3, -0.3, 2.5, -2.5], rng.standard_normal(50)])
        want = np.sign(u) * np.maximum(np.abs(u) - t, 0.0)
        got = soft_threshold(u, t)
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, u)

    def test_tau_zero_returns_u(self, rng):
        u = rng.standard_normal(6)
        # l1 at tau = 0 is the smooth problem (psi = 0): an exact copy of u
        # for finite nonzero entries, and a value of exactly zero
        smooth = L1Regularizer(0.0)
        z = smooth.prox(u, alpha=0.7)
        assert z.tobytes() == u.tobytes()
        assert not np.shares_memory(z, u)
        assert smooth.value(u) == 0.0
        group = GroupL2Regularizer(0.0, [[0, 1, 2], [3, 4, 5]])
        assert np.allclose(group.prox(u, alpha=0.7), u)
        tv = TVIsoRegularizer(0.0, (2, 3))
        assert np.allclose(tv.prox(u, alpha=0.7), u)

    def test_tau_zero_prox_maps_negative_zero_to_positive_zero(self):
        # np.sign(-0.0) is +0.0, so the smooth case does not keep the sign bit
        z = L1Regularizer(0.0).prox(np.array([-0.0, 0.0, -1.5]), alpha=0.7)
        assert z.tobytes() == np.array([0.0, 0.0, -1.5]).tobytes()

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")], ids=str)
    def test_tau_zero_value_is_nan_at_non_finite_entry(self, bad):
        # 0 * inf is nan: the smooth case's value is only zero on finite input
        assert np.isnan(L1Regularizer(0.0).value([1.0, bad]))

    def test_group_shrinkage(self):
        reg = GroupL2Regularizer(2.0, [[0, 1]])
        # threshold tau/(2 alpha) = 2, scale 1 - 2/5
        assert np.allclose(reg.prox([3.0, 4.0], alpha=0.5), [1.8, 2.4])

    def test_group_below_threshold_zeroed(self):
        reg = GroupL2Regularizer(10.0, [[0, 1]])
        assert np.allclose(reg.prox([0.3, 0.4], alpha=1.0), [0.0, 0.0])


class TestProxAgainstNumericOracle:
    def test_l1_matches_coordinatewise_golden_section(self, rng):
        reg_cache = {}
        for _ in range(50):
            u = rng.standard_normal(5) * 3
            tau = rng.uniform(0.01, 2.0)
            alpha = rng.uniform(0.05, 5.0)
            z = L1Regularizer(tau).prox(u, alpha)
            t = np.longdouble(tau) / (2 * np.longdouble(alpha))
            for i in range(5):
                ui = np.longdouble(u[i])
                zi = golden_min(
                    lambda v: 0.5 * (v - ui) ** 2 + t * abs(v),
                    -abs(float(u[i])) - 1,
                    abs(float(u[i])) + 1,
                )
                assert abs(zi - z[i]) <= 1e-8

    def test_group_matches_radial_golden_section(self, rng):
        for _ in range(50):
            u = rng.standard_normal(5) * 2
            tau = rng.uniform(0.01, 2.0)
            alpha = rng.uniform(0.05, 5.0)
            reg = GroupL2Regularizer(tau, [list(range(5))])
            z = reg.prox(u, alpha)
            t = np.longdouble(tau) / (2 * np.longdouble(alpha))
            nrm = np.longdouble(np.linalg.norm(u))
            r_star = golden_min(
                lambda r: 0.5 * (r - nrm) ** 2 + t * abs(r), 0.0, float(nrm) + 1.0
            )
            z_oracle = (u / float(nrm)) * max(r_star, 0.0)
            assert np.max(np.abs(z - z_oracle)) <= 1e-8

    def test_tv_objective_close_to_long_run_dual_oracle(self, rng):
        u = rng.standard_normal((4, 4))
        weight = 0.1
        z_oracle = tv_prox_dual_oracle(u, weight, iters=100_000)
        reg = TVIsoRegularizer(2 * weight, (4, 4), inner_max_iters=5000)
        z = reg.prox(u.ravel(), alpha=1.0).reshape(4, 4)  # weight = tau/(2 alpha)
        assert tv_objective(z, u, weight) <= tv_objective(z_oracle, u, weight) + 1e-4


class TestProxProperties:
    def test_first_order_optimality_under_perturbations(self, rng):
        regs = [
            L1Regularizer(0.8),
            GroupL2Regularizer(0.8, [[0, 1, 2], [3, 4]]),
            L1Regularizer(0.0),
        ]
        for reg in regs:
            for _ in range(1000):
                u = rng.standard_normal(5) * 2
                alpha = rng.uniform(0.1, 4.0)
                z = reg.prox(u, alpha)

                def objective(v):
                    return 0.5 * np.sum((v - u) ** 2) + reg.value(v) / (2 * alpha)

                delta = rng.standard_normal(5)
                delta *= 1e-3 * rng.random() / np.linalg.norm(delta)
                assert objective(z) <= objective(z + delta) + 1e-15

    @given(
        u1=st.lists(finite_floats, min_size=4, max_size=4),
        u2=st.lists(finite_floats, min_size=4, max_size=4),
        tau=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_prox_nonexpansive(self, u1, u2, tau, alpha):
        u1 = np.array(u1)
        u2 = np.array(u2)
        for reg in (L1Regularizer(tau), GroupL2Regularizer(tau, [[0, 1], [2, 3]])):
            gap = np.linalg.norm(reg.prox(u1, alpha) - reg.prox(u2, alpha))
            assert gap <= np.linalg.norm(u1 - u2) + 1e-9

    def test_tv_prox_nonexpansive(self, rng):
        reg = TVIsoRegularizer(0.4, (3, 3), inner_max_iters=400)
        for _ in range(20):
            u1 = rng.standard_normal(9)
            u2 = rng.standard_normal(9)
            gap = np.linalg.norm(reg.prox(u1, 1.0) - reg.prox(u2, 1.0))
            assert gap <= np.linalg.norm(u1 - u2) + 1e-6

    @given(
        u=st.lists(finite_floats, min_size=4, max_size=4),
        tau=st.floats(min_value=0.0, max_value=5.0),
        alpha=st.floats(min_value=0.01, max_value=5.0),
        c=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_scale_invariance(self, u, tau, alpha, c):
        # (tau, alpha) and (c tau, c alpha) share the threshold tau/(2 alpha)
        u = np.array(u)
        a = L1Regularizer(tau).prox(u, alpha)
        b = L1Regularizer(c * tau).prox(u, c * alpha)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_tv_scale_invariance(self, rng):
        u = rng.standard_normal(12)
        a = TVIsoRegularizer(0.3, (3, 4)).prox(u, 0.7)
        b = TVIsoRegularizer(3.0, (3, 4)).prox(u, 7.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_tv_dual_objective_monotone(self, rng):
        for trial in range(10):
            u = rng.standard_normal((6, 6)) * (1 + trial)
            history: list = []
            tv_prox_plain_loop(u, weight=0.2, max_iters=60, dual_history=history)
            diffs = np.diff(history)
            # the history is 0.5 ||z||^2 of the float32 iterates, summed in
            # float32: two neighbours may each be off by a few float32 units
            eps32 = float(np.finfo(np.float32).eps)
            assert np.all(diffs <= 8 * eps32 * (1 + np.abs(history[:-1])))

    def test_tv_never_worse_than_input(self, rng):
        # even with a single inner iteration from a bad warm start
        u = rng.standard_normal((5, 5))
        w = 0.5
        p_bad = rng.standard_normal((2, 5, 5))
        p_bad /= np.maximum(1.0, np.sqrt(p_bad[0] ** 2 + p_bad[1] ** 2))
        z, _ = tv_prox(u, w, p0=p_bad, max_iters=1)
        assert tv_objective(z, u, w) <= tv_objective(u, u, w) + 1e-12

    def test_tv_warm_start_state_reused(self, rng):
        reg = TVIsoRegularizer(0.5, (4, 4))
        state = reg.make_prox_state()
        assert state.p is None
        u = rng.standard_normal(16)
        reg.prox(u, 1.0, state=state)
        assert state.p is not None and state.p.shape == (2, 4, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=str)
    def test_bad_weight_rejected(self, rng, bad):
        with pytest.raises(ValueError, match="^weight must be"):
            tv_prox(rng.standard_normal((4, 4)), bad)

    @pytest.mark.parametrize("max_iters", [0, 1, 8])
    def test_one_divergence_before_the_loop_and_one_per_step(self, rng, monkeypatch, max_iters):
        # perfbench's tracer reads the inner steps and the capped calls of
        # each tv_prox call from its tv_divergence calls
        calls = []
        divergence = regularizers.tv_divergence

        def counted(*args, **kwargs):
            calls.append(None)
            return divergence(*args, **kwargs)

        monkeypatch.setattr(regularizers, "tv_divergence", counted)
        u = rng.standard_normal((6, 5))
        tv_prox(u, 0.3, max_iters=max_iters)
        assert len(calls) == max_iters + 1
        calls.clear()
        tv_prox(u, 0.0, max_iters=max_iters)
        assert calls == []


class TestTvInnerBudget:
    def test_stateless_prox_uses_constructor_budget(self, rng, monkeypatch):
        budgets = []

        def recorder(*args, **kwargs):
            budgets.append(kwargs["max_iters"])
            return tv_prox(*args, **kwargs)

        monkeypatch.setattr(regularizers, "tv_prox", recorder)
        u = rng.standard_normal(16)
        reg = TVIsoRegularizer(0.5, (4, 4))
        reg.prox(u, 1.0)
        reg.prox(u, 1.0)
        TVIsoRegularizer(0.5, (4, 4), inner_max_iters=7).prox(u, 1.0)
        assert budgets == [8, 8, 7]

    def test_state_starts_at_constructor_budget(self):
        reg = TVIsoRegularizer(0.5, (4, 4), inner_max_iters=7)
        state = reg.make_prox_state()
        assert (state.p, state.max_iters) == (None, 7)

    def test_budget_grows_after_three_backtracks_up_to_640(self):
        state = TVIsoRegularizer(0.5, (4, 4)).make_prox_state()
        budgets = []
        for j in (0, 2, 3, 1, 5, 3, 3, 3, 3, 4):
            state.note_backtracks(j)
            budgets.append(state.max_iters)
        # the last doubling, 512 -> 1024, is clipped at the ceiling
        assert budgets == [8, 8, 16, 16, 32, 64, 128, 256, 512, 640]

    def test_budget_above_ceiling_stays(self):
        state = TVIsoRegularizer(0.5, (4, 4), inner_max_iters=1000).make_prox_state()
        state.note_backtracks(9)
        assert state.max_iters == 1000


class TestTvProxAgainstPlainLoop:
    # 8 columns: a column slice has a stride of 8 doubles, which numpy
    # 2.4.6's np.negative misreads when its output is strided too
    @pytest.mark.parametrize("shape", [(12, 9), (1, 6), (6, 1), (1, 1), (8, 8), (9, 8), (8, 9)])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_warm_started_calls_bitwise_equal(self, rng, shape, start):
        u = rng.standard_normal(shape)
        p_new = p_old = None
        if start == "warm":  # the first call starts from a field inside the unit balls
            p_new = p_old = np.clip(rng.standard_normal((2,) + shape), -0.7, 0.7)
        for call in range(12):
            u = u + 0.2 * rng.standard_normal(shape)
            weight = (0.02, 0.3, 1.5)[call % 3]
            max_iters = (40, 1, 0, 8)[call % 4]
            z_new, p_new = tv_prox(u, weight, p0=p_new, max_iters=max_iters)
            z_old, p_old = tv_prox_plain_loop(u, weight, p0=p_old, max_iters=max_iters)
            assert z_new.shape == z_old.shape and p_new.shape == p_old.shape
            # tobytes also tells +0.0 from -0.0
            assert z_new.tobytes() == z_old.tobytes()
            assert p_new.tobytes() == p_old.tobytes()

    def test_signed_zeros_in_warm_start_and_input_bitwise_equal(self, rng):
        u = rng.standard_normal((8, 8))
        u[::2, 1::3] = -0.0
        u[-1, -1] = -0.0
        p0 = rng.standard_normal((2, 8, 8)) * 0.1
        p0[0, 1::2] = -0.0
        p0[1, :, ::3] = -0.0
        # both parts of the divergence are -0.0 at the far corner, where
        # u + weight * ((0 + x) + y) keeps u's -0.0 only if the sum is -0.0
        p0[0, -1, -2] = 0.0
        p0[1, -2, -1] = 0.0
        for max_iters in (0, 1, 3, 40):
            z_new, p_new = tv_prox(u, 0.3, p0=p0, max_iters=max_iters)
            z_old, p_old = tv_prox_plain_loop(u, 0.3, p0=p0, max_iters=max_iters)
            assert z_new.tobytes() == z_old.tobytes()
            assert p_new.tobytes() == p_old.tobytes()

    def test_non_contiguous_input_bitwise_equal(self, rng):
        for u in (rng.standard_normal((9, 8)).T, rng.standard_normal((8, 18))[:, ::2]):
            z_new, p_new = tv_prox(u, 0.3)
            z_old, p_old = tv_prox_plain_loop(u, 0.3)
            assert z_new.tobytes() == z_old.tobytes()
            assert p_new.tobytes() == p_old.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, rng, bad):
        u = rng.standard_normal((5, 6))
        u[2, 3] = bad
        with pytest.raises(FloatingPointError):
            tv_prox(u, 0.3)
        with pytest.raises(FloatingPointError):
            TVIsoRegularizer(0.6, (5, 6)).prox(u.ravel(), 1.0)

    @pytest.mark.parametrize("max_iters", [0, 1, 40])
    def test_non_finite_warm_start_raises(self, rng, max_iters):
        u = rng.standard_normal((5, 6))
        p0 = np.zeros((2, 5, 6))
        p0[0, 1, 2] = np.nan
        with pytest.raises(FloatingPointError):
            tv_prox(u, 0.3, p0=p0, max_iters=max_iters)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the cast overflows, then inf / inf
    @pytest.mark.parametrize("max_iters", [0, 1, 40])
    def test_entry_beyond_float32_range_raises(self, rng, max_iters):
        u = rng.standard_normal((5, 6))
        u[2, 3] = 1e39  # finite in float64, infinite once rounded to float32
        with pytest.raises(FloatingPointError):
            tv_prox(u, 0.3, max_iters=max_iters)

    def test_dual_field_within_unit_ball_after_each_projection(self, rng, monkeypatch):
        # a long dual step pushes most pixels far outside the ball, and one
        # component much larger than the other makes |p_x| land on 1
        monkeypatch.setattr(regularizers, "DUAL_STEP", 10.0)
        u = rng.standard_normal((16, 16)) * 100.0
        u[:, ::2] *= 1e-9
        p = None
        for _ in range(30):
            _, p = tv_prox(u, 1e-3, p0=p, max_iters=1)
            assert np.max(np.abs(p)) <= 1.0
        assert np.max(np.abs(p)) == 1.0


class TestTvProxPrecision:
    """The dual loop runs in float32; ``z`` and the checks around it in float64."""

    def test_returns_float64_z_and_float32_dual_field(self, rng):
        u = rng.standard_normal((6, 7))
        for weight, p0 in ((0.3, None), (0.3, rng.standard_normal((2, 6, 7)) * 0.1), (0.0, None)):
            z, p = tv_prox(u, weight, p0=p0)
            assert z.dtype == np.float64 and z.shape == (6, 7)
            assert p.dtype == np.float32 and p.shape == (2, 6, 7)

    def test_state_keeps_float32_dual_field(self, rng):
        reg = TVIsoRegularizer(0.5, (4, 4))
        state = reg.make_prox_state()
        z = reg.prox(rng.standard_normal(16), 1.0, state=state)
        assert z.dtype == np.float64
        assert state.p.dtype == np.float32
        reg.prox(rng.standard_normal(16), 1.0, state=state)
        assert state.p.dtype == np.float32

    @pytest.mark.parametrize("shape", [(128, 128), (32, 32), (9, 16)])
    @pytest.mark.parametrize("max_iters", [8, 60])
    def test_close_to_float64_loop(self, rng, shape, max_iters):
        # cold and warm-started calls at the weights of the bitwise tests
        p32 = p64 = None
        for weight in (0.02, 0.3, 1.5):
            u = rng.standard_normal(shape)
            z32, p32 = tv_prox(u, weight, p0=p32, max_iters=max_iters)
            z64, p64 = tv_prox_plain_loop(u, weight, p0=p64, max_iters=max_iters, dtype=np.float64)
            assert z64.dtype == np.float64
            assert np.max(np.abs(z32 - z64)) <= 1e-6 * max(1.0, float(np.max(np.abs(z32))))


class TestTvOperators:
    def test_divergence_fills_and_returns_its_out_buffer(self, rng):
        px = rng.standard_normal((5, 7))
        py = rng.standard_normal((5, 7))
        out = np.full((5, 7), np.nan)  # stale contents must not leak through
        div = tv_divergence(px, py, out=out, work=np.full((5, 7), np.nan))
        assert div is out
        assert div.tobytes() == _tv_divergence(px, py).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (8, 8), (9, 8)])
    @pytest.mark.parametrize("view", ["contiguous", "transposed", "every-other-column"])
    @pytest.mark.parametrize("buffers", [False, True])
    def test_kernels_match_reference_bytewise(self, rng, shape, view, buffers):
        def make():
            a = rng.standard_normal(shape)
            # signed zeros side by side: x - y and x + y then give -0.0
            # too, which must come out as the reference has it
            a.flat[::3] = 0.0
            a.flat[1::3] = -0.0
            if view == "transposed":
                return np.ascontiguousarray(a.T).T
            if view == "every-other-column":
                return np.repeat(a, 2, axis=1)[:, ::2]
            return a

        z, px, py = make(), make(), make()
        assert view == "contiguous" or min(shape) == 1 or not z.flags.c_contiguous

        def buf(shp):  # stale contents must not leak through
            return np.full(shp, np.nan) if buffers else None

        g = tv_gradient(z, out=buf((2,) + shape))
        gx, gy = _tv_gradient(z)
        assert g.tobytes() == np.stack([gx, gy]).tobytes()
        # the divergence has no fresh-array mode: its buffers are always given
        div = tv_divergence(px, py, out=np.full(shape, np.nan), work=np.full(shape, np.nan))
        assert div.tobytes() == _tv_divergence(px, py).tobytes()
        value = tv_value_2d(z, work=buf((2,) + shape))
        # summed in row-major order whatever the input's layout
        norms = np.ascontiguousarray(np.sqrt(gx**2 + gy**2))
        assert np.float64(value).tobytes() == np.sum(norms).tobytes()

    def test_non_contiguous_buffers_rejected(self):
        z = np.ones((4, 6))
        with pytest.raises(ValueError, match="contiguous"):
            tv_gradient(z, out=np.empty((2, 4, 12))[:, :, ::2])
        with pytest.raises(ValueError, match="contiguous"):
            tv_divergence(z, z, out=np.empty((6, 4)).T, work=np.empty((4, 6)))
        with pytest.raises(ValueError, match="contiguous"):
            tv_divergence(z, z, out=np.empty((4, 6)), work=np.empty((6, 4)).T)

    def test_gradient_divergence_adjoint_identity(self, rng):
        z = rng.standard_normal((5, 7))
        px = rng.standard_normal((5, 7))
        py = rng.standard_normal((5, 7))
        gx, gy = tv_gradient(z)
        lhs = float(np.sum(gx * px) + np.sum(gy * py))
        rhs = -float(np.sum(z * tv_divergence(px, py, out=np.empty_like(z), work=np.empty_like(z))))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_tv_value_matches_reference(self, rng):
        z = rng.standard_normal((4, 5))
        assert tv_value_2d(z) == pytest.approx(tv_objective(z, z, 1.0), abs=1e-12)


class TestConstructionAndSerialization:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            GroupL2Regularizer(1.0, [[0, 1], [1, 2]])

    def test_gap_in_partition_rejected(self):
        with pytest.raises(ValueError):
            GroupL2Regularizer(1.0, [[0, 1], [3]])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            L1Regularizer(-0.5)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"inner_tol": float("nan")}, "inner_tol"),
            ({"inner_tol": -1.0}, "inner_tol"),
            ({"inner_tol": float("inf")}, "inner_tol"),
            ({"inner_tol": "1e-5"}, "inner_tol"),
            ({"inner_max_iters": -5}, "inner_max_iters"),
            ({"inner_max_iters": 0}, "inner_max_iters"),
            ({"inner_max_iters": True}, "inner_max_iters"),
            ({"inner_max_iters": 2.7}, "inner_max_iters"),
            ({"grid": (2.5, 4)}, "grid"),
            ({"grid": (4, 2.0)}, "grid"),
            ({"grid": (0, 4)}, "grid"),
        ],
        ids=repr,
    )
    def test_bad_tv_settings_rejected(self, kwargs, match):
        settings = {"tau": 0.5, "grid": (4, 4), **kwargs}
        with pytest.raises(ValueError, match=match):
            TVIsoRegularizer(**settings)

    def test_tv_settings_accept_numpy_scalars(self):
        reg = TVIsoRegularizer(0.5, (np.int64(3), 4), inner_max_iters=np.int32(7), inner_tol=0)
        assert (reg.grid, reg.inner_max_iters) == ((3, 4), 7)
        assert type(reg.grid[0]) is int and type(reg.inner_max_iters) is int


KINDS = {
    "l1": lambda tau: L1Regularizer(tau),
    "group-l2": lambda tau: GroupL2Regularizer(tau, [[0, 2], [1, 3]]),
    "tv-iso": lambda tau: TVIsoRegularizer(tau, (2, 2), inner_max_iters=7),
}


class TestWeight:
    def test_kinds_cover_every_subclass(self):
        subclasses = {
            cls for cls in vars(regularizers).values()
            if isinstance(cls, type) and issubclass(cls, Regularizer) and cls is not Regularizer
        }
        assert {type(make(1.0)) for make in KINDS.values()} == subclasses

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")], ids=str)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_alpha_must_be_positive_and_finite(self, kind, alpha):
        # the vector has the wrong length for group-l2 and tv-iso too:
        # alpha is checked first
        with pytest.raises(ValueError, match="^alpha must be"):
            KINDS[kind](1.0).prox(np.ones(5), alpha)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_non_finite_tau_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="tau"):
            KINDS[kind](bad)
        with pytest.raises(ValueError, match="tau"):
            KINDS[kind](0.5).with_tau(bad)

    @pytest.mark.parametrize("bad", [True, "0.5", None], ids=repr)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_non_number_tau_rejected(self, kind, bad):
        # a bool or a numeric string is not a weight, though float() takes it
        with pytest.raises(ValueError, match="tau must be a number"):
            KINDS[kind](bad)
        with pytest.raises(ValueError, match="tau must be a number"):
            KINDS[kind](0.5).with_tau(bad)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_with_tau_copies_every_other_setting(self, kind):
        reg = KINDS[kind](0.5)
        twin = reg.with_tau(0.25)
        assert twin is not reg and type(twin) is type(reg)
        assert (reg.tau, twin.tau) == (0.5, 0.25)
        if kind == "tv-iso":
            assert (twin.grid, twin.inner_max_iters) == ((2, 2), 7)
        if kind == "group-l2":
            assert [g.tolist() for g in twin.groups] == [[0, 2], [1, 3]]
