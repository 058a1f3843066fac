"""Attention block: closed forms, invariants, oracle equivalence."""

from dataclasses import replace

import numpy as np
import pytest

from fabnet.attention import fab_forward, fab_gate_stats, fab_init
from fabnet.errors import ConfigError, ShapeError
from fabnet.tensor import (Tensor, dense, grad_check, mean_spatial, sum_all,
                           tensor_new)
from oracles import attention_oracle


def saturated_params(params, bias_value):
    """Zero expanding weight, constant expanding bias: a fixed gate."""
    return replace(
        params,
        w_expand=Tensor(np.zeros_like(params.w_expand.data)),
        b_expand=Tensor(np.full(params.b_expand.data.shape, bias_value)),
    )


class TestInit:
    def test_full_reduction_shapes(self):
        p = fab_init(8, 8, np.random.default_rng(0))
        assert p.w_reduce.data.shape == (1, 1, 1, 8)
        assert p.w_expand.data.shape == (1, 1, 8, 1)
        assert np.all(p.b_reduce.data == 0.0)
        assert np.all(p.b_expand.data == 0.0)

    def test_nondivisible_ratio(self):
        with pytest.raises(ConfigError):
            fab_init(8, 3, np.random.default_rng(0))

    def test_seed_determinism(self):
        a = fab_init(16, 4, np.random.default_rng(42))
        b = fab_init(16, 4, np.random.default_rng(42))
        assert np.array_equal(a.w_reduce.data, b.w_reduce.data)
        assert np.array_equal(a.w_expand.data, b.w_expand.data)


class TestForwardClosedForms:
    def test_half_gate_scales_by_1_5(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(1)), 0.0)
        x = tensor_new((2, 4, 4, 8), np.full(2 * 4 * 4 * 8, 2.0))
        acts = fab_forward(x, p)
        assert np.all(acts.gate.data == 0.5)
        assert np.all(acts.out.data == 3.0)
        assert np.array_equal(acts.out.data, 1.5 * x.data)

    def test_low_gate_is_residual_identity(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(1)), -1000.0)
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        out = fab_forward(x, p).out.data
        assert np.abs(out - x.data).max() / np.abs(x.data).max() < 1e-6

    def test_high_gate_doubles(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(1)), 1000.0)
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        out = fab_forward(x, p).out.data
        assert np.abs(out - 2.0 * x.data).max() < 1e-9

    def test_shape_contract(self):
        p = fab_init(16, 4, np.random.default_rng(4))
        x = Tensor(np.random.default_rng(5).uniform(-1, 1, size=(2, 7, 5, 16)))
        acts = fab_forward(x, p)
        assert acts.out.data.shape == (2, 7, 5, 16)
        assert acts.reduced.data.shape == (2, 1, 1, 4)
        assert acts.gate.data.shape == (2, 1, 1, 16)

    def test_bottleneck_is_the_relu_input(self):
        p = fab_init(8, 4, np.random.default_rng(8))
        x = Tensor(np.random.default_rng(9).uniform(-1, 1, size=(2, 4, 4, 8)))
        acts = fab_forward(x, p)
        want = dense(mean_spatial(x), p.w_reduce, p.b_reduce)
        assert acts.bottleneck.data.tobytes() == want.data.tobytes()
        b = acts.bottleneck.data
        assert acts.reduced.data.tobytes() == np.where(b > 0, b, 0.0).tobytes()

    def test_channel_mismatch(self):
        p = fab_init(8, 4, np.random.default_rng(6))
        x = Tensor(np.zeros((1, 2, 2, 4)))
        with pytest.raises(ShapeError):
            fab_forward(x, p)


class TestGateStats:
    def test_constant_gate(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(7)), 0.0)
        x = Tensor(np.random.default_rng(8).uniform(-1, 1, size=(3, 4, 4, 8)))
        stats = fab_gate_stats(fab_forward(x, p))
        assert np.all(stats.minimum == 0.5)
        assert np.all(stats.mean == 0.5)
        assert np.all(stats.maximum == 0.5)

    def test_saturated_gate_mean(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(9)), 1000.0)
        x = Tensor(np.random.default_rng(10).uniform(-1, 1, size=(2, 4, 4, 8)))
        stats = fab_gate_stats(fab_forward(x, p))
        assert np.all(stats.mean > 0.999)

    def test_random_params_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = fab_init(8, 2, rng)
            x = Tensor(rng.uniform(-2, 2, size=(2, 3, 3, 8)))
            stats = fab_gate_stats(fab_forward(x, p))
            assert np.all(stats.minimum > 0.0)
            assert np.all(stats.maximum < 1.0)


class TestInvariants:
    def test_shape_preservation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            c = int(rng.choice([4, 8, 12]))
            p = fab_init(c, 4, rng)
            x = Tensor(rng.uniform(-2, 2, size=(n, h, w, c)))
            assert fab_forward(x, p).out.data.shape == (n, h, w, c)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = fab_init(8, 4, rng)
            x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
            gate = fab_forward(x, p).gate.data
            assert np.all(gate > 0.0)
            assert np.all(gate < 1.0)

    def test_output_is_one_plus_gate_times_input(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = fab_init(8, 4, rng)
            x_data = rng.uniform(-2, 2, size=(2, 4, 4, 8))
            acts = fab_forward(Tensor(x_data), p)
            expected = (1.0 + acts.gate.data) * x_data
            np.testing.assert_allclose(acts.out.data, expected, rtol=5e-16, atol=0)
            ratio = acts.out.data / x_data
            assert np.all(ratio > 1.0)
            assert np.all(ratio < 2.0)

    def test_residual_floor(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(15)), -40.0)
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        out = fab_forward(x, p).out.data
        assert np.abs(out - x.data).max() / np.abs(x.data).max() < 1e-12

    def test_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        p = fab_init(8, 4, rng)
        x_data = rng.uniform(-2, 2, size=(2, 4, 5, 8))
        out = fab_forward(Tensor(x_data), p).out.data
        perm_h = rng.permutation(4)
        perm_w = rng.permutation(5)
        permuted = x_data[:, perm_h][:, :, perm_w]
        out_perm = fab_forward(Tensor(permuted), p).out.data
        # summation order inside the spatial mean shifts by a few ulps
        np.testing.assert_allclose(out_perm, out[:, perm_h][:, :, perm_w],
                                   rtol=1e-12, atol=1e-15)

    def test_differentiable_end_to_end(self):
        rng = np.random.default_rng(18)
        p = fab_init(8, 4, rng)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        err = grad_check(lambda leaf: sum_all(fab_forward(leaf, p).out), x)
        assert err < 1e-5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            h = int(rng.integers(1, 4))
            w = int(rng.integers(1, 4))
            c = int(rng.choice([2, 4]))
            p = fab_init(c, 2, rng)
            x_data = rng.uniform(-2, 2, size=(n, h, w, c))
            got = fab_forward(Tensor(x_data), p).out.data
            want = attention_oracle(x_data, p.w_reduce.data, p.b_reduce.data,
                                    p.w_expand.data, p.b_expand.data)
            assert np.abs(got - want).max() <= 1e-12
