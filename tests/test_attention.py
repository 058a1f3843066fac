"""Attention block: closed forms, invariants, oracle equivalence."""

import numpy as np
import pytest

from fabnet.attention import fab_forward, fab_gate, fab_gate_stats, fab_init
from fabnet.errors import ConfigError, ShapeError
from fabnet.model import (ConvBlockSpec, ModelConfig, _param_rng, build_model,
                          param_table)
from fabnet.tensor import Tensor, grad_check, sum_all, tensor_new
from oracles import attention_oracle


def saturated_params(params, bias_value):
    """Zero expanding weight, constant expanding bias: a fixed gate."""
    w, b = params["fab.expand.weight"].data, params["fab.expand.bias"].data
    return {**params, "fab.expand.weight": Tensor(np.zeros_like(w)),
            "fab.expand.bias": Tensor(np.full(b.shape, bias_value))}


class TestInit:
    def test_full_reduction_shapes(self):
        p = fab_init(8, 8, np.random.default_rng(0))
        assert p["fab.reduce.weight"].data.shape == (1, 1, 1, 8)
        assert p["fab.expand.weight"].data.shape == (1, 1, 8, 1)
        assert np.all(p["fab.reduce.bias"].data == 0.0)
        assert np.all(p["fab.expand.bias"].data == 0.0)

    def test_nondivisible_ratio(self):
        with pytest.raises(ConfigError):
            fab_init(8, 3, np.random.default_rng(0))

    def test_seed_determinism(self):
        a = fab_init(16, 4, np.random.default_rng(42))
        b = fab_init(16, 4, np.random.default_rng(42))
        for name in ("fab.reduce.weight", "fab.expand.weight"):
            assert np.array_equal(a[name].data, b[name].data)

    def test_init_draws_the_models_fab_entries(self):
        for channels, ratio in ((64, 8), (8, 8), (6, 3)):
            cfg = ModelConfig(blocks=(ConvBlockSpec(channels),), fab_ratio=ratio)
            want = [(name, shape) for name, (shape, _) in param_table(cfg).items()
                    if name.startswith("fab.")]
            p = fab_init(channels, ratio, _param_rng(7, "fab"))
            assert [(name, t.data.shape) for name, t in p.items()] == want
            m = build_model(cfg, seed=7)
            for name, t in p.items():
                assert m.params[name].data.tobytes() == t.data.tobytes()


class TestForwardClosedForms:
    def test_half_gate_scales_by_1_5(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(1)), 0.0)
        x = tensor_new((2, 4, 4, 8), np.full(2 * 4 * 4 * 8, 2.0))
        out = fab_forward(x, p).data
        assert np.all(fab_gate(x, p).data == 0.5)
        assert np.all(out == 3.0)
        assert np.array_equal(out, 1.5 * x.data)

    def test_low_gate_is_residual_identity(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(1)), -1000.0)
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        out = fab_forward(x, p).data
        assert np.abs(out - x.data).max() / np.abs(x.data).max() < 1e-6

    def test_high_gate_doubles(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(1)), 1000.0)
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        out = fab_forward(x, p).data
        assert np.abs(out - 2.0 * x.data).max() < 1e-9

    def test_shape_contract(self):
        p = fab_init(16, 4, np.random.default_rng(4))
        x = Tensor(np.random.default_rng(5).uniform(-1, 1, size=(2, 7, 5, 16)))
        assert fab_forward(x, p).data.shape == (2, 7, 5, 16)
        assert fab_gate(x, p).data.shape == (2, 1, 1, 16)

    def test_channel_mismatch(self):
        p = fab_init(8, 4, np.random.default_rng(6))
        x = Tensor(np.zeros((1, 2, 2, 4)))
        with pytest.raises(ShapeError):
            fab_forward(x, p)


class TestGateStats:
    def test_constant_gate(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(7)), 0.0)
        x = Tensor(np.random.default_rng(8).uniform(-1, 1, size=(3, 4, 4, 8)))
        stats = fab_gate_stats(fab_gate(x, p))
        assert np.all(stats.minimum == 0.5)
        assert np.all(stats.mean == 0.5)
        assert np.all(stats.maximum == 0.5)

    def test_saturated_gate_mean(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(9)), 1000.0)
        x = Tensor(np.random.default_rng(10).uniform(-1, 1, size=(2, 4, 4, 8)))
        stats = fab_gate_stats(fab_gate(x, p))
        assert np.all(stats.mean > 0.999)

    def test_random_params_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = fab_init(8, 2, rng)
            x = Tensor(rng.uniform(-2, 2, size=(2, 3, 3, 8)))
            stats = fab_gate_stats(fab_gate(x, p))
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
            assert fab_forward(x, p).data.shape == (n, h, w, c)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = fab_init(8, 4, rng)
            x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
            gate = fab_gate(x, p).data
            assert np.all(gate > 0.0)
            assert np.all(gate < 1.0)

    def test_output_is_one_plus_gate_times_input(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = fab_init(8, 4, rng)
            x_data = rng.uniform(-2, 2, size=(2, 4, 4, 8))
            x = Tensor(x_data)
            out = fab_forward(x, p).data
            expected = (1.0 + fab_gate(x, p).data) * x_data
            np.testing.assert_allclose(out, expected, rtol=5e-16, atol=0)
            ratio = out / x_data
            assert np.all(ratio > 1.0)
            assert np.all(ratio < 2.0)

    def test_residual_floor(self):
        p = saturated_params(fab_init(8, 4, np.random.default_rng(15)), -40.0)
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        out = fab_forward(x, p).data
        assert np.abs(out - x.data).max() / np.abs(x.data).max() < 1e-12

    def test_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        p = fab_init(8, 4, rng)
        x_data = rng.uniform(-2, 2, size=(2, 4, 5, 8))
        out = fab_forward(Tensor(x_data), p).data
        perm_h = rng.permutation(4)
        perm_w = rng.permutation(5)
        permuted = x_data[:, perm_h][:, :, perm_w]
        out_perm = fab_forward(Tensor(permuted), p).data
        # summation order inside the spatial mean shifts by a few ulps
        np.testing.assert_allclose(out_perm, out[:, perm_h][:, :, perm_w],
                                   rtol=1e-12, atol=1e-15)

    def test_differentiable_end_to_end(self):
        rng = np.random.default_rng(18)
        p = fab_init(8, 4, rng)
        x = Tensor(rng.uniform(-2, 2, size=(2, 4, 4, 8)))
        err = grad_check(lambda leaf: sum_all(fab_forward(leaf, p)), x)
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
            got = fab_forward(Tensor(x_data), p).data
            want = attention_oracle(x_data, p["fab.reduce.weight"].data,
                                    p["fab.reduce.bias"].data,
                                    p["fab.expand.weight"].data,
                                    p["fab.expand.bias"].data)
            assert np.abs(got - want).max() <= 1e-12
