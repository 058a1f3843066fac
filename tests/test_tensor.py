"""Tensor construction, forward ops, tape backward, and the gradient oracle."""

import warnings

import numpy as np
import pytest

from fabnet.errors import GraphError, ShapeError
from fabnet.tensor import (Tape, Tensor, backward, dense, ew_add, ew_mul,
                           grad_check, mean_spatial, relu, sigmoid, sum_all,
                           tensor_new)
from oracles import mean_spatial_oracle


def leaf(shape, values):
    tape = Tape()
    return tape, tensor_new(shape, values, track=True, tape=tape)


class TestTensorNew:
    def test_zeros(self):
        t = tensor_new((1, 1, 1, 2), [0.0, 0.0])
        assert t.shape == (1, 1, 1, 2)
        assert np.all(t.data == 0.0)

    def test_row_major_layout(self):
        values = [1.0, 2.0, 3.0, 4.0]
        t = tensor_new((1, 2, 2, 1), values)
        # flat index b*HWC + h*WC + w*C + c
        b, h, w, c = 0, 1, 0, 0
        flat = b * 2 * 2 * 1 + h * 2 * 1 + w * 1 + c
        assert t.data[b, h, w, c] == values[flat] == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tensor_new((1, 2, 2, 1), [1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            tensor_new((1, 1, 1, 2), [1.0, np.nan])
        with pytest.raises(ValueError):
            tensor_new((1, 1, 1, 2), [np.inf, 0.0])

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            tensor_new((1, 0, 2, 1), [])

    def test_track_requires_tape(self):
        with pytest.raises(GraphError):
            tensor_new((1, 1, 1, 1), [1.0], track=True)


class TestEwAdd:
    def test_additive_identity(self):
        a = tensor_new((1, 1, 1, 2), [1.0, 2.0])
        b = tensor_new((1, 1, 1, 2), [0.0, 0.0])
        assert list(ew_add(a, b).values) == [1.0, 2.0]

    def test_forced_arithmetic(self):
        a = tensor_new((1, 1, 1, 2), [1.0, 2.0])
        b = tensor_new((1, 1, 1, 2), [3.0, 4.0])
        assert list(ew_add(a, b).values) == [4.0, 6.0]

    def test_backward_passes_gradient_unchanged(self):
        tape = Tape()
        a = tensor_new((1, 1, 1, 2), [1.0, 2.0], track=True, tape=tape)
        b = tensor_new((1, 1, 1, 2), [3.0, 4.0], track=True, tape=tape)
        grads = backward(tape, sum_all(ew_add(a, b)))
        assert list(grads[a.node_id].values) == [1.0, 1.0]
        assert list(grads[b.node_id].values) == [1.0, 1.0]

    def test_shape_mismatch(self):
        a = tensor_new((1, 1, 1, 2), [1.0, 2.0])
        b = tensor_new((1, 1, 2, 1), [1.0, 2.0])
        with pytest.raises(ShapeError):
            ew_add(a, b)


class TestEwMul:
    def test_scalar_broadcast(self):
        a = tensor_new((1, 2, 2, 1), np.full(4, 2.0))
        b = tensor_new((1, 1, 1, 1), [0.5])
        assert np.all(ew_mul(a, b).data == 1.0)

    def test_multiplicative_identity(self):
        a = tensor_new((1, 2, 2, 1), [1.0, 2.0, 3.0, 4.0])
        ones = tensor_new((1, 2, 2, 1), np.ones(4))
        assert np.array_equal(ew_mul(a, ones).data, a.data)

    def test_broadcast_backward_sums_spatially(self):
        tape = Tape()
        a = tensor_new((1, 2, 2, 1), [1.0, 2.0, 3.0, 4.0], track=True, tape=tape)
        b = tensor_new((1, 1, 1, 1), [3.0], track=True, tape=tape)
        grads = backward(tape, sum_all(ew_mul(a, b)))
        assert grads[b.node_id].item() == 10.0   # 1+2+3+4

    def test_broadcast_backward_matches_fd(self):
        rng = np.random.default_rng(3)
        a_data = rng.uniform(-2, 2, size=(2, 3, 3, 4))
        gate = tensor_new((2, 1, 1, 4), rng.uniform(-2, 2, size=8))

        def f(leaf):
            return sum_all(ew_mul(Tensor(a_data), leaf))

        assert grad_check(f, gate) < 1e-5

    def test_incompatible_shapes(self):
        a = tensor_new((1, 2, 2, 3), np.ones(12))
        b = tensor_new((1, 2, 1, 3), np.ones(6))
        with pytest.raises(ShapeError):
            ew_mul(a, b)

    def test_commutative_in_value(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = tensor_new((2, 2, 3, 2), rng.uniform(-2, 2, size=24))
            b = tensor_new((2, 2, 3, 2), rng.uniform(-2, 2, size=24))
            assert np.array_equal(ew_mul(a, b).data, ew_mul(b, a).data)
            assert np.array_equal(ew_add(a, b).data, ew_add(b, a).data)


class TestMeanSpatial:
    def test_arithmetic_mean(self):
        x = tensor_new((1, 2, 2, 1), [1.0, 2.0, 3.0, 4.0])
        assert mean_spatial(x).item() == 2.5

    def test_constant(self):
        x = tensor_new((2, 3, 3, 4), np.full(2 * 3 * 3 * 4, 7.25))
        assert np.all(mean_spatial(x).data == 7.25)

    def test_per_channel_interleaved(self):
        # NHWC interleaves channels fastest: [1,10, 2,20, 3,30, 4,40]
        x = tensor_new((1, 2, 2, 2), [1, 10, 2, 20, 3, 30, 4, 40])
        assert list(mean_spatial(x).values) == [2.5, 25.0]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)),
                     int(rng.integers(1, 9)), int(rng.integers(1, 17)))
            x = rng.uniform(-2, 2, size=shape)
            got = mean_spatial(Tensor(x)).data
            assert np.abs(got - mean_spatial_oracle(x)).max() <= 1e-12


class TestDense:
    def test_identity_map(self):
        x = tensor_new((1, 1, 1, 2), [3.0, 7.0])
        w = tensor_new((1, 1, 2, 2), np.eye(2).reshape(-1))
        b = tensor_new((1, 1, 1, 2), [0.0, 0.0])
        assert list(dense(x, w, b).values) == [3.0, 7.0]

    def test_forced_arithmetic(self):
        x = tensor_new((1, 1, 1, 2), [2.0, 3.0])
        w = tensor_new((1, 1, 1, 2), [1.0, 1.0])
        b = tensor_new((1, 1, 1, 1), [1.0])
        assert dense(x, w, b).item() == 6.0

    def test_weight_gradient_is_input(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 2), [2.0, 3.0])
        w = tensor_new((1, 1, 1, 2), [0.5, -0.5], track=True, tape=tape)
        b = tensor_new((1, 1, 1, 1), [0.0])
        grads = backward(tape, sum_all(dense(x, w, b)))
        assert list(grads[w.node_id].values) == [2.0, 3.0]

        def f(leaf):
            return sum_all(dense(x, leaf, b))

        assert grad_check(f, w) < 1e-5

    def test_dimension_mismatch(self):
        x = tensor_new((1, 1, 1, 3), [1.0, 2.0, 3.0])
        w = tensor_new((1, 1, 2, 2), np.ones(4))
        b = tensor_new((1, 1, 1, 2), np.zeros(2))
        with pytest.raises(ShapeError):
            dense(x, w, b)
        x2 = tensor_new((1, 2, 1, 2), [1.0, 2.0, 3.0, 4.0])
        w2 = tensor_new((1, 1, 2, 2), np.ones(4))
        with pytest.raises(ShapeError):
            dense(x2, w2, b)


class TestActivations:
    def test_relu_definition(self):
        x = tensor_new((1, 1, 1, 3), [-1.0, 0.0, 2.0])
        assert list(relu(x).values) == [0.0, 0.0, 2.0]

    def test_relu_identity_on_positive(self):
        x = tensor_new((1, 1, 1, 3), [0.5, 1.0, 99.0])
        assert np.array_equal(relu(x).data, x.data)

    def test_relu_backward_gates_by_sign(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 2), [-1.0, 2.0], track=True, tape=tape)
        five = tensor_new((1, 1, 1, 2), [5.0, 5.0])
        grads = backward(tape, sum_all(ew_mul(relu(x), five)))
        assert list(grads[x.node_id].values) == [0.0, 5.0]

    def test_relu_subgradient_zero_at_zero(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 1), [0.0], track=True, tape=tape)
        grads = backward(tape, sum_all(relu(x)))
        assert grads[x.node_id].item() == 0.0

    def test_sigmoid_symmetry_point(self):
        x = tensor_new((1, 1, 1, 1), [0.0])
        assert sigmoid(x).item() == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        x = tensor_new((1, 1, 1, 2), [1000.0, -1000.0])
        out = sigmoid(x).values
        assert out[0] == 1.0
        assert out[1] == 0.0
        assert np.all(np.isfinite(out))

    def test_sigmoid_bytes_match_sign_branched_formula(self):
        magnitudes = [0.0, 5e-324, 1e-8, 1.0, 36.7, 709.0, 745.0, 1e300]
        values = [v for m in magnitudes for v in (m, -m)]
        want = []
        for v in values:
            if v >= 0.0:
                want.append(1.0 / (1.0 + np.exp(np.float64(-v))))
            else:
                e = np.exp(np.float64(v))
                want.append(e / (1.0 + e))
        # numpy's default error state: warn on divide, overflow and invalid.
        with warnings.catch_warnings(), np.errstate(
                divide="warn", over="warn", under="ignore", invalid="warn"):
            warnings.simplefilter("error")
            out = sigmoid(tensor_new((1, 1, 1, len(values)), values)).data
        assert out.tobytes() == np.array(want).reshape(out.shape).tobytes()

    def test_sigmoid_derivative_at_zero(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 1), [0.0], track=True, tape=tape)
        grads = backward(tape, sum_all(sigmoid(x)))
        assert grads[x.node_id].item() == 0.25


class TestBackward:
    def test_leaf_loss(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 1), [3.0], track=True, tape=tape)
        assert backward(tape, x)[x.node_id].item() == 1.0

    def test_mean_distributes_evenly(self):
        tape = Tape()
        x = tensor_new((1, 2, 2, 1), [1.0, 2.0, 3.0, 4.0], track=True, tape=tape)
        grads = backward(tape, mean_spatial(x))
        assert list(grads[x.node_id].values) == [0.25] * 4

    def test_sigmoid_sum_at_zero(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 3), [0.0, 0.0, 0.0], track=True, tape=tape)
        grads = backward(tape, sum_all(sigmoid(x)))
        assert list(grads[x.node_id].values) == [0.25, 0.25, 0.25]

    def test_returns_only_reached_leaves(self):
        # Gradients of intermediate nodes are freed during the sweep, and
        # every rule it ran is dropped: calling one afterwards raises.
        tape = Tape()
        x = tensor_new((1, 2, 2, 1), [1.0, -2.0, 3.0, 4.0], track=True,
                       tape=tape)
        tensor_new((1, 1, 1, 1), [5.0], track=True, tape=tape)  # never reached
        loss = sum_all(mean_spatial(relu(x)))
        grads = backward(tape, loss)
        assert set(grads) == {x.node_id}
        assert list(grads[x.node_id].values) == [0.25, 0.0, 0.25, 0.25]
        with pytest.raises(GraphError, match="a tape is swept once"):
            tape.nodes[loss.node_id].backward(np.ones((1, 1, 1, 1)))

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = tensor_new((1, 1, 1, 2), [1.0, 2.0], track=True, tape=tape)
        with pytest.raises(ShapeError):
            backward(tape, sigmoid(x))

    def test_foreign_node_rejected(self):
        tape_a, x = leaf((1, 1, 1, 1), [1.0])
        tape_b = Tape()
        with pytest.raises(GraphError):
            backward(tape_b, x)
        with pytest.raises(GraphError):
            backward(tape_a, 99)

    def test_mixed_tapes_rejected(self):
        _, a = leaf((1, 1, 1, 1), [1.0])
        _, b = leaf((1, 1, 1, 1), [2.0])
        with pytest.raises(GraphError):
            ew_add(a, b)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(-2, 2, size=2 * 3 * 3 * 4)

        def run():
            tape = Tape()
            x = tensor_new((2, 3, 3, 4), values, track=True, tape=tape)
            loss = sum_all(sigmoid(mean_spatial(ew_mul(x, x))))
            return backward(tape, loss)[x.node_id].data

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestGradCheck:
    def test_linear_function_nearly_exact(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-2, 2, size=(1, 2, 2, 2)))
        assert grad_check(sum_all, x) < 1e-10

    def test_smooth_function(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-2, 2, size=(2, 2, 2, 3)))
        assert grad_check(lambda t: sum_all(sigmoid(t)), x) < 1e-7

    def test_kink_reads_the_active_piece(self):
        # At x = 0 the tape's ReLU gradient is 0; a central difference
        # straddling the kink reads 0.5 there, the complex step reads 0.
        x = Tensor(np.array([-1.0, 0.0, 0.5, 2.0]).reshape(1, 1, 2, 2))
        assert grad_check(lambda t: sum_all(relu(t)), x) == 0.0

    def test_small_gradient_beside_a_large_value(self):
        # f is about 1e6, so a central difference at eps 1e-5 loses the
        # 2e-4 gradient to rounding; the complex step takes no difference.
        x = Tensor(np.array([1e3, 1e-4]).reshape(1, 1, 1, 2))
        assert grad_check(lambda t: sum_all(ew_mul(t, t)), x) < 1e-12
