"""Each library validator raises its error on the smallest bad input."""

import numpy as np
import pytest

from fabnet.data import batch_iterator, decode_image, synth_generate, write_ppm
from fabnet.errors import ConfigError, GraphError, ImageFormatError, ShapeError
from fabnet.model import (ConvBlockSpec, ModelConfig, conv2d, parse_blocks,
                          validate_config)
from fabnet.tensor import (Tape, Tensor, dense, ew_mul, grad_check, sum_all,
                           tensor_new)
from fabnet.training import (SplitData, TrainConfig, evaluate,
                             metrics_from_predictions, softmax_cross_entropy,
                             train)


def zeros(*shape):
    return Tensor(np.zeros(shape))


def decode_bytes(tmp_path, blob):
    path = tmp_path / "image.ppm"
    path.write_bytes(blob)
    return decode_image(path)


def images(n):
    return np.zeros((n, 8, 8, 3), np.uint8)


def ids(n):
    return np.arange(n) % 2


def train_on(train_x, train_y, test_x, test_y):
    return train(None, SplitData(train_x, train_y, test_x, test_y),
                 TrainConfig())


def square_overflows(t):
    with np.errstate(over="ignore"):
        return sum_all(ew_mul(t, t))


def infinite_off_the_point(t):
    """Finite where gradients are taken, infinite at every bumped point."""
    return sum_all(t) if t.tracked else Tensor(np.full((1, 1, 1, 1), np.inf))


# (call on tmp_path, exception class, message fragment)
VALIDATORS = {
    "feature_map_underflow": (
        lambda tmp: validate_config(ModelConfig(input_size=(0, 0))),
        ConfigError, "feature map underflows to 0x0"),
    "one_class": (
        lambda tmp: validate_config(ModelConfig(num_classes=1)),
        ConfigError, "num_classes must be >= 2"),
    "no_blocks": (
        lambda tmp: validate_config(ModelConfig(blocks=())),
        ConfigError, "at least one conv block"),
    "zero_channel_block": (
        lambda tmp: validate_config(ModelConfig(blocks=(ConvBlockSpec(0),))),
        ConfigError, "block channel counts must be >= 1"),
    "conv_channel_mismatch": (
        lambda tmp: conv2d(zeros(1, 4, 4, 3), zeros(3, 3, 2, 4), zeros(1, 1, 1, 4)),
        ShapeError, "kernel expects 2 channels, input has 3"),
    "conv_even_kernel": (
        lambda tmp: conv2d(zeros(1, 4, 4, 3), zeros(2, 2, 3, 4), zeros(1, 1, 1, 4)),
        ShapeError, "kernel extent must be odd, got 2x2"),
    "conv_bias_mismatch": (
        lambda tmp: conv2d(zeros(1, 4, 4, 3), zeros(3, 3, 3, 4), zeros(1, 1, 1, 3)),
        ShapeError, "bias (1, 1, 1, 3) does not match 4 output channels"),
    "empty_block_entry": (
        lambda tmp: parse_blocks("16,,32"),
        ConfigError, "empty block entry"),
    "rank_3_tensor": (
        lambda tmp: Tensor(np.zeros(3)),
        ShapeError, "must be rank 4, got rank 1"),
    "tensor_new_rank_3": (
        lambda tmp: tensor_new((1, 2, 3), [0.0] * 6),
        ShapeError, "shape must have 4 extents, got (1, 2, 3)"),
    "item_of_two": (
        lambda tmp: zeros(1, 1, 1, 2).item(),
        ShapeError, "item() needs a single-element tensor"),
    "dense_bias_mismatch": (
        lambda tmp: dense(zeros(1, 1, 1, 2), zeros(1, 1, 3, 2), zeros(1, 1, 1, 2)),
        ShapeError, "does not match 3 outputs"),
    "watch_tracked_tensor": (
        lambda tmp: Tape().watch(tensor_new((1, 1, 1, 1), [0.0], track=True,
                                            tape=Tape())),
        GraphError, "tensor is already tracked"),
    "grad_check_infinite_loss": (
        lambda tmp: grad_check(square_overflows, tensor_new((1, 1, 1, 1), [1e200])),
        ValueError, "function produced a non-finite value"),
    "grad_check_infinite_bump": (
        lambda tmp: grad_check(infinite_off_the_point,
                               tensor_new((1, 1, 1, 1), [1.0])),
        ValueError, "function produced a non-finite value"),
    "grad_check_constant_function": (
        lambda tmp: grad_check(lambda leaf: zeros(1, 1, 1, 1),
                               tensor_new((1, 1, 1, 1), [1.0])),
        GraphError, "loss tensor was not recorded on this tape"),
    "logits_not_flat": (
        lambda tmp: softmax_cross_entropy(zeros(1, 2, 1, 3), [0]),
        ShapeError, "logits must be (N,1,1,K)"),
    "label_count": (
        lambda tmp: softmax_cross_entropy(zeros(2, 1, 1, 3), [0]),
        ValueError, "expected 2 labels"),
    "label_not_integer": (
        lambda tmp: softmax_cross_entropy(zeros(2, 1, 1, 3), [0.5, 2.9]),
        ValueError, "labels must be integer class ids, got float64"),
    "metrics_short_predictions": (
        lambda tmp: metrics_from_predictions([0, 1, 1], [0, 1], ("a", "b")),
        ValueError, "need equal-length non-empty 1-D ids"),
    "metrics_negative_id": (
        lambda tmp: metrics_from_predictions([0, -1, 1], [0, 1, 1], ("a", "b")),
        ValueError, "class ids must lie in [0, 2)"),
    "metrics_float_id": (
        lambda tmp: metrics_from_predictions([0.9, 1.0, 1.5], [0, 1, 1], ("a", "b")),
        ValueError, "class ids must be integers, got float64"),
    "metrics_nothing": (
        lambda tmp: metrics_from_predictions([], [], ("a", "b")),
        ValueError, "need equal-length non-empty 1-D ids"),
    "evaluate_nothing": (
        lambda tmp: evaluate(None, np.zeros((0, 4, 4, 3), np.uint8), []),
        ValueError, "evaluate needs at least one sample"),
    "evaluate_ids_short": (
        lambda tmp: evaluate(None, images(100), ids(64)),
        ValueError, "evaluate needs at least one sample"),
    "train_split_empty": (
        lambda tmp: train_on(images(0), ids(0), images(4), ids(4)),
        ValueError, "train split needs at least one image"),
    "test_split_empty": (
        lambda tmp: train_on(images(4), ids(4), images(0), ids(0)),
        ValueError, "test split needs at least one image"),
    "train_ids_short": (
        lambda tmp: train_on(images(100), ids(3), images(100), ids(100)),
        ValueError, "got 100 images, 3 ids"),
    "train_images_short": (
        lambda tmp: train_on(images(3), ids(100), images(100), ids(100)),
        ValueError, "got 3 images, 100 ids"),
    "test_ids_short": (
        lambda tmp: train_on(images(100), ids(100), images(100), ids(64)),
        ValueError, "test split needs at least one image and one id per image"),
    "image_width_zero": (
        lambda tmp: decode_bytes(tmp, b"P6\n0 1\n255\n"),
        ImageFormatError, "bad dimensions 0x1"),
    "write_gray_ppm": (
        lambda tmp: write_ppm(tmp / "gray.ppm", np.zeros((1, 1, 1), np.uint8)),
        ValueError, "write_ppm needs (H, W, 3) uint8 pixels"),
    "batch_size_zero": (
        lambda tmp: next(batch_iterator(np.arange(3), 0, 0, 1)),
        ValueError, "batch_size must be >= 1"),
    "synth_one_class": (
        lambda tmp: synth_generate(tmp, 1, 1, (4, 4), 0),
        ValueError, "need at least 2 classes"),
}


@pytest.mark.parametrize("name", VALIDATORS)
def test_validator_raises(name, tmp_path):
    call, error, fragment = VALIDATORS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert fragment in str(info.value)
