"""Backbone construction, conv/pool kernels, checkpoints, freezing."""

import gc
import itertools
import os
import re
import stat
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fabnet.model
import fabnet.training
from fabnet.data import model_input
from fabnet.errors import ConfigError, FormatError, GraphError, ShapeError
from fabnet.model import (MAX_INPUT_EXTENT, ConvBlockSpec, Model,
                          ModelConfig, build_model, conv2d, feature_map_size,
                          load_checkpoint, maxpool2x2, model_forward,
                          parse_blocks, save_checkpoint, trainable_parameters,
                          validate_config)
from fabnet.tensor import (Tape, Tensor, _Node, backward, ew_mul, grad_check,
                           mean_spatial, sum_all, tensor_new)
from fabnet.training import (AdamState, SplitData, TrainConfig, adam_step,
                             softmax_cross_entropy, train)
from checkpoint_faults import CHECKPOINT_FAULTS, split_records
from oracles import (conv2d_im2col_reference, conv2d_oracle, maxpool2x2_oracle,
                     relu_then_pool_forward, whole_batch_forward)

TINY = ModelConfig(input_size=(8, 8),
                   blocks=(ConvBlockSpec(4), ConvBlockSpec(8)),
                   fab_ratio=4, head_hidden=8, num_classes=3)


class TestBuildModel:
    def test_default_feature_map(self):
        cfg = ModelConfig(input_size=(32, 32))
        assert feature_map_size(cfg) == (4, 4)
        m = build_model(cfg, seed=0)
        assert m.params["block2.conv.weight"].data.shape == (3, 3, 32, 64)

    def test_pool_underflow(self):
        cfg = ModelConfig(input_size=(8, 8),
                          blocks=tuple(ConvBlockSpec(4) for _ in range(4)),
                          fab_ratio=4)
        with pytest.raises(ConfigError):
            build_model(cfg, seed=0)

    @pytest.mark.parametrize("field", ["in_channels", "head_hidden"])
    def test_zero_width_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            build_model(replace(TINY, **{field: 0}), seed=0)

    def test_input_extent_bounded(self):
        validate_config(replace(TINY, input_size=(MAX_INPUT_EXTENT, 8)))
        for size in ((MAX_INPUT_EXTENT + 2, 8), (8, 65536)):
            with pytest.raises(ConfigError, match="exceeds 1024 per side"):
                validate_config(replace(TINY, input_size=size))

    def test_ablation_config_has_no_attention_params(self):
        m = build_model(ModelConfig(use_fab=False), seed=0)
        assert not any(name.startswith("fab.") for name in m.params)

    def test_attention_params_present_by_default(self):
        m = build_model(ModelConfig(), seed=0)
        assert {"fab.reduce.weight", "fab.reduce.bias",
                "fab.expand.weight", "fab.expand.bias"} <= set(m.params)

    def test_seed_determinism(self):
        a = build_model(TINY, seed=3)
        b = build_model(TINY, seed=3)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_paired_configs_share_non_attention_params(self):
        with_fab = build_model(TINY, seed=3)
        without = build_model(replace(TINY, use_fab=False), seed=3)
        shared = set(with_fab.params) & set(without.params)
        assert set(with_fab.params) - shared == {
            "fab.reduce.weight", "fab.reduce.bias",
            "fab.expand.weight", "fab.expand.bias"}
        for name in shared:
            assert np.array_equal(with_fab.params[name].data,
                                  without.params[name].data)


class TestModelForward:
    def test_logit_shape(self):
        cfg = ModelConfig(input_size=(16, 16),
                          blocks=(ConvBlockSpec(4), ConvBlockSpec(8)),
                          fab_ratio=4, head_hidden=8, num_classes=5)
        m = build_model(cfg, seed=1)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, size=(2, 16, 16, 3)))
        assert model_forward(m, x).data.shape == (2, 1, 1, 5)

    def test_zero_input_zero_bias_gives_zero_logits(self):
        m = build_model(TINY, seed=2)
        logits = model_forward(m, Tensor(np.zeros((2, 8, 8, 3))))
        assert np.all(logits.data == 0.0)

    def test_duplicate_rows_get_identical_logits(self):
        m = build_model(TINY, seed=3)
        row = np.random.default_rng(4).uniform(0, 1, size=(1, 8, 8, 3))
        batch = np.concatenate([row, row], axis=0)
        logits = model_forward(m, Tensor(batch)).data
        assert np.array_equal(logits[0], logits[1])

    def test_empty_batch_gives_empty_logits(self):
        m = build_model(ModelConfig(), seed=5)
        logits = model_forward(m, Tensor(np.zeros((0, 32, 32, 3))))
        assert logits.data.shape == (0, 1, 1, 5)

    def test_size_mismatch(self):
        m = build_model(TINY, seed=5)
        with pytest.raises(ShapeError):
            model_forward(m, Tensor(np.zeros((1, 16, 16, 3))))


def _kinked_model_and_batch():
    """TINY with block-0 channels and images that tie pool windows.

    Block 0's channel 0 is all-zero (zero weights and bias), channel 1
    all-negative (bias -100) and channel 2 has non-negative weights, so
    the constant image gives tied windows with a positive maximum; the
    zero image gives all-zero windows in every channel.
    """
    m = build_model(TINY, seed=30)
    w = m.params["block0.conv.weight"].data
    b = m.params["block0.conv.bias"].data
    w[..., 0] = 0.0
    w[..., 2] = np.abs(w[..., 2])
    b[..., 1] = -100.0
    rng = np.random.default_rng(31)
    x = np.stack([np.full((8, 8, 3), 0.5), np.zeros((8, 8, 3)),
                  rng.uniform(0, 1, (8, 8, 3)), rng.uniform(-1, 1, (8, 8, 3))])
    return m, x


def _logits_and_grads(forward, m, x):
    tape = Tape()
    xt = Tensor(x)
    tape.watch(xt)
    w = m.watch_trainable(tape)
    logits = forward(w, xt)
    grads = backward(tape, softmax_cross_entropy(logits, [0, 1, 2, 0]))
    by_name = {name: grads[t.node_id].data for name, t in w.params.items()}
    return logits.data, by_name, grads[xt.node_id].data


class TestBlockOrder:
    """conv -> pool -> ReLU against VGG's conv -> ReLU -> pool."""

    def test_batch_has_tied_zero_and_negative_windows(self):
        m, x = _kinked_model_and_batch()
        pre = conv2d(Tensor(x), m.params["block0.conv.weight"],
                     m.params["block0.conv.bias"]).data
        windows = (pre.reshape(4, 4, 2, 4, 2, 4).transpose(0, 1, 3, 5, 2, 4)
                   .reshape(-1, 4))
        top = windows.max(axis=1)
        tied = (windows == top[:, None]).sum(axis=1) > 1
        assert np.any(tied & (top > 0.0))
        assert np.any(np.all(windows == 0.0, axis=1))
        assert np.any(np.all(windows < 0.0, axis=1))

    def test_relu_runs_on_pooled_maps(self, monkeypatch):
        shapes = []
        real_relu = fabnet.model.relu

        def spy(t):
            shapes.append(tuple(t.shape))
            return real_relu(t)

        monkeypatch.setattr(fabnet.model, "relu", spy)
        model_forward(build_model(TINY, seed=32), Tensor(np.zeros((2, 8, 8, 3))))
        assert shapes == [(2, 4, 4, 4), (2, 2, 2, 8), (2, 1, 1, 8)]

    def test_logits_and_gradients_match_vgg_order(self):
        m, x = _kinked_model_and_batch()
        logits, grads, grad_x = _logits_and_grads(model_forward, m, x)
        ref_logits, ref_grads, ref_grad_x = _logits_and_grads(
            relu_then_pool_forward, m, x)
        assert logits.tobytes() == ref_logits.tobytes()
        for name in m.params:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert np.array_equal(grad_x, ref_grad_x)

    def test_training_matches_vgg_order(self, monkeypatch):
        rng = np.random.default_rng(33)
        _, x = _kinked_model_and_batch()
        data = SplitData(np.concatenate([x, rng.uniform(0, 1, (8, 8, 8, 3))]),
                         np.arange(12) % 3, x, np.array([0, 1, 2, 0]))
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=2, seed=34)
        runs = []
        for forward in (model_forward, relu_then_pool_forward):
            monkeypatch.setattr(fabnet.training, "model_forward", forward)
            m, curve = train(_kinked_model_and_batch()[0], data, cfg)
            runs.append((curve.to_csv(),
                         {name: t.data.tobytes() for name, t in m.params.items()}))
        assert runs[0] == runs[1]


# (config, images per chunk): the default config and criterion 6's, whose
# chunk is their last conv's column block; two extents that are not powers
# of two, whose first conv runs in row bands with a short last band; and
# three blocks at 24x12, whose first conv runs in 21-row bands and whose
# others take 3 and 14 images per column block, so the chunk is their least
# common multiple, 42, and not the largest block; and the default config
# without the attention block, whose streamed forward gates nothing.
CHUNK_CONFIGS = [
    (ModelConfig(), 4),
    (ModelConfig(input_size=(16, 16),
                 blocks=(ConvBlockSpec(8), ConvBlockSpec(16)),
                 fab_ratio=4, head_hidden=16), 4),
    (ModelConfig(input_size=(24, 24),
                 blocks=(ConvBlockSpec(4), ConvBlockSpec(8), ConvBlockSpec(8)),
                 fab_ratio=4, head_hidden=8), 7),
    (ModelConfig(input_size=(20, 14),
                 blocks=(ConvBlockSpec(4), ConvBlockSpec(8, pool=False),
                         ConvBlockSpec(8, pool=False)),
                 fab_ratio=4, head_hidden=8), 3),
    (ModelConfig(input_size=(24, 12),
                 blocks=(ConvBlockSpec(4), ConvBlockSpec(8),
                         ConvBlockSpec(8, pool=False)),
                 fab_ratio=4, head_hidden=8), 42),
    (ModelConfig(use_fab=False), 4),
]


class TestChunkedForward:
    """An untracked batch runs the backbone one chunk of images at a time."""

    @pytest.mark.parametrize("cfg, chunk", CHUNK_CONFIGS,
                             ids=["default", "criterion6", "24x24", "20x14",
                                  "24x12", "no_fab"])
    def test_logits_are_the_whole_batch_bytes(self, cfg, chunk):
        assert fabnet.model._chunk_images(cfg) == chunk
        m = build_model(cfg, seed=40)
        h, w = cfg.input_size
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 1, (100, h, w, 3))
        # Decoder bytes are scaled inside the forward, a chunk at a time
        # when it streams, with the bytes of their float twin's forward.
        pixels = rng.integers(0, 256, (100, h, w, 3), dtype=np.uint8)
        for n in (1, chunk - 1, chunk, chunk + 1, 50, 100):
            got = model_forward(m, Tensor(x[:n])).data
            want = whole_batch_forward(m, Tensor(x[:n])).data
            assert got.tobytes() == want.tobytes(), n
            got = model_forward(m, Tensor(pixels[:n])).data
            want = whole_batch_forward(
                m, Tensor(model_input(pixels[:n]))).data
            assert got.tobytes() == want.tobytes(), n

    def test_untracked_convs_run_chunk_by_chunk(self, monkeypatch):
        batches = []
        real_conv2d = fabnet.model.conv2d

        def spy(x, kernels, bias):
            batches.append(x.shape[0])
            return real_conv2d(x, kernels, bias)

        monkeypatch.setattr(fabnet.model, "conv2d", spy)
        m = build_model(ModelConfig(), seed=42)
        model_forward(m, Tensor(np.zeros((50, 32, 32, 3))))
        assert batches == [4] * 36 + [2] * 3
        for n in (1, 4):   # one image, and one whole chunk
            batches.clear()
            model_forward(m, Tensor(np.zeros((n, 32, 32, 3))))
            assert batches == [n] * 3

    def test_complex_gate_weights_survive_streaming(self):
        # A complex-step check of a gate weight widens the gated map past
        # the real feature map; over one chunk, the streamed forward must
        # keep the imaginary part.
        m = build_model(TINY, seed=53)
        chunk = fabnet.model._chunk_images(TINY)
        rng = np.random.default_rng(54)
        x = Tensor(rng.uniform(0, 1, (chunk + 1, 8, 8, 3)))
        labels = rng.integers(0, TINY.num_classes, chunk + 1)

        def loss(leaf):
            swapped = Model(m.config, m.class_names,
                            {**m.params, "fab.expand.weight": leaf},
                            m.trainable)
            return softmax_cross_entropy(model_forward(swapped, x), labels)

        assert grad_check(loss, m.params["fab.expand.weight"]) < 1e-5

    @pytest.mark.parametrize("watch", ["parameters", "input"])
    def test_tracked_forward_runs_whole_batch(self, watch):
        # A tracked forward keeps one conv2d node per block, so backward
        # sees the whole batch at once, and its gradients are the oracle's.
        m = build_model(ModelConfig(), seed=43)
        rng = np.random.default_rng(44)
        x = rng.uniform(0, 1, (40, 32, 32, 3))
        labels = rng.integers(0, 5, 40)
        runs = []
        for forward in (model_forward, whole_batch_forward):
            tape = Tape()
            xt = Tensor(x)
            if watch == "input":
                tape.watch(xt)
                w, leaves = m, {"x": xt}
            else:
                w = m.watch_trainable(tape)
                leaves = dict(w.params)
            logits = forward(w, xt)
            ops = [node.op for node in tape.nodes]
            grads = backward(tape, softmax_cross_entropy(logits, labels))
            runs.append((logits.data.tobytes(), ops,
                         {name: grads[t.node_id].data.tobytes()
                          for name, t in leaves.items()}))
        (logits, ops, grads), (want_logits, want_ops, want_grads) = runs
        assert ops.count("conv2d") == 3
        assert ops == want_ops
        assert logits == want_logits
        assert grads == want_grads

    @pytest.mark.parametrize("cfg", [cfg for cfg, _ in CHUNK_CONFIGS[:2]],
                             ids=["default", "criterion6"])
    def test_backbone_rows_do_not_depend_on_batch_mates(self, cfg):
        # One image's untracked backbone output has the same bytes alone
        # and in any batch, so a frozen backbone's feature maps can be
        # computed once per image and reused.
        m = build_model(cfg, seed=45)
        h, w = cfg.input_size
        x = np.random.default_rng(46).uniform(0, 1, (50, h, w, 3))
        alone = [fabnet.model._backbone(m, Tensor(x[i:i + 1])).data.tobytes()
                 for i in range(50)]
        for n in (15, 16, 17, 50):
            for start in range(0, 50, n):
                batch = fabnet.model._backbone(m, Tensor(x[start:start + n]))
                for i, row in enumerate(batch.data, start):
                    assert row.tobytes() == alone[i], (n, i)


def _watched_run(m, forward, x, labels):
    """Logits and trainable gradients, as bytes."""
    tape = Tape()
    w = m.watch_trainable(tape)
    logits = forward(w, Tensor(x))
    grads = backward(tape, softmax_cross_entropy(logits, labels))
    return (logits.data.tobytes(),
            {name: grads[t.node_id].data.tobytes()
             for name, t in trainable_parameters(w)})


class TestTail:
    """model_forward is _backbone, mean_spatial, then _tail."""

    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(use_fab=False),
                                     CHUNK_CONFIGS[1][0]],
                             ids=["default", "no_fab", "criterion6"])
    def test_two_halves_equal_the_whole(self, cfg):
        m = build_model(cfg, seed=47)
        h, w = cfg.input_size
        rng = np.random.default_rng(48)
        x = rng.uniform(0, 1, (20, h, w, 3))
        labels = rng.integers(0, cfg.num_classes, 20)

        def halves(m, xt):
            return fabnet.model._tail(
                m, mean_spatial(fabnet.model._backbone(m, xt)))

        whole = _watched_run(m, model_forward, x, labels)
        assert _watched_run(m, halves, x, labels) == whole
        assert len(whole[1]) == len(m.params)

    @pytest.mark.parametrize("use_fab", [True, False], ids=["fab", "no_fab"])
    def test_frozen_tail_ignores_where_its_feature_map_came_from(self,
                                                                 use_fab):
        # A frozen step's tail gives the same bytes fed with the channel
        # means of the chunked untracked backbone's output, so those means
        # can be cached.
        cfg = ModelConfig(use_fab=use_fab, freeze_backbone=True)
        m = build_model(cfg, seed=49)
        rng = np.random.default_rng(50)
        x = rng.uniform(0, 1, (50, 32, 32, 3))
        labels = rng.integers(0, cfg.num_classes, 50)
        chunk = fabnet.model._chunk_images(cfg)
        assert chunk == 4
        means = np.concatenate([
            mean_spatial(fabnet.model._backbone(
                m, Tensor(x[start:start + chunk]))).data
            for start in range(0, 50, chunk)])

        def cached(m, xt):
            return fabnet.model._tail(m, Tensor(means))

        got = _watched_run(m, cached, x, labels)
        want = _watched_run(m, model_forward, x, labels)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert len(got[1]) == (8 if use_fab else 4)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-2, 2, size=(2, 5, 5, 3)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0] = np.eye(3)
        out = conv2d(x, Tensor(w), Tensor(np.zeros((1, 1, 1, 3))))
        assert np.array_equal(out.data, x.data)

    def test_zero_padding_counts(self):
        x = Tensor(np.ones((1, 5, 5, 1)))
        w = Tensor(np.ones((3, 3, 1, 1)))
        out = conv2d(x, w, Tensor(np.zeros((1, 1, 1, 1)))).data[0, :, :, 0]
        assert out[2, 2] == 9.0     # interior sees the full window
        assert out[0, 0] == 4.0     # corner loses 5 padded taps

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-2, 2, size=(1, 6, 6, 2)))
        w = Tensor(rng.uniform(-1, 1, size=(3, 3, 2, 3)))
        b = Tensor(rng.uniform(-1, 1, size=(1, 1, 1, 3)))
        assert grad_check(lambda leaf: sum_all(conv2d(leaf, w, b)), x) < 1e-5
        assert grad_check(lambda leaf: sum_all(conv2d(x, leaf, b)), w) < 1e-5

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        w = Tensor(np.zeros((3, 3, 3, 4)))
        with pytest.raises(ShapeError):
            conv2d(x, w, Tensor(np.zeros((1, 1, 1, 4))))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(1, 3))
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            cin = int(rng.integers(1, 5))
            cout = int(rng.integers(1, 4))
            x = rng.uniform(-2, 2, size=(n, h, w, cin))
            k = rng.uniform(-1, 1, size=(3, 3, cin, cout))
            b = rng.uniform(-1, 1, size=(1, 1, 1, cout))
            got = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
            assert np.abs(got - conv2d_oracle(x, k, b)).max() <= 1e-12

    def test_untracked_input_gets_no_gradient(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(-2, 2, size=(2, 6, 6, 3))
        k = rng.uniform(-1, 1, size=(3, 3, 3, 4))
        b = rng.uniform(-1, 1, size=(1, 1, 1, 4))
        g = rng.uniform(-1, 1, size=(2, 6, 6, 4))

        def legs(track_x):
            tape = Tape()
            xt = tensor_new(x.shape, x, track=track_x, tape=tape)
            kt = tensor_new(k.shape, k, track=True, tape=tape)
            bt = tensor_new(b.shape, b, track=True, tape=tape)
            out = conv2d(xt, kt, bt)
            parts = tape.nodes[out.node_id].backward(g)
            grads = backward(tape, sum_all(ew_mul(out, Tensor(g))))
            return parts, grads, xt

        (gx, gw, gb), grads, xt = legs(track_x=True)
        assert gx is not None and xt.node_id in grads
        (gx_off, gw_off, gb_off), grads_off, xt_off = legs(track_x=False)
        assert gx_off is None
        assert xt_off.node_id is None and None not in grads_off
        assert gw_off.tobytes() == gw.tobytes()
        assert gb_off.tobytes() == gb.tobytes()

    # (H, W, Cin, Cout) of the default config's three convs, of criterion
    # 6's two, and two over the 256-pixel block cap: 4-row bands that divide
    # 64, and 8-row bands that leave a 4-row band at the end of each image.
    CONV_SHAPES = [(32, 32, 3, 16), (16, 16, 16, 32), (8, 8, 32, 64),
                   (16, 16, 3, 8), (8, 8, 8, 16), (64, 64, 3, 16),
                   (44, 32, 16, 32)]

    @pytest.mark.parametrize("n", [1, 8, 16, 50, 64])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=str)
    def test_bytes_match_whole_batch_im2col(self, shape, n):
        # The forward builds its columns a block of images at a time and
        # the backward rebuilds them; neither may move a byte away from
        # one matmul over the whole batch's columns. At 8x8, 50 images
        # are not a whole number of 4-image blocks.
        h, w, cin, cout = shape
        rng = np.random.default_rng(23)
        x = rng.uniform(-2, 2, size=(n, h, w, cin))
        k = rng.uniform(-1, 1, size=(3, 3, cin, cout))
        b = rng.uniform(-1, 1, size=(1, 1, 1, cout))
        g = rng.uniform(-1, 1, size=(n, h, w, cout))
        tape = Tape()
        leaves = [tensor_new(a.shape, a, track=True, tape=tape)
                  for a in (x, k, b)]
        out = conv2d(*leaves)
        got = (out.data,) + tape.nodes[out.node_id].backward(g)
        want = conv2d_im2col_reference(x, k, b, g)
        for got_array, want_array in zip(got, want):
            assert np.array_equal(got_array, want_array)
        assert np.array_equal(
            conv2d(Tensor(x), Tensor(k), Tensor(b)).data, want[0])

    def test_rule_keeps_the_padded_input_not_the_columns(self):
        # The backward rule rebuilds the im2col columns, nine times the
        # padded input, rather than keeping them for the tape's lifetime.
        tape = Tape()
        x = tensor_new((2, 6, 6, 3),
                       np.random.default_rng(24).uniform(-1, 1, 216),
                       track=True, tape=tape)
        k = Tensor(np.random.default_rng(25).uniform(-1, 1, (3, 3, 3, 4)))
        out = conv2d(x, k, Tensor(np.zeros((1, 1, 1, 4))))
        rule = tape.nodes[out.node_id].backward
        arrays = [cell.cell_contents for cell in rule.__closure__
                  if isinstance(cell.cell_contents, np.ndarray)]
        padded_bytes = 2 * 8 * 8 * 3 * x.data.itemsize
        assert arrays
        assert max(a.nbytes for a in arrays) <= padded_bytes


class TestMaxPool:
    def test_single_window(self):
        x = tensor_new((1, 2, 2, 1), [1.0, 2.0, 3.0, 4.0])
        assert maxpool2x2(x).item() == 4.0

    def test_tie_routes_to_first_position(self):
        tape = Tape()
        x = tensor_new((1, 2, 2, 1), [5.0, 5.0, 5.0, 5.0], track=True, tape=tape)
        out = maxpool2x2(x)
        assert out.item() == 5.0
        grads = backward(tape, out)
        assert list(grads[x.node_id].values) == [1.0, 0.0, 0.0, 0.0]

    def test_ramp_window_maxima(self):
        x = tensor_new((1, 4, 4, 1), np.arange(1.0, 17.0))
        out = maxpool2x2(x).data[0, :, :, 0]
        assert np.array_equal(out, [[6.0, 8.0], [14.0, 16.0]])

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2x2(Tensor(np.zeros((1, 3, 4, 1))))

    def test_rule_keeps_a_one_byte_mask_not_the_input(self):
        # The backward rule must not pin the input or the output for the
        # tape's lifetime: it may hold one byte per input element.
        tape = Tape()
        x = tensor_new((2, 4, 6, 3),
                       np.random.default_rng(22).uniform(-1, 1, 144),
                       track=True, tape=tape)
        out = maxpool2x2(x)
        rule = tape.nodes[out.node_id].backward
        arrays = [cell.cell_contents for cell in rule.__closure__
                  if isinstance(cell.cell_contents, np.ndarray)]
        assert arrays
        assert not any(np.shares_memory(a, x.data) for a in arrays)
        assert sum(a.nbytes for a in arrays) <= x.data.size

    def test_matches_loop_oracle_on_ties(self):
        # Every window over {0, 1, 2}: all-zero windows, and ties between
        # the maxima at every combination of window positions. Values are
        # post-ReLU (never -0.0), as the model feeds them.
        windows = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=4)))
        rng = np.random.default_rng(21)
        channels = np.stack([windows, windows[rng.permutation(len(windows))]],
                            axis=-1)
        x = (channels.reshape(9, 9, 2, 2, 2).transpose(0, 2, 1, 3, 4)
             .reshape(1, 18, 18, 2))
        g = rng.uniform(-1, 1, size=(1, 9, 9, 2))
        want_out, want_grad = maxpool2x2_oracle(x, g)
        tape = Tape()
        xt = tensor_new(x.shape, x, track=True, tape=tape)
        out = maxpool2x2(xt)
        grads = backward(tape, sum_all(ew_mul(out, Tensor(g))))
        assert out.data.tobytes() == want_out.tobytes()
        assert grads[xt.node_id].data.tobytes() == want_grad.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = build_model(TINY, seed=9, class_names=["ant", "bee", "cat"])
        path = tmp_path / "model.fabn"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        assert loaded.class_names == ["ant", "bee", "cat"]
        assert set(loaded.params) == set(m.params)
        for name in m.params:
            assert np.array_equal(loaded.params[name].data, m.params[name].data)
        assert loaded.trainable == m.trainable

    def test_truncated_file(self, tmp_path):
        m = build_model(TINY, seed=10)
        path = tmp_path / "model.fabn"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.fabn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_attention_config_persists(self, tmp_path):
        m = build_model(TINY, seed=11)
        path = tmp_path / "model.fabn"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.config.use_fab is True
        x = Tensor(np.random.default_rng(12).uniform(0, 1, size=(1, 8, 8, 3)))
        assert np.array_equal(model_forward(loaded, x).data,
                              model_forward(m, x).data)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "model.fabn"
        save_checkpoint(build_model(TINY, seed=12), path)
        before = path.read_bytes()

        real_pack = struct.pack
        calls = itertools.count()

        def failing_pack(fmt, *values):
            # The header packs the version and the config length; fail on
            # the first parameter record after it.
            if next(calls) == 2:
                raise OSError("disk full")
            return real_pack(fmt, *values)

        monkeypatch.setattr(struct, "pack", failing_pack)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(TINY, seed=13), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.fabn"]

    def test_file_synced_before_the_rename_and_directory_after(
            self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append("dir" if stat.S_ISDIR(info.st_mode) else info.st_size)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", lambda *paths: (
            events.append("replace"), real_replace(*paths)))
        path = tmp_path / "model.fabn"
        save_checkpoint(build_model(TINY, seed=12), path)
        # The temp file is synced whole before it replaces the target.
        assert events == [path.stat().st_size, "replace", "dir"]

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        m = build_model(TINY, seed=14)
        path = tmp_path / "model.fabn"
        save_checkpoint(m, path)

        def forbidden(*args, **kwargs):
            raise AssertionError("load_checkpoint initialized a model")

        monkeypatch.setattr(fabnet.model, "build_model", forbidden)
        monkeypatch.setattr(fabnet.model, "_param_rng", forbidden)
        loaded = load_checkpoint(path)
        for name, t in m.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("cfg", [
        ModelConfig(),
        ModelConfig(use_fab=False),
        ModelConfig(freeze_backbone=True),
        ModelConfig(input_size=(8, 8), blocks=(ConvBlockSpec(8, pool=False),),
                    fab_ratio=4, head_hidden=8, num_classes=3),
    ], ids=["default", "no-fab", "frozen", "one-block-no-pool"])
    def test_load_save_byte_identical(self, tmp_path, cfg):
        m = build_model(cfg, seed=15)
        first, second = tmp_path / "first.fabn", tmp_path / "second.fabn"
        save_checkpoint(m, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert list(loaded.params) == list(m.params)
        assert list(loaded.trainable.items()) == list(m.trainable.items())

    def test_class_names_with_hash_and_spaces_round_trip(self, tmp_path):
        # The header is read verbatim: no comment stripping, no padding trim.
        names = ["a # b", " c ", "#d=e"]
        m = build_model(TINY, seed=17, class_names=names)
        first, second = tmp_path / "first.fabn", tmp_path / "second.fabn"
        save_checkpoint(m, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert loaded.class_names == names
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\r", "a\u2028b"])
    def test_class_name_the_header_cannot_hold_rejected(self, bad):
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            build_model(TINY, seed=17, class_names=[bad, "c", "d"])

    def test_first_fault_in_record_order_is_reported(self, tmp_path):
        path = tmp_path / "model.fabn"
        save_checkpoint(build_model(TINY, seed=16), path)
        head, records = split_records(path.read_bytes())
        assert records[0][4:4 + len("block0.conv.weight")] == b"block0.conv.weight"
        records[0] = records[0][:-8] + struct.pack("<d", float("nan"))
        path.write_bytes(head + b"".join(records + records[-1:]))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == "non-finite value in block0.conv.weight"

    def test_extra_record_with_extents_no_array_can_have(self, tmp_path):
        # Its extents multiply to 0 values, yet numpy cannot shape an array
        # that way; the record is still only an extra one.
        path = tmp_path / "model.fabn"
        save_checkpoint(build_model(TINY, seed=16), path)
        path.write_bytes(path.read_bytes() + struct.pack("<I", 5) + b"bogus"
                         + struct.pack("<4Q", 2 ** 62, 0, 1, 1))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == "parameter table mismatch: ['bogus']"

    def test_checkpoint_read_from_a_pipe(self, tmp_path):
        m = build_model(TINY, seed=16)
        save_checkpoint(m, tmp_path / "model.fabn")
        blob = (tmp_path / "model.fabn").read_bytes()
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(blob)   # a pipe buffer holds a TINY checkpoint
        try:
            loaded = load_checkpoint(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        for name, t in m.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
    def test_corrupt_bytes_rejected(self, tmp_path, fault):
        corrupt, message = CHECKPOINT_FAULTS[fault]
        path = tmp_path / "model.fabn"
        save_checkpoint(build_model(TINY, seed=16), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)


class TestFreezing:
    def test_frozen_backbone_excluded(self):
        m = build_model(replace(TINY, freeze_backbone=True), seed=13)
        names = {name for name, _ in trainable_parameters(m)}
        assert names == {"fab.reduce.weight", "fab.reduce.bias",
                         "fab.expand.weight", "fab.expand.bias",
                         "head.hidden.weight", "head.hidden.bias",
                         "head.out.weight", "head.out.bias"}

    def test_unfrozen_includes_everything(self):
        m = build_model(TINY, seed=14)
        assert {name for name, _ in trainable_parameters(m)} == set(m.params)

    def test_frozen_params_survive_optimizer_step(self):
        m = build_model(replace(TINY, freeze_backbone=True), seed=15)
        before = {name: t.data.copy() for name, t in m.params.items()}

        tape = Tape()
        w = m.watch_trainable(tape)
        x = Tensor(np.random.default_rng(16).uniform(0, 1, size=(4, 8, 8, 3)))
        loss = softmax_cross_entropy(model_forward(w, x), [0, 1, 2, 0])
        grad_map = backward(tape, loss)
        trainable = trainable_parameters(w)
        grads = {name: grad_map[t.node_id].data for name, t in trainable}
        adam_step(trainable, grads, AdamState(), lr=1e-3)

        for name, t in m.params.items():
            if name.startswith("block"):
                assert np.array_equal(t.data, before[name])
            else:
                assert not np.array_equal(t.data, before[name])

    @pytest.mark.parametrize("freeze", [False, True])
    def test_watch_trainable_returns_fresh_leaves(self, freeze):
        m = build_model(replace(TINY, freeze_backbone=freeze), seed=17)
        before = {name: t.data.copy() for name, t in m.params.items()}
        tape = Tape()
        w = m.watch_trainable(tape)
        assert all(t.tape is None and t.node_id is None
                   for t in m.params.values())
        assert list(w.params) == list(m.params)
        for name, t in w.params.items():
            if m.trainable[name]:
                assert t is not m.params[name]
                assert t.tape is tape and tape.nodes[t.node_id].op == "leaf"
                assert t.data is m.params[name].data
            else:
                assert t is m.params[name]
        trainable = trainable_parameters(w)
        adam_step(trainable, {name: np.ones_like(t.data)
                              for name, t in trainable}, AdamState(), lr=1e-3)
        for name, t in m.params.items():
            changed = not np.array_equal(t.data, before[name])
            assert changed == m.trainable[name], name


class TestBlockParsing:
    def test_round_trip(self):
        specs = parse_blocks("16:pool,32,64:pool")
        assert specs == (ConvBlockSpec(16, True), ConvBlockSpec(32, False),
                         ConvBlockSpec(64, True))

    def test_bad_suffix(self):
        with pytest.raises(ConfigError):
            parse_blocks("16:avg")

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            parse_blocks("sixteen:pool")


class TestTapeLifetime:
    def test_finished_tapes_are_freed_without_cycle_collection(self):
        # A reference cycle through a tape would keep each step's tape,
        # with its im2col columns and activations, alive until the cyclic
        # GC runs. DEBUG_SAVEALL keeps whatever that GC finds for counting.
        m = build_model(ModelConfig(), seed=22)
        x = Tensor(np.random.default_rng(23).uniform(0, 1, size=(2, 32, 32, 3)))
        labels = np.array([0, 1])
        was_enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        start = len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(2):
                tape = Tape()
                w = m.watch_trainable(tape)
                backward(tape, softmax_cross_entropy(model_forward(w, x), labels))
            del tape, w
            gc.collect()
            leaked = sum(isinstance(o, (Tape, _Node)) for o in gc.garbage[start:])
        finally:
            gc.set_debug(flags)
            del gc.garbage[start:]
            if was_enabled:
                gc.enable()
        assert leaked == 0

    def test_sweep_frees_each_rule_before_the_next_runs(self):
        # Once the sweep has run b2's and b1's conv rules, their padded
        # inputs must be gone before b0's rule runs, though the tape that
        # recorded them is still alive; the swept tape cannot be swept again.
        m = build_model(ModelConfig(), seed=24)
        x = Tensor(np.random.default_rng(25).uniform(0, 1, size=(2, 32, 32, 3)))
        tape = Tape()
        loss = softmax_cross_entropy(
            model_forward(m.watch_trainable(tape), x), np.array([0, 1]))
        b0, b1, b2 = [nid for nid, node in enumerate(tape.nodes)
                      if node.op == "conv2d"]

        def padded(nid):
            rule = tape.nodes[nid].backward
            cells = dict(zip(rule.__code__.co_freevars, rule.__closure__))
            return weakref.ref(cells["padded"].cell_contents)

        inputs = [padded(b1), padded(b2)]
        assert all(ref() is not None for ref in inputs)
        alive_at_b0 = []
        rule = tape.nodes[b0].backward

        def watched_rule(g):
            alive_at_b0.extend(ref() is not None for ref in inputs)
            return rule(g)

        tape.nodes[b0] = tape.nodes[b0]._replace(backward=watched_rule)
        backward(tape, loss)
        assert alive_at_b0 == [False, False]
        with pytest.raises(GraphError, match="a tape is swept once"):
            backward(tape, loss)
