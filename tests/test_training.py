"""Loss, optimizer, training loop, metrics, and the paired ablation."""

import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fabnet.training
from fabnet.data import load_manifest, load_samples, stratified_split, synth_generate
from fabnet.model import save_checkpoint
from fabnet.errors import ConfigError, DivergenceError, ShapeError
from fabnet.model import (ConvBlockSpec, ModelConfig, build_model,
                          model_forward)
from fabnet.tensor import Tape, Tensor, backward, grad_check, tensor_new
from fabnet.training import (AblationResult, AblationRow, AdamState, SplitData,
                             TrainConfig, ablation_run, adam_step, evaluate,
                             _forward_dataset, _train_step,
                             metrics_from_predictions,
                             softmax_cross_entropy, softmax_probabilities,
                             train)
from oracles import metrics_oracle

TINY = ModelConfig(input_size=(8, 8), blocks=(ConvBlockSpec(4),),
                   fab_ratio=4, head_hidden=8, num_classes=3)


def tiny_data(seed=0, n_train=12, n_test=6, classes=3):
    rng = np.random.default_rng(seed)
    return SplitData(rng.uniform(0, 1, (n_train, 8, 8, 3)),
                     rng.integers(0, classes, n_train),
                     rng.uniform(0, 1, (n_test, 8, 8, 3)),
                     rng.integers(0, classes, n_test))


def _traced_peak(run) -> int:
    """Peak bytes numpy and Python allocate while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCrossEntropy:
    def test_uniform_softmax(self):
        logits = tensor_new((1, 1, 1, 2), [0.0, 0.0])
        assert softmax_cross_entropy(logits, [0]).item() == pytest.approx(
            np.log(2.0), abs=1e-12)

    def test_stable_under_large_logits(self):
        logits = tensor_new((1, 1, 1, 2), [1000.0, 0.0])
        loss = softmax_cross_entropy(logits, [0]).item()
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.uniform(-2, 2, size=(4, 1, 1, 5)))
        labels = rng.integers(0, 5, size=4)
        err = grad_check(lambda leaf: softmax_cross_entropy(leaf, labels), logits)
        assert err < 1e-6

    def test_gradient_is_softmax_minus_onehot(self):
        tape = Tape()
        logits = tensor_new((2, 1, 1, 3), np.random.default_rng(1).uniform(-1, 1, 6),
                            track=True, tape=tape)
        labels = np.array([2, 0])
        grads = backward(tape, softmax_cross_entropy(logits, labels))
        probs = softmax_probabilities(logits)
        onehot = np.zeros((2, 3))
        onehot[np.arange(2), labels] = 1.0
        np.testing.assert_allclose(grads[logits.node_id].data.reshape(2, 3),
                                   (probs - onehot) / 2.0, rtol=1e-12, atol=1e-15)

    def test_label_out_of_range(self):
        logits = tensor_new((1, 1, 1, 3), [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, [3])
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, [-1])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.full((1, 1, 1, 2), 1.5))
        before = p.data.copy()
        adam_step([("p", p)], {"p": np.zeros((1, 1, 1, 2))}, AdamState(), lr=1e-2)
        assert np.array_equal(p.data, before)

    def test_first_step_closed_form(self):
        p = Tensor(np.full((1, 1, 1, 1), 1.0))
        adam_step([("p", p)], {"p": np.full((1, 1, 1, 1), 0.5)}, AdamState(),
                  lr=1e-4)
        expected = 1.0 - 1e-4 * (0.5 / (0.5 + 1e-8))
        assert abs(p.item() - expected) < 1e-12

    def test_equal_gradients_equal_updates(self):
        a = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor(np.full((1, 1, 1, 1), 2.0))
        g = np.full((1, 1, 1, 1), 0.3)
        adam_step([("a", a), ("b", b)], {"a": g, "b": g.copy()}, AdamState(),
                  lr=1e-3)
        assert a.item() == b.item()

    def test_step_counter_increments(self):
        state = AdamState()
        p = Tensor(np.ones((1, 1, 1, 1)))
        for expected in (1, 2, 3):
            adam_step([("p", p)], {"p": np.ones((1, 1, 1, 1))}, state, lr=1e-3)
            assert state.t == expected

    def test_gradient_shape_mismatch(self):
        p = Tensor(np.ones((1, 1, 1, 2)))
        with pytest.raises(ShapeError):
            adam_step([("p", p)], {"p": np.ones((1, 1, 1, 3))}, AdamState(),
                      lr=1e-3)

    def test_gradient_key_mismatch(self):
        p = Tensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(ShapeError):
            adam_step([("p", p)], {"q": np.ones((1, 1, 1, 1))}, AdamState(),
                      lr=1e-3)


class TestTrainLoop:
    def test_all_frozen_params_untouched_curve_recorded(self):
        m = build_model(TINY, seed=0)
        for name in m.trainable:
            m.trainable[name] = False
        before = {name: t.data.copy() for name, t in m.params.items()}
        m, curve = train(m, tiny_data(), TrainConfig(max_epochs=3, seed=0))
        assert len(curve.records) == 3
        assert [r.epoch for r in curve.records] == [1, 2, 3]
        for name, t in m.params.items():
            assert np.array_equal(t.data, before[name])

    def test_zero_learning_rate_constant_loss(self):
        m = build_model(TINY, seed=1)
        before = {name: t.data.copy() for name, t in m.params.items()}
        m, curve = train(m, tiny_data(), TrainConfig(learning_rate=0.0,
                                                     max_epochs=4, seed=1))
        for name, t in m.params.items():
            assert np.array_equal(t.data, before[name])
        losses = [r.train_loss for r in curve.records]
        assert max(losses) - min(losses) < 1e-12
        val_losses = [r.val_loss for r in curve.records]
        assert max(val_losses) - min(val_losses) == 0.0

    def test_training_is_bit_deterministic(self):
        data = tiny_data(seed=2)
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=3, seed=2)
        first, curve_a = train(build_model(TINY, seed=2), data, cfg)
        second, curve_b = train(build_model(TINY, seed=2), data, cfg)
        for name in first.params:
            assert np.array_equal(first.params[name].data,
                                  second.params[name].data)
        assert curve_a.to_csv() == curve_b.to_csv()

    def test_divergence_reported_with_context(self):
        m = build_model(TINY, seed=3)
        m.params["head.out.weight"].data[:] = 1e308
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="epoch 1, batch 0"):
                train(m, tiny_data(), TrainConfig(max_epochs=1, seed=3))

    def test_non_finite_parameter_named_where_it_appears(self):
        # An infinite step leaves the loss finite until the next batch;
        # the parameter check names the first tensor it breaks.
        m = build_model(TINY, seed=3)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=re.escape(
                    "non-finite parameter block0.conv.weight at epoch 1, "
                    "batch 0")):
                train(m, tiny_data(), TrainConfig(learning_rate=math.inf,
                                                  max_epochs=1, seed=3))

    def test_overflowing_held_out_sweep_is_divergence(self):
        # One step leaves finite weights whose held-out forward overflows;
        # the sweep names it instead of recording a non-finite val_loss.
        with pytest.raises(DivergenceError, match=re.escape(
                "held-out sweep at epoch 1: overflow")):
            train(build_model(TINY, 0), tiny_data(),
                  TrainConfig(learning_rate=1e308, batch_size=16,
                              max_epochs=1))

    def test_step_peak_memory(self):
        # One step on the default config (batch 16, 32x32) holds what its
        # backward still needs and nothing more: freed intermediate
        # gradients, a one-byte max-pool mask and conv rules that keep the
        # padded input put its peak at about 7.9 MiB, where keeping them
        # all would take about 21.8 MiB.
        m = build_model(ModelConfig(), seed=0)
        rng = np.random.default_rng(0)
        xb = rng.uniform(0, 1, (16, 32, 32, 3))
        yb = rng.integers(0, 5, 16)
        tracemalloc.start()
        try:
            _train_step(m, xb, yb, AdamState(), TrainConfig(), 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_step_peak_without_conv_columns(self):
        # The conv rules rebuild their im2col columns in the backward;
        # keeping them took the step's peak to about 13.6 MiB.
        m = build_model(ModelConfig(), seed=0)
        rng = np.random.default_rng(0)
        xb = rng.uniform(0, 1, (16, 32, 32, 3))
        yb = rng.integers(0, 5, 16)
        peak = _traced_peak(lambda: _train_step(
            m, xb, yb, AdamState(), TrainConfig(), 1, 0))
        assert peak <= 10 * 2**20

    def test_scaled_batch_freed_before_backward(self, monkeypatch):
        # A step scales its decoder-byte batch itself, so the float64 copy
        # the forward pass reads is gone when the backward sweep starts:
        # 384 KiB at the default step, 18.4 MiB at 224x224 with batch 16.
        inputs, alive = [], []
        real_forward = fabnet.training.model_forward
        real_backward = fabnet.training.tape_backward

        def forward(m, x, *args):
            inputs.append(weakref.ref(x.data))
            return real_forward(m, x, *args)

        def spy_backward(tape, loss):
            alive.append(inputs[-1]() is not None)
            return real_backward(tape, loss)

        monkeypatch.setattr(fabnet.training, "model_forward", forward)
        monkeypatch.setattr(fabnet.training, "tape_backward", spy_backward)
        data = tiny_data(seed=6)
        pixels = np.rint(data.train_x * 255).astype(np.uint8)
        train(build_model(TINY, seed=6),
              SplitData(pixels, data.train_y, data.test_x, data.test_y),
              TrainConfig(batch_size=4, max_epochs=1, seed=6))
        assert alive == [False] * 3

    def test_float_batch_freed_before_backward(self, monkeypatch):
        # A resized manifest loads as float64, which model_input passes
        # through, so the forward pass reads the gathered batch itself; no
        # frame may keep it alive through the backward sweep.
        inputs, alive = [], []
        real_forward = fabnet.training.model_forward
        real_backward = fabnet.training.tape_backward

        def forward(m, x, *args):
            inputs.append(weakref.ref(x.data))
            return real_forward(m, x, *args)

        def spy_backward(tape, loss):
            alive.append(inputs[-1]() is not None)
            return real_backward(tape, loss)

        monkeypatch.setattr(fabnet.training, "model_forward", forward)
        monkeypatch.setattr(fabnet.training, "tape_backward", spy_backward)
        train(build_model(TINY, seed=6), tiny_data(seed=6),
              TrainConfig(batch_size=4, max_epochs=1, seed=6))
        assert alive == [False] * 3

    def test_validation_sweep_peak_memory(self):
        # The untracked sweep runs 50 images in one batch; its convs build
        # columns a block of images at a time in one workspace (about
        # 7.9 MiB peak), where the whole batch's columns at once peaked at
        # about 20.8 MiB.
        m = build_model(ModelConfig(), seed=0)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (50, 32, 32, 3))
        y = rng.integers(0, 5, 50)
        peak = _traced_peak(lambda: _forward_dataset(m, x, y))
        assert peak <= 10 * 2**20

    def test_validation_sweep_peak_without_full_feature_maps(self):
        # The untracked sweep runs the backbone 4 images at a time, so no
        # conv output exists for all 50 images; at the whole batch, block
        # 0's output alone is 6.25 MiB and the sweep peaked at about
        # 7.9 MiB.
        m = build_model(ModelConfig(), seed=0)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (50, 32, 32, 3))
        y = rng.integers(0, 5, 50)
        peak = _traced_peak(lambda: _forward_dataset(m, x, y))
        assert peak <= 5 * 2**20

    def test_untracked_forward_peak_memory(self):
        # 100 images untracked, as a benchmark set-up or an eval batch runs
        # them: about 4.2 MiB, where the whole batch's maps took 15.8 MiB.
        m = build_model(ModelConfig(), seed=0)
        x = np.random.default_rng(2).uniform(0, 1, (100, 32, 32, 3))
        peak = _traced_peak(lambda: model_forward(m, Tensor(x)))
        assert peak <= 5 * 2**20

    def test_untracked_forward_peak_memory_at_224(self):
        # Column blocks of at most 256 output pixels bound the im2col
        # workspace whatever the image size: one 224x224 image peaked at
        # about 7.8 MiB, where blocks of whole images took 20.0 MiB.
        m = build_model(ModelConfig(input_size=(224, 224)), seed=0)
        x = np.random.default_rng(3).uniform(0, 1, (1, 224, 224, 3))
        peak = _traced_peak(lambda: model_forward(m, Tensor(x)))
        assert peak < 12 * 2**20

    def test_needs_an_epoch(self):
        with pytest.raises(ConfigError, match="max_epochs"):
            train(build_model(TINY, seed=5), tiny_data(),
                  TrainConfig(max_epochs=0))

    def test_last_sweep_predictions_kept(self):
        data = tiny_data(seed=5)
        m, curve = train(build_model(TINY, seed=5), data,
                         TrainConfig(learning_rate=1e-3, max_epochs=2, seed=5))
        report = evaluate(m, data.test_x, data.test_y)
        assert np.array_equal(
            metrics_from_predictions(data.test_y, curve.val_preds,
                                     m.class_names).confusion,
            report.confusion)
        assert "val_preds" not in curve.to_csv()

    def test_three_class_desk_convergence(self, tmp_path):
        # default TrainConfig end to end; regression value from first build
        manifest_path = synth_generate(tmp_path / "ds", classes=3,
                                       per_class=40, size=(32, 32), seed=21)
        manifest = load_manifest(manifest_path)
        tr, te = stratified_split(manifest, 21)
        data = SplitData(*load_samples(manifest, tr, (32, 32)),
                         *load_samples(manifest, te, (32, 32)))
        m = build_model(ModelConfig(num_classes=3), seed=21,
                        class_names=manifest.class_names)
        m, curve = train(m, data, TrainConfig(seed=21))
        final = curve.records[-1].train_acc
        assert final > 0.9
        assert final == 1.0   # pinned at first build

    def test_no_tape_outlives_training(self, monkeypatch):
        # A parameter left bound to the last step's tape would make every
        # later forward pass record onto it and keep its activations alive.
        data = tiny_data(seed=4)
        gc.collect()
        tapes_before = sum(isinstance(o, Tape) for o in gc.get_objects())
        m, _ = train(build_model(TINY, seed=4), data,
                     TrainConfig(learning_rate=1e-3, max_epochs=2, seed=4))
        gc.collect()
        assert sum(isinstance(o, Tape) for o in gc.get_objects()) == tapes_before
        for t in m.params.values():
            assert t.tape is None and t.node_id is None

        recorded = []
        real_record = Tape.record

        def spy(self, op, parents, backward):
            recorded.append(op)
            return real_record(self, op, parents, backward)

        monkeypatch.setattr(Tape, "record", spy)
        for _ in range(3):
            evaluate(m, data.test_x, data.test_y)
        assert recorded == []


class TestEvaluate:
    def test_perfect_predictions(self):
        report = metrics_from_predictions([0, 1, 2], [0, 1, 2],
                                          ["a", "b", "c"])
        assert report.accuracy == 1.0
        assert report.top1_error_percent == 0.0
        assert np.array_equal(report.confusion, np.eye(3, dtype=np.int64))

    def test_hand_computed_two_class(self):
        report = metrics_from_predictions([0, 1, 1], [0, 1, 0], ["a", "b"])
        assert np.array_equal(report.confusion, [[1, 0], [1, 1]])
        assert list(report.precision) == [0.5, 1.0]
        assert list(report.recall) == [1.0, 0.5]
        assert report.f1 == pytest.approx([2 / 3, 2 / 3])
        assert report.macro_f1 == pytest.approx(2 / 3)

    def test_table_consistency_96_to_4(self):
        y = [0] * 96 + [1] * 4
        pred = [0] * 96 + [0] * 4
        report = metrics_from_predictions(y, pred, ["a", "b"])
        assert report.accuracy == 0.96
        assert report.top1_error_percent == 4.0

    def test_top1_identity_holds_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 8))
            y = rng.integers(0, k, n)
            p = rng.integers(0, k, n)
            report = metrics_from_predictions(y, p, [str(i) for i in range(k)])
            assert report.top1_error_percent == 100.0 - 100.0 * report.accuracy

    def test_row_sums_equal_true_counts(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 4, 200)
        p = rng.integers(0, 4, 200)
        report = metrics_from_predictions(y, p, list("abcd"))
        for c in range(4):
            assert report.confusion[c].sum() == np.sum(y == c)
        assert report.confusion.sum() == 200
        assert report.accuracy == np.trace(report.confusion) / 200

    def test_zero_division_flagged(self):
        report = metrics_from_predictions([0, 0, 1], [0, 0, 0], ["a", "b"])
        assert report.precision[1] == 0.0
        assert "precision:b" in report.zero_division

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, 1001))
            k = int(rng.integers(2, 11))
            y = rng.integers(0, k, n)
            p = rng.integers(0, k, n)
            report = metrics_from_predictions(y, p, [str(i) for i in range(k)])
            precision, recall, f1, accuracy = metrics_oracle(y, p, k)
            assert list(report.precision) == precision
            assert list(report.recall) == recall
            assert list(report.f1) == f1
            assert report.accuracy == accuracy

    def test_narrow_integer_ids_count_as_int64(self):
        # 17 * 16 + 16 does not fit in a uint8; the ids are widened first.
        names = [str(i) for i in range(17)]
        narrow = metrics_from_predictions(np.array([16, 3], np.uint8),
                                          np.array([16, 2], np.uint8), names)
        wide = metrics_from_predictions([16, 3], [16, 2], names)
        assert np.array_equal(narrow.confusion, wide.confusion)
        assert narrow.confusion[16, 16] == 1

    def test_argmax_tie_breaks_low(self):
        m = build_model(TINY, seed=6)
        for t in m.params.values():
            t.data[:] = 0.0   # all logits identical -> argmax picks class 0
        report = evaluate(m, np.zeros((3, 8, 8, 3)), np.array([0, 1, 2]))
        assert np.all(report.confusion[:, 0] == 1)

    def test_overflowing_forward_raises(self):
        # Finite weights whose forward overflows: ReLU maps the NaNs of
        # inf - inf to 0.0, so without the check the scores look sound.
        m = build_model(ModelConfig(), seed=7)
        for name, t in m.params.items():
            if name.endswith(".conv.weight"):
                t.data *= 1e200
        x = np.random.default_rng(8).uniform(0, 1, (20, 32, 32, 3))
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate(m, x, np.arange(20) % 5)


class TestAblation:
    def test_fabricated_paper_style_pair(self):
        result = AblationResult(rows=(AblationRow(0, 0.9570, 0.9480),))
        assert result.mean_difference * 100 == pytest.approx(0.90)

    def test_pairing_is_seed_exact(self, small_split):
        cfg = ModelConfig(input_size=(16, 16),
                          blocks=(ConvBlockSpec(4), ConvBlockSpec(8)),
                          fab_ratio=4, head_hidden=8, num_classes=3,
                          use_fab=False)
        tcfg = TrainConfig(max_epochs=2, seed=0)
        a = ablation_run(small_split, cfg, tcfg, seeds=[7])
        b = ablation_run(small_split, cfg, tcfg, seeds=[7])
        assert (a.rows[0].accuracy_without_attention
                == b.rows[0].accuracy_without_attention)
        assert (a.rows[0].accuracy_with_attention
                == b.rows[0].accuracy_with_attention)

    def test_accuracies_are_each_arms_scored_predictions(self):
        # Each arm's accuracy is the metric suite's accuracy of a separate
        # train with the same seed and config, scored on its last sweep.
        data, tcfg = tiny_data(seed=3), TrainConfig(max_epochs=2, seed=0)
        row = ablation_run(data, TINY, tcfg, seeds=[5]).rows[0]
        for use_fab, acc in ((True, row.accuracy_with_attention),
                             (False, row.accuracy_without_attention)):
            m = build_model(replace(TINY, use_fab=use_fab), 5)
            m, curve = train(m, data, replace(tcfg, seed=5))
            assert acc == metrics_from_predictions(
                data.test_y, curve.val_preds, m.class_names).accuracy

    def test_needs_a_seed(self, small_split):
        with pytest.raises(ValueError):
            ablation_run(small_split, TINY, TrainConfig(max_epochs=1), seeds=[])


def byte_twins(n_train=12, n_test=70):
    """A split of decoder bytes and its float64 model-input twin.

    70 held-out images span two of the untracked sweep's 64-image slices.
    """
    rng = np.random.default_rng(4)
    raw = SplitData(rng.integers(0, 256, (n_train, 8, 8, 3)).astype(np.uint8),
                    rng.integers(0, 3, n_train),
                    rng.integers(0, 256, (n_test, 8, 8, 3)).astype(np.uint8),
                    rng.integers(0, 3, n_test))
    floats = SplitData(raw.train_x.astype(np.float64) / 255.0, raw.train_y,
                       raw.test_x.astype(np.float64) / 255.0, raw.test_y)
    return raw, floats


class TestDecoderBytes:
    """A uint8 split trains and scores exactly as its float64 twin."""

    def test_train_curves_and_parameters_identical(self, tmp_path):
        outputs = []
        for i, data in enumerate(byte_twins()):
            m = build_model(TINY, seed=2)
            m, curve = train(m, data, TrainConfig(
                learning_rate=1e-2, batch_size=5, max_epochs=3, seed=2))
            save_checkpoint(m, tmp_path / f"{i}.fabn")
            outputs.append((curve.to_csv(),
                            (tmp_path / f"{i}.fabn").read_bytes(),
                            curve.val_preds.tobytes()))
        assert outputs[0] == outputs[1]

    def test_evaluate_reports_identical(self):
        m = build_model(TINY, seed=5)
        raw, floats = byte_twins()
        a = evaluate(m, raw.test_x, raw.test_y)
        b = evaluate(m, floats.test_x, floats.test_y)
        assert a.to_csv() == b.to_csv()
        assert a.confusion_csv() == b.confusion_csv()
