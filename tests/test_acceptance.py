"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in
captured output) and asserts the same condition.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fabnet.attention import fab_forward, fab_init
from fabnet.cli import main
from fabnet.data import (DatasetManifest, load_manifest, load_samples,
                         stratified_split, synth_generate)
from fabnet.model import (ConvBlockSpec, ModelConfig, build_model, conv2d,
                          load_checkpoint, save_checkpoint)
from fabnet.tensor import Tensor
from fabnet.training import (SplitData, TrainConfig, ablation_run, evaluate,
                             metrics_from_predictions, train)
from fabnet.verify import run_suite
from oracles import attention_oracle, conv2d_oracle, mean_spatial_oracle, metrics_oracle
from fabnet.tensor import mean_spatial


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def saturated(params, bias_value):
    w, b = params["fab.expand.weight"].data, params["fab.expand.bias"].data
    return {**params, "fab.expand.weight": Tensor(np.zeros_like(w)),
            "fab.expand.bias": Tensor(np.full(b.shape, bias_value))}


def make_split(tmp, classes, per_class, size, seed):
    manifest_path = synth_generate(tmp, classes=classes, per_class=per_class,
                                   size=size, seed=seed)
    manifest = load_manifest(manifest_path)
    tr, te = stratified_split(manifest, seed)
    return manifest, SplitData(*load_samples(manifest, tr, size),
                               *load_samples(manifest, te, size))


def test_criterion_1_gradient_oracle():
    start = time.time()
    results = run_suite(seed=0, n_seeds=5, tolerance=1e-5)
    elapsed = time.time() - start
    worst = max(r.max_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    report(1, ok, f"reverse-mode vs complex-step over 5 seeds: "
                  f"worst {worst:.2e} < 1e-5 across {len(results)} checks, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_2_attention_closed_forms():
    rng = np.random.default_rng(0)
    base = fab_init(8, 4, rng)

    x = Tensor(rng.uniform(-2.0, 2.0, size=(2, 4, 4, 8)))
    low = fab_forward(x, saturated(base, -1000.0)).out.data
    residual_err = np.abs(low - x.data).max() / np.abs(x.data).max()

    half = fab_forward(x, saturated(base, 0.0)).out.data
    half_err = np.abs(half - 1.5 * x.data).max()

    gate_ok = shape_ok = True
    for trial in range(1000):
        trial_rng = np.random.default_rng([1, trial])
        c = int(trial_rng.choice([4, 8, 16]))
        shape = (int(trial_rng.integers(1, 3)), int(trial_rng.integers(1, 5)),
                 int(trial_rng.integers(1, 5)), c)
        params = fab_init(c, 4, trial_rng)
        xt = Tensor(trial_rng.uniform(-2.0, 2.0, size=shape))
        acts = fab_forward(xt, params)
        gate_ok &= bool(np.all(acts.gate.data > 0.0)
                        and np.all(acts.gate.data < 1.0))
        shape_ok &= acts.out.data.shape == shape

    ok = residual_err < 1e-6 and half_err < 1e-12 and gate_ok and shape_ok
    report(2, ok, f"saturated-low residual {residual_err:.2e} < 1e-6; "
                  f"half-gate |out-1.5x| {half_err:.2e} < 1e-12; gate in (0,1) "
                  f"and shape preserved on 1000 random inputs")


def test_criterion_3_brute_force_equivalence():
    rng = np.random.default_rng(2)
    worst_fab = worst_mean = worst_conv = 0.0
    metrics_exact = True

    for _ in range(100):
        c = int(rng.choice([2, 4]))
        p = fab_init(c, 2, rng)
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 3)),
                                     int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), c))
        got = fab_forward(Tensor(x), p).out.data
        want = attention_oracle(x, p["fab.reduce.weight"].data,
                                p["fab.reduce.bias"].data,
                                p["fab.expand.weight"].data,
                                p["fab.expand.bias"].data)
        worst_fab = max(worst_fab, np.abs(got - want).max())

    for _ in range(100):
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 5)),
                                     int(rng.integers(1, 9)),
                                     int(rng.integers(1, 9)),
                                     int(rng.integers(1, 17))))
        worst_mean = max(worst_mean, np.abs(
            mean_spatial(Tensor(x)).data - mean_spatial_oracle(x)).max())

    for _ in range(100):
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 4))
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 3)),
                                     int(rng.integers(2, 9)),
                                     int(rng.integers(2, 9)), cin))
        k = rng.uniform(-1, 1, size=(3, 3, cin, cout))
        b = rng.uniform(-1, 1, size=(1, 1, 1, cout))
        got = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        worst_conv = max(worst_conv, np.abs(got - conv2d_oracle(x, k, b)).max())

    for _ in range(100):
        n = int(rng.integers(1, 1001))
        k = int(rng.integers(2, 11))
        y = rng.integers(0, k, n)
        p = rng.integers(0, k, n)
        rep = metrics_from_predictions(y, p, [str(i) for i in range(k)])
        precision, recall, f1, accuracy = metrics_oracle(y, p, k)
        metrics_exact &= (list(rep.precision) == precision
                          and list(rep.recall) == recall
                          and list(rep.f1) == f1
                          and rep.accuracy == accuracy)

    ok = (worst_fab <= 1e-12 and worst_mean <= 1e-12
          and worst_conv <= 1e-12 and metrics_exact)
    report(3, ok, f"loop-oracle deltas over 100 trials each: attention "
                  f"{worst_fab:.1e}, spatial mean {worst_mean:.1e}, conv "
                  f"{worst_conv:.1e} (<= 1e-12); metrics exact: {metrics_exact}")


def test_criterion_4_protocol_fidelity(tmp_path):
    cfg = TrainConfig()
    protocol_ok = (cfg.learning_rate == 1e-4 and cfg.batch_size == 16
                   and cfg.max_epochs == 40 and cfg.beta1 == 0.9
                   and cfg.beta2 == 0.999 and cfg.epsilon == 1e-8)

    counts = {"Mild": 1624, "Moderate": 999, "No DR": 1805,
              "Proliferate": 772, "Severe": 834}
    entries = tuple((f"{label}_{i}.ppm", label)
                    for label, n in counts.items() for i in range(n))
    manifest = DatasetManifest(entries=entries,
                               class_names=tuple(sorted(counts)),
                               base_dir=tmp_path)
    _, test_idx = stratified_split(manifest, 0)
    split_ok = len(entries) == 6034 and len(test_idx) == 1207

    rng = np.random.default_rng(3)
    identity_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 400))
        k = int(rng.integers(2, 8))
        rep = metrics_from_predictions(rng.integers(0, k, n),
                                       rng.integers(0, k, n),
                                       [str(i) for i in range(k)])
        identity_ok &= (rep.top1_error_percent
                        == 100.0 - 100.0 * rep.accuracy)
    rep96 = metrics_from_predictions([0] * 96 + [1] * 4, [0] * 100, ["a", "b"])
    table_ok = rep96.accuracy == 0.96 and rep96.top1_error_percent == 4.0

    ok = protocol_ok and split_ok and identity_ok and table_ok
    report(4, ok, f"defaults lr=1e-4/batch=16/epochs=40/adam: {protocol_ok}; "
                  f"retina-count split -> {len(test_idx)} test (want 1207); "
                  f"top1 == 100-100*accuracy on 200 reports and 96%<->4.0")


def test_criterion_5_desk_scale_learning(tmp_path):
    start = time.time()
    manifest, data = make_split(tmp_path / "ds", classes=5, per_class=50,
                                size=(32, 32), seed=7)
    model = build_model(ModelConfig(num_classes=5), seed=7,
                        class_names=manifest.class_names)
    model, curve = train(model, data, TrainConfig(seed=7))
    accuracy = evaluate(model, data.test_x, data.test_y).accuracy
    elapsed = time.time() - start
    pinned = 1.0   # regression value recorded at first build (seed 7)
    ok = (accuracy >= 0.9 and accuracy == pinned and elapsed < 600.0
          and len(data.train_y) == 200 and len(data.test_y) == 50)
    report(5, ok, f"200/50-image 32x32 synthetic run, default config: "
                  f"test accuracy {accuracy} (>= 0.9, pinned {pinned}), "
                  f"{elapsed:.0f}s < 600s")


def test_criterion_6_ablation_direction(tmp_path):
    start = time.time()
    _, data = make_split(tmp_path / "ds", classes=5, per_class=40,
                         size=(16, 16), seed=11)
    model_cfg = ModelConfig(input_size=(16, 16),
                            blocks=(ConvBlockSpec(8), ConvBlockSpec(16)),
                            fab_ratio=4, head_hidden=16, num_classes=5)
    train_cfg = TrainConfig(max_epochs=30, learning_rate=3e-4)
    result = ablation_run(data, model_cfg, train_cfg, seeds=list(range(10)))
    elapsed = time.time() - start

    nontrivial = result.mean_without <= 0.97
    direction = result.mean_with >= result.mean_without - 0.005

    # Paired models must differ exactly in the attention parameter set.
    pair = {}
    for use_fab in (True, False):
        m = build_model(replace(model_cfg, use_fab=use_fab), seed=0)
        m, _ = train(m, data, replace(train_cfg, seed=0))
        path = tmp_path / f"fab_{use_fab}.fabn"
        save_checkpoint(m, path)
        pair[use_fab] = load_checkpoint(path)
    name_diff = set(pair[True].params) - set(pair[False].params)
    structural = (name_diff == {"fab.reduce.weight", "fab.reduce.bias",
                                "fab.expand.weight", "fab.expand.bias"}
                  and not set(pair[False].params) - set(pair[True].params)
                  and pair[True].config == replace(pair[False].config,
                                                   use_fab=True))
    init_pair = [build_model(replace(model_cfg, use_fab=f), seed=0)
                 for f in (True, False)]
    shared_init = all(np.array_equal(init_pair[0].params[n].data,
                                     init_pair[1].params[n].data)
                      for n in init_pair[1].params)

    ok = (nontrivial and direction and structural and shared_init
          and elapsed < 7200.0)
    report(6, ok, f"10 paired seeds: mean with-attention "
                  f"{result.mean_with:.4f} vs without {result.mean_without:.4f} "
                  f"(diff {result.mean_difference:+.4f} >= -0.005); baseline "
                  f"<= 0.97: {nontrivial}; checkpoint diff confined to "
                  f"attention entries: {structural}; {elapsed:.0f}s < 7200s")


def test_criterion_7_determinism_and_round_trips(tmp_path):
    main(["synth", "--out", str(tmp_path / "ds"), "--classes", "3",
          "--per-class", "8", "--size", "16", "--seed", "4"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("image_size=16\nblocks=8:pool,16:pool\nfab_ratio=8\n"
                   "head_hidden=16\nlearning_rate=0.001\nbatch_size=8\n"
                   "max_epochs=3\nseed=4\n")
    for sub in ("a", "b"):
        assert main(["train", "--config", str(cfg),
                     "--data", str(tmp_path / "ds" / "manifest.csv"),
                     "--out", str(tmp_path / sub)]) == 0
    curves_identical = ((tmp_path / "a" / "curves.csv").read_bytes()
                        == (tmp_path / "b" / "curves.csv").read_bytes())

    saved = load_checkpoint(tmp_path / "a" / "checkpoint.fabn")
    save_checkpoint(saved, tmp_path / "resaved.fabn")
    round_trip = ((tmp_path / "resaved.fabn").read_bytes()
                  == (tmp_path / "a" / "checkpoint.fabn").read_bytes())

    # Transfer flow: pretrain, freeze the backbone, fine-tune on new data.
    _, pretrain_data = make_split(tmp_path / "taskA", classes=3, per_class=8,
                                  size=(16, 16), seed=5)
    _, finetune_data = make_split(tmp_path / "taskB", classes=3, per_class=8,
                                  size=(16, 16), seed=6)
    cfg_a = ModelConfig(input_size=(16, 16),
                        blocks=(ConvBlockSpec(8), ConvBlockSpec(16)),
                        fab_ratio=8, head_hidden=16, num_classes=3)
    pretrained = build_model(cfg_a, seed=5)
    pretrained, _ = train(pretrained, pretrain_data,
                          TrainConfig(learning_rate=1e-3, max_epochs=3, seed=5))
    frozen_values = {name: t.data.copy()
                     for name, t in pretrained.params.items()
                     if name.startswith("block")}

    tuned = build_model(replace(cfg_a, freeze_backbone=True), seed=5)
    for name, t in pretrained.params.items():
        tuned.params[name] = Tensor(t.data.copy())
    tuned, _ = train(tuned, finetune_data,
                     TrainConfig(learning_rate=1e-3, max_epochs=3, seed=6))
    frozen_ok = all(np.array_equal(tuned.params[name].data, frozen_values[name])
                    for name in frozen_values)
    head_moved = not np.array_equal(tuned.params["head.out.weight"].data,
                                    pretrained.params["head.out.weight"].data)

    ok = curves_identical and round_trip and frozen_ok and head_moved
    report(7, ok, f"byte-identical curves across reruns: {curves_identical}; "
                  f"checkpoint round trip bit-exact: {round_trip}; frozen "
                  f"backbone bit-identical after fine-tuning: {frozen_ok}")
