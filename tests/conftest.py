import numpy as np
import pytest

from fabnet.data import load_manifest, load_samples, stratified_split, synth_generate
from fabnet.training import SplitData


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """A tiny 3-class 16x16 dataset, shared where contents don't matter."""
    root = tmp_path_factory.mktemp("smallds")
    manifest_path = synth_generate(root, classes=3, per_class=10,
                                   size=(16, 16), seed=5)
    return load_manifest(manifest_path)


@pytest.fixture(scope="session")
def small_split(small_dataset):
    train_idx, test_idx = stratified_split(small_dataset, 5)
    return SplitData(*load_samples(small_dataset, train_idx, (16, 16)),
                     *load_samples(small_dataset, test_idx, (16, 16)))
