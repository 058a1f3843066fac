"""Kink margins of the gradient check, read from the real forward."""

import numpy as np

from fabnet.tensor import Tensor
from fabnet.verify import _kink_margin, _model_for_check


def test_tied_positive_pool_windows_have_zero_margin():
    # Block 0 outputs 0.5 everywhere, so every pool window is tied at a
    # positive maximum while no pre-activation is near zero there.
    model = _model_for_check(seed=0)
    model.params["block0.conv.weight"].data[...] = 0.0
    model.params["block0.conv.bias"].data[...] = 0.5
    x = Tensor(np.random.default_rng(1).uniform(0.0, 1.0, size=(2, 6, 6, 3)))
    assert _kink_margin(model, x) == 0.0

