"""The gradient-check table: leg wiring and fault coverage."""

import numpy as np
import pytest

from fabnet.tensor import grad_check
from fabnet.verify import CHECKS, DEFAULT_TOLERANCE
from oracles import backward_fault


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("index, name", list(enumerate(name for name, _ in CHECKS)))
def test_every_leg_computes_the_same_value(index, name, seed):
    # Each leg fed its own operand reproduces the unperturbed function,
    # so a leaf wired into the wrong operand's place changes the value.
    legs = list(CHECKS[index][1](np.random.default_rng([seed, index])))
    values = [f(x).item() for f, x in legs]
    assert values == [values[0]] * len(legs)
    assert len({id(x) for _, x in legs}) == len(legs)


PER_OP_ROWS = ("ew_add", "ew_mul", "ew_mul_gate", "mean_spatial", "dense", "relu",
               "sigmoid", "sum_all", "conv2d", "maxpool2x2", "softmax_cross_entropy")


@pytest.mark.parametrize("name", PER_OP_ROWS)
def test_faulty_backward_rule_is_caught(name):
    index = [n for n, _ in CHECKS].index(name)
    # ew_mul_gate checks the gating branch of ew_mul's rule.
    with backward_fault({"ew_mul_gate": "ew_mul"}.get(name, name)):
        worst = max(grad_check(f, x) for f, x in
                    CHECKS[index][1](np.random.default_rng([0, index])))
    assert worst >= DEFAULT_TOLERANCE
