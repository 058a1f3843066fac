"""A small attention-augmented CNN framework, trainable at desk scale."""

from .attention import FabActivations, FabParams, fab_forward, fab_gate_stats, fab_init
from .errors import (ConfigError, DivergenceError, FabnetError, FormatError,
                     GraphError, ImageFormatError, ManifestError, ShapeError,
                     SplitError)
from .model import (ConvBlockSpec, Model, ModelConfig, build_model, conv2d,
                    load_checkpoint, maxpool2x2, model_forward, save_checkpoint,
                    trainable_parameters)
from .tensor import (Shape4, Tape, Tensor, backward, dense, ew_add, ew_mul,
                     grad_check, mean_spatial, relu, sigmoid, sum_all,
                     tensor_new)
from .training import (AdamState, EpochCurve, MetricsReport, SplitData,
                       TrainConfig, ablation_run, adam_step, evaluate,
                       softmax_cross_entropy, train)

__version__ = "0.1.0"
