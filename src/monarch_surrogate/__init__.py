"""Monarch-structured surrogate attention and FFN blocks.

Provides a numpy-backed autograd tape, order-2 Monarch matrices with an
O(n^{3/2}) factored apply, softmax-free surrogate attention/FFN blocks,
dense baselines, executable correctness checks, and cost benchmarking.
"""

from .bench import ModelConfig, count_muladds, count_params, efficiency_ratios
from .blocks import (
    EnhancedLayerParams,
    SurrogateAttentionParams,
    SurrogateFFNParams,
    enhanced_layer_forward,
    surrogate_attention_forward,
    surrogate_ffn_forward,
)
from .errors import ConfigurationError, ContractError, DimensionError
from .structured import (
    MonarchMatrix,
    flop_meter,
    monarch_apply,
    monarch_new,
    monarch_to_dense,
    pad_to_square,
    permutation_spec,
)
from .tensor import Tape, Tensor, tape_scope
from .verification import VerifyConfig, run_all

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractError",
    "DimensionError",
    "EnhancedLayerParams",
    "ModelConfig",
    "MonarchMatrix",
    "SurrogateAttentionParams",
    "SurrogateFFNParams",
    "Tape",
    "Tensor",
    "VerifyConfig",
    "count_muladds",
    "count_params",
    "efficiency_ratios",
    "enhanced_layer_forward",
    "flop_meter",
    "monarch_apply",
    "monarch_new",
    "monarch_to_dense",
    "pad_to_square",
    "permutation_spec",
    "run_all",
    "surrogate_attention_forward",
    "surrogate_ffn_forward",
    "tape_scope",
]
