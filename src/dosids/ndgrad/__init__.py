from .tensor import Tensor, as_tensor, no_grad
from .ops import (
    activation, avg_pool1d, batch_norm1d, conv1d, conv_transpose1d, dense,
    dropout, global_avg_pool1d, leaky_relu, lrn, max_pool1d, relu,
    RunningStats, sigmoid, softmax_cross_entropy, softmax_probs, tanh,
)
from .nn import (
    BatchNorm1d, CLIP_NORM, Conv1d, ConvTranspose1d, Dense, EVAL_BATCH, Module,
    SGD, clip_gradients, eval_rows, fit,
)
from .gradcheck import grad_check

__all__ = [
    "Tensor", "as_tensor", "no_grad",
    "activation", "avg_pool1d", "batch_norm1d", "conv1d", "conv_transpose1d",
    "dense", "dropout", "global_avg_pool1d", "leaky_relu", "lrn", "max_pool1d",
    "relu", "RunningStats", "sigmoid", "softmax_cross_entropy",
    "softmax_probs", "tanh",
    "BatchNorm1d", "Conv1d", "ConvTranspose1d", "Dense", "Module", "SGD",
    "CLIP_NORM", "EVAL_BATCH", "clip_gradients", "eval_rows", "fit",
    "grad_check",
]
