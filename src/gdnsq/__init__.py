"""Desk-scale quantization-aware training with gradual differentiable
noise-scale quantization: learnable scale and clamp bounds, straight-through
noise probes, exterior-point bit-width constraints and Jeffreys-divergence
distillation, plus an oracle suite that verifies the underlying math."""

__version__ = "0.1.0"

from .data import Dataset, make_synthetic, read_idx
from .losses import jeffreys, kl, teacher_probs, total_loss
from .models import Model, ModelSpec, make_model_spec, train_teacher
from .optim import RAdam
from .pipeline import RunConfig, audit_bitwidth, ptq_minmax, qat_run
from .quantizer import FakeQuantizer, integer_fuse
from .tensor import Tensor, backward, no_grad, reset_tape

__all__ = [
    "Dataset", "FakeQuantizer", "Model", "ModelSpec", "RAdam", "RunConfig",
    "Tensor", "audit_bitwidth", "backward", "integer_fuse", "jeffreys", "kl",
    "make_model_spec", "make_synthetic", "no_grad", "ptq_minmax", "qat_run",
    "read_idx", "reset_tape", "teacher_probs", "total_loss", "train_teacher",
    "__version__",
]
