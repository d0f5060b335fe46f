"""Desk-scale quantization-aware training with gradual differentiable
noise-scale quantization: learnable scale and clamp bounds, straight-through
noise probes, exterior-point bit-width constraints and Jeffreys-divergence
distillation, plus an oracle suite that verifies the underlying math.

The supported interface is the ``gdnsq`` command (``gdnsq.cli``) and the
submodules; the package itself exports nothing but ``__version__``."""

__version__ = "0.1.0"
