"""Hyperspectral image super-resolution with stochastic channel gating.

A from-scratch engine: a small reverse-mode autodiff core, a multi-stage
refinement network whose features pass through learnable Bernoulli channel
gates, a learned degradation layer enforcing consistency with the LR source,
Monte-Carlo inference with epistemic uncertainty maps, and the MPSNR /
MSSIM / SAM metric suite. numpy is the only runtime dependency.
"""

__version__ = "0.1.0"
