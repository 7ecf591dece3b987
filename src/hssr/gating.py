"""Learnable per-channel Bernoulli gates.

Each gated site keeps one logit per channel; sigmoid(logit) is that
channel's keep probability. Training uses the binary Concrete relaxation
(logistic noise, temperature tau) so the keep decision stays differentiable;
inference draws hard 0/1 masks; warm-up forces every gate open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tensor import Graph, Param, Tensor, _sigmoid_stable, add, scale, sigmoid

__all__ = [
    "MODES",
    "GateParams",
    "init_gate",
    "sample_soft",
    "sample_hard",
    "expectation",
    "warmup_mask",
    "mask_for",
]

MODES = ("warmup", "train", "sample", "expect")

# Uniform draws are clipped into this range before the logistic transform so
# log(u) and log(1-u) stay finite.
_U_LO = 1e-12
_U_HI = 1.0 - 1e-12


@dataclass
class GateParams:
    """One logit per gated channel plus the relaxation temperature."""

    logits: Param
    tau: float

    @property
    def channels(self) -> int:
        return self.logits.data.shape[0]


def init_gate(name: str, channels: int, keep_prob: float, tau: float) -> GateParams:
    """Float32 gate whose channels all start at the given keep probability."""
    if channels < 1:
        raise ParameterError(f"gate needs at least one channel, got {channels}")
    if not 0.0 < keep_prob < 1.0:
        raise ParameterError(f"keep probability must be in (0,1), got {keep_prob}")
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logit = float(np.log(keep_prob / (1.0 - keep_prob)))
    return GateParams(Param(name, np.full(channels, logit, dtype=np.float32)), tau=tau)


def sample_soft(gate: GateParams, rng: np.random.Generator, graph: Graph = None) -> Tensor:
    """Relaxed mask: sigmoid((logit + log u - log(1-u)) / tau), u ~ U(0,1).

    Differentiable w.r.t. the logits through the pathwise estimator when a
    graph is supplied. Mathematically the output lies strictly inside (0,1);
    in float32 extreme logits can round to exactly 0 or 1.
    """
    if gate.tau <= 0:
        raise ParameterError(f"temperature must be positive, got {gate.tau}")
    dtype = gate.logits.data.dtype
    u = np.clip(rng.random(gate.channels), _U_LO, _U_HI)
    noise = (np.log(u) - np.log1p(-u)).astype(dtype)
    logits = graph.leaf_for(gate.logits) if graph is not None else Tensor(gate.logits.data)
    return sigmoid(scale(add(logits, Tensor(noise)), 1.0 / gate.tau))


def sample_hard(gate: GateParams, rng: np.random.Generator) -> Tensor:
    """Discrete mask: each channel independently 1 with probability sigmoid(logit)."""
    p = _probs(gate)
    u = rng.random(gate.channels)
    return Tensor((u < p).astype(gate.logits.data.dtype))


def expectation(gate: GateParams) -> Tensor:
    """Per-channel keep probabilities (the mean of the hard-mask distribution)."""
    return Tensor(_probs(gate).astype(gate.logits.data.dtype))


def warmup_mask(gate: GateParams) -> Tensor:
    """All-open mask; ignores logits and consumes no randomness."""
    return Tensor(np.ones(gate.channels, dtype=gate.logits.data.dtype))


def mask_for(gate: GateParams, mode: str, rng: np.random.Generator = None,
             graph: Graph = None) -> Tensor:
    """Mode dispatch used by the network: warmup|train|sample|expect; the
    two sampling modes need a numpy Generator."""
    if mode in ("train", "sample") and not isinstance(rng, np.random.Generator):
        raise ParameterError(f"{mode} mode needs a numpy Generator, got {type(rng).__name__}")
    if mode == "warmup":
        return warmup_mask(gate)
    if mode == "train":
        return sample_soft(gate, rng, graph)
    if mode == "sample":
        return sample_hard(gate, rng)
    if mode == "expect":
        return expectation(gate)
    raise ParameterError(f"unknown gate mode {mode!r}; expected one of {MODES}")


def _probs(gate: GateParams) -> np.ndarray:
    return _sigmoid_stable(gate.logits.data.astype(np.float64))
