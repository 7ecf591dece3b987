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
    "sample_soft",
    "sample_hard",
    "mask_for",
]

MODES = ("warmup", "train", "sample", "expect")

# Uniform draws are clipped into this range before the logistic transform so
# log(u) and log(1-u) stay finite.
_U_LO = 1e-12
_U_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class GateParams:
    """One logit per gated channel plus the relaxation temperature, which
    a net's gates take from its frozen `NetConfig`."""

    logits: Param
    tau: float

    @property
    def channels(self) -> int:
        return self.logits.data.shape[0]


def sample_soft(gate: GateParams, rng: np.random.Generator, graph: Graph = None) -> Tensor:
    """Relaxed mask: sigmoid((logit + log u - log(1-u)) / tau), u ~ U(0,1).

    Differentiable w.r.t. the logits through the pathwise estimator when a
    graph is supplied. Mathematically the output lies strictly inside (0,1);
    in float32 extreme logits can round to exactly 0 or 1.
    """
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


def mask_for(gate: GateParams, mode: str, rng: np.random.Generator = None,
             graph: Graph = None) -> Tensor:
    """Mode dispatch used by the network: warmup|train|sample|expect; the
    two sampling modes need a numpy Generator. "warmup" gives the all-open
    mask and consumes no randomness; "expect" gives the per-channel keep
    probabilities, the mean of the hard-mask distribution."""
    if mode in ("train", "sample") and not isinstance(rng, np.random.Generator):
        raise ParameterError(f"{mode} mode needs a numpy Generator, got {type(rng).__name__}")
    if mode == "warmup":
        return Tensor(np.ones(gate.channels, dtype=gate.logits.data.dtype))
    if mode == "train":
        return sample_soft(gate, rng, graph)
    if mode == "sample":
        return sample_hard(gate, rng)
    if mode == "expect":
        return Tensor(_probs(gate).astype(gate.logits.data.dtype))
    raise ParameterError(f"unknown gate mode {mode!r}; expected one of {MODES}")


def _probs(gate: GateParams) -> np.ndarray:
    return _sigmoid_stable(gate.logits.data.astype(np.float64))
