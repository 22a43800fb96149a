"""REINFORCE controller over per-layer categorical format policies.

Each searchable layer owns a softmax policy over its option set.  During
warmup the controller samples uniformly and only tracks reward statistics;
afterwards it ascends

    A * sum_l log pi_l(alpha_l)  -  beta_H * H_M

where A = r - r_bar is the advantage against a running-average baseline and
H_M is the summed policy entropy.  The entropy penalty, ramped by a cosine
schedule from 0 to beta_end, sharpens the policies late in the search so the
final argmax architecture is the one the network was just trained under.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arch import ArchChoice
from .errors import DomainError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; invariant to adding a constant."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z)
    e = np.exp(z)
    return e / np.sum(e)


def policy_entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats with the 0 * log 0 = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def beta_schedule(progress: float, beta_end: float, kind: str = "cosine") -> float:
    """Entropy penalty weight at search progress s in [0, 1].

    The cosine ramp -0.5 * beta_end * (1 + cos(pi s)) + beta_end starts at
    exactly 0, ends at exactly beta_end, and crosses beta_end / 2 at s = 0.5.
    Out-of-range progress is clamped with a warning.
    """
    if beta_end < 0:
        raise DomainError(f"beta_end must be nonnegative, got {beta_end}")
    if not 0.0 <= progress <= 1.0:
        warnings.warn(f"schedule progress {progress} outside [0, 1], clamping", stacklevel=2)
        progress = min(max(progress, 0.0), 1.0)
    if kind == "constant":
        return float(beta_end)
    if kind == "cosine":
        # cos(pi*s) written as -sin(pi*(s - 0.5)) so the anchor points
        # s in {0, 0.5, 1} evaluate exactly to {0, beta_end/2, beta_end}
        c = -math.sin(math.pi * (progress - 0.5))
        return float(-0.5 * beta_end * (1.0 + c) + beta_end)
    raise DomainError(f"unknown schedule kind {kind!r}")


@dataclass
class LayerPolicy:
    """A categorical policy over one layer's architecture options."""

    layer_name: str
    option_set: list[ArchChoice]
    logits: np.ndarray = None

    def __post_init__(self):
        if not self.option_set:
            raise DomainError(f"layer {self.layer_name!r}: empty option set")
        if self.logits is None:
            self.logits = np.zeros(len(self.option_set), dtype=np.float64)
        else:
            self.logits = np.asarray(self.logits, dtype=np.float64)
            if self.logits.shape != (len(self.option_set),):
                raise DomainError(
                    f"layer {self.layer_name!r}: logits shape {self.logits.shape} "
                    f"does not match {len(self.option_set)} options"
                )

    def probs(self) -> np.ndarray:
        return softmax(self.logits)

    def argmax(self) -> int:
        return int(np.argmax(self.probs()))


@dataclass
class AdamParams:
    lr: float = 4.6e-3
    beta1: float = 0.95
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class ControllerState:
    """Policies plus optimizer and baseline state for one search."""

    policies: list[LayerPolicy]
    warmup_fraction: float = 0.25
    reward_ema_decay: float = 0.9
    adam: AdamParams = field(default_factory=AdamParams)
    optimizer: str = "adam"
    # running state
    reward_baseline: float | None = None
    step_count: int = 0
    _m: list[np.ndarray] = field(default_factory=list)
    _v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise DomainError(f"warmup fraction must be in [0, 1), got {self.warmup_fraction}")
        if not 0.0 <= self.reward_ema_decay < 1.0:
            raise DomainError(f"EMA decay must be in [0, 1), got {self.reward_ema_decay}")
        if self.optimizer not in ("adam", "sgd"):
            raise DomainError(f"unknown optimizer {self.optimizer!r}")
        if not self._m:
            self._m = [np.zeros_like(p.logits) for p in self.policies]
            self._v = [np.zeros_like(p.logits) for p in self.policies]

    def probs(self) -> list[np.ndarray]:
        return [p.probs() for p in self.policies]

    def argmax_arch(self) -> list[ArchChoice]:
        return [p.option_set[p.argmax()] for p in self.policies]


def make_controller(layer_names, option_sets, **kwargs) -> ControllerState:
    policies = [
        LayerPolicy(name, list(opts)) for name, opts in zip(layer_names, option_sets)
    ]
    return ControllerState(policies=policies, **kwargs)


def sample_architecture(state: ControllerState, rng: np.random.Generator,
                        progress: float) -> list[int]:
    """Sample one option index per layer.

    Uniform during warmup (progress < warmup_fraction), categorical from the
    current softmax afterwards.  Consumes one draw per layer from rng either
    way, so a run's random stream is reproducible from its seed.
    """
    indices = []
    warm = progress < state.warmup_fraction
    for policy in state.policies:
        k = len(policy.option_set)
        u = rng.random()
        if warm:
            indices.append(min(int(u * k), k - 1))
        else:
            cdf = np.cumsum(policy.probs())
            indices.append(int(np.searchsorted(cdf, u, side="right").clip(0, k - 1)))
    return indices


def arch_from_indices(state: ControllerState, indices) -> list[ArchChoice]:
    return [p.option_set[i] for p, i in zip(state.policies, indices)]


def advantage_update(state: ControllerState, r: float) -> float:
    """Advantage of reward r against the running baseline, then update it.

    The baseline initializes to the first observed reward (first advantage
    is 0) and thereafter decays as an EMA.
    """
    if not np.isfinite(r):
        raise DomainError(f"reward must be finite, got {r}")
    if state.reward_baseline is None:
        state.reward_baseline = float(r)
        return 0.0
    adv = float(r) - state.reward_baseline
    d = state.reward_ema_decay
    state.reward_baseline = d * state.reward_baseline + (1.0 - d) * float(r)
    return adv


def model_entropy(state: ControllerState) -> float:
    """H_M: sum of per-layer policy entropies."""
    return float(sum(policy_entropy(p.probs()) for p in state.policies))


def policy_gradient(policies: list[LayerPolicy], indices, advantage: float,
                    beta: float) -> list[np.ndarray]:
    """Ascent gradient of A * sum_l log pi_l(alpha_l) - beta * H_M.

    Per layer, d/dtheta_j of the log-prob term is A * (1[j = alpha] - pi_j);
    the entropy penalty contributes +beta * pi_j * (log pi_j + H(pi)).
    """
    grads = []
    for policy, idx in zip(policies, indices):
        p = policy.probs()
        k = len(p)
        if not 0 <= idx < k:
            raise DomainError(
                f"layer {policy.layer_name!r}: sampled index {idx} out of range"
            )
        onehot = np.zeros(k, dtype=np.float64)
        onehot[idx] = 1.0
        g = advantage * (onehot - p)
        if beta != 0.0:
            with np.errstate(divide="ignore"):
                logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), 0.0)
            h = policy_entropy(p)
            g = g + beta * p * (logp + h)
        grads.append(g)
    return grads


def reinforce_step(state: ControllerState, indices, advantage: float,
                   beta: float) -> None:
    """Apply one policy-gradient ascent step through the configured optimizer."""
    grads = policy_gradient(state.policies, indices, advantage, beta)
    if state.optimizer == "sgd":
        for policy, g in zip(state.policies, grads):
            policy.logits += state.adam.lr * g
        state.step_count += 1
        return
    a = state.adam
    state.step_count += 1
    t = state.step_count
    for i, (policy, g) in enumerate(zip(state.policies, grads)):
        state._m[i] = a.beta1 * state._m[i] + (1.0 - a.beta1) * g
        state._v[i] = a.beta2 * state._v[i] + (1.0 - a.beta2) * g * g
        m_hat = state._m[i] / (1.0 - a.beta1**t)
        v_hat = state._v[i] / (1.0 - a.beta2**t)
        policy.logits += a.lr * m_hat / (np.sqrt(v_hat) + a.eps)
