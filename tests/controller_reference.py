"""The scalar the controller ascends, for finite-difference checks of its gradient."""

import math

from fliqs.controller import policy_entropy


def objective(policies, indices, advantage: float, beta: float) -> float:
    """sum over layers of advantage * log p(sampled) - beta * entropy(p)."""
    total = 0.0
    for policy, idx in zip(policies, indices):
        p = policy.probs()
        total += advantage * math.log(p[idx])
        total -= beta * policy_entropy(p)
    return float(total)
