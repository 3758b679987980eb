"""Uncertainty quantifiers: named Schur-concave functions with declared algebra.

Every quantifier here is Schur-concave (monotone under random relabeling),
evaluates to zero on point masses, and carries machine-checkable flags:

``mixing_monotone``
    The exact concavity statement O(sum_i w_i p_i) >= sum_i w_i O(p_i).
    Shannon and Tsallis entropies have it; Renyi entropies only for
    order <= 1.  Min-entropy does NOT: mixing a point mass with the
    uniform pair gives H_inf(3/4, 1/4) = 0.415 < 0.5.

``tensor_additive``
    O(p (x) q) = O(p) + O(q).  Holds for the logarithmic family, fails
    for Tsallis.

``criterion_safe``
    Admitted by the detection-criteria engine.  Mixture-based separable
    and local-hidden-state arguments need the quantifier to turn a convex
    decomposition into an inequality and the per-measurement sum to
    dominate the tensor evaluation, which together hold for Shannon,
    min-entropy, Renyi of order in (0, 1), and Tsallis of order > 1
    (subadditive on tensor products).  Renyi of order > 1 is registered
    but refused by the engine, so it cannot produce unsound detections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter
from .probvec import ProbVec


def shannon(p: ProbVec) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    v = p.values[p.values > 0.0]
    return float(-np.sum(v * np.log2(v)))


def min_entropy(p: ProbVec) -> float:
    """Min-entropy in bits: -log2 of the largest entry."""
    return float(-np.log2(np.max(p.values)))


def renyi(p: ProbVec, alpha: float) -> float:
    """Renyi entropy of order ``alpha`` in bits, alpha > 0 and != 1.

    The power sum is factored by the largest entry so that large orders do
    not underflow; the limit alpha -> infinity recovers the min-entropy.
    """
    _check_alpha(alpha)
    v = p.values[p.values > 0.0]
    vmax = float(np.max(v))
    log_power_sum = alpha * np.log2(vmax) + np.log2(np.sum((v / vmax) ** alpha))
    return float(log_power_sum / (1.0 - alpha))


def tsallis(p: ProbVec, alpha: float) -> float:
    """Tsallis entropy of order ``alpha`` (dimensionless), alpha > 0 and != 1."""
    _check_alpha(alpha)
    v = p.values[p.values > 0.0]
    return float((1.0 - np.sum(v**alpha)) / (alpha - 1.0))


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise BadParameter(f"order must be positive and different from 1, got {alpha}")


@dataclass(frozen=True)
class Quantifier:
    """A named uncertainty quantifier with its algebraic property flags."""

    name: str
    fn: Callable[[ProbVec], float]
    mixing_monotone: bool
    tensor_additive: bool
    criterion_safe: bool
    parameter: float | None = None

    def __call__(self, p: ProbVec) -> float:
        return self.fn(p)


SHANNON = Quantifier("shannon", shannon, mixing_monotone=True,
                     tensor_additive=True, criterion_safe=True)

MIN_ENTROPY = Quantifier("min_entropy", min_entropy, mixing_monotone=False,
                         tensor_additive=True, criterion_safe=True)


def renyi_quantifier(alpha: float) -> Quantifier:
    _check_alpha(alpha)
    return Quantifier(
        f"renyi:{alpha:g}",
        lambda p, a=alpha: renyi(p, a),
        mixing_monotone=alpha < 1.0,
        tensor_additive=True,
        criterion_safe=alpha < 1.0,
        parameter=alpha,
    )


def tsallis_quantifier(alpha: float) -> Quantifier:
    _check_alpha(alpha)
    return Quantifier(
        f"tsallis:{alpha:g}",
        lambda p, a=alpha: tsallis(p, a),
        mixing_monotone=True,
        tensor_additive=False,
        criterion_safe=alpha > 1.0,
        parameter=alpha,
    )


def get_quantifier(name: str) -> Quantifier:
    """Resolve a quantifier by name string.

    Accepted forms: ``shannon``, ``min_entropy``, ``renyi:<alpha>``,
    ``tsallis:<alpha>``.
    """
    if name == "shannon":
        return SHANNON
    if name == "min_entropy":
        return MIN_ENTROPY
    if ":" in name:
        family, _, arg = name.partition(":")
        try:
            alpha = float(arg)
        except ValueError:
            raise BadParameter(f"cannot parse order {arg!r} in quantifier {name!r}") from None
        if family == "renyi":
            return renyi_quantifier(alpha)
        if family == "tsallis":
            return tsallis_quantifier(alpha)
    raise BadParameter(
        f"unknown quantifier {name!r}; expected shannon, min_entropy, "
        "renyi:<alpha> or tsallis:<alpha>"
    )


def default_quantifiers() -> tuple[Quantifier, ...]:
    """The built-in set exercised by the property suites."""
    return (
        SHANNON,
        MIN_ENTROPY,
        renyi_quantifier(0.5),
        renyi_quantifier(2.0),
        tsallis_quantifier(0.5),
        tsallis_quantifier(2.0),
    )
