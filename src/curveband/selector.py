"""Cross-validated choice among candidate estimators via one data split.

Curves are split in half at random; each basis family pools the first
half once, and every candidate (family, rule, level multiplier, alpha) is
fit from its family's pool and scored by the held-out empirical risk on
the second half.  The winner is the argmin, ties broken by candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import check_rule, fit, per_curve_coeffs, pool, pooled_stats
from .grid_basis import basis_for, check_family, check_open, check_seed
from .process_sim import CurvePanel

__all__ = ["CandidateSpec", "SelectionResult", "split_panel", "select"]


@dataclass(frozen=True)
class CandidateSpec:
    basis_family: str
    rule: str  # one of estimator.RULES
    multiplier: float = 1
    alpha: float = 0.05

    def __post_init__(self):
        check_family(self.basis_family, "basis_family")
        check_rule(self.rule, self.multiplier)
        check_open(self.alpha, "alpha", 0, 1)
        if self.rule == "least_squares" and self.alpha != CandidateSpec.alpha:
            raise ValueError("alpha would be ignored: least_squares has no threshold level")

    def label(self) -> str:
        if self.rule == "least_squares":
            return f"{self.basis_family}-ls"
        tag = "ht" if self.rule == "hard" else "st"
        return f"{self.basis_family}-{tag}{int(self.multiplier)}r-a{self.alpha:g}"


@dataclass(frozen=True, eq=False)
class SelectionResult:
    winner: CandidateSpec
    winner_index: int
    risks: np.ndarray
    fitted_values: np.ndarray
    split_seed: int
    i1_indices: np.ndarray
    i2_indices: np.ndarray


def split_panel(panel: CurvePanel, seed: int):
    """Random half split; with odd n the fitting half gets the extra curve."""
    check_seed(seed, "seed")
    n = panel.n
    if n < 4:
        raise ValueError(f"split needs n >= 4 so both halves can hold >= 2 curves, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n1 = (n + 1) // 2
    return np.sort(perm[:n1]), np.sort(perm[n1:])


def select(panel: CurvePanel, candidates, seed: int) -> SelectionResult:
    """Fit every candidate on one half, pick the held-out risk minimizer."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list is empty")
    i1, i2 = split_panel(panel, seed)
    fitting_half = CurvePanel(panel.Y[i1])
    pooled = {}
    for family in dict.fromkeys(cand.basis_family for cand in candidates):
        basis = basis_for(family, panel.grid)
        pooled[family] = basis, pool(per_curve_coeffs(fitting_half, basis))
    fits = []
    for cand in candidates:
        basis, p = pooled[cand.basis_family]
        fits.append(fit(cand.rule, pooled_stats(p, cand.alpha), basis, cand.multiplier).values)
    held_out = panel.Y[i2]
    risks = np.array([np.mean((held_out - g) ** 2) for g in fits])
    winner_index = int(np.argmin(risks))
    return SelectionResult(
        winner=candidates[winner_index],
        winner_index=winner_index,
        risks=risks,
        fitted_values=fits[winner_index],
        split_seed=int(seed),
        i1_indices=i1,
        i2_indices=i2,
    )
