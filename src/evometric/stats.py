"""Standard-error analysis of empirical evolution sequences.

For each tracked variable and time step: the sample mean, the standard
deviation with N-1 normalisation, the standard error of the mean
(std / sqrt(N)), and the z-score of the mean against a reference mean.  The
reference is normally a higher-N run of the same configuration, since the
true mean is not available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import EmpiricalEvolutionSequence, write_csv
from .errors import PreconditionError, StructuralError

__all__ = ["ErrorReport", "error_analysis", "reference_means"]


@dataclass(frozen=True)
class ErrorReport:
    """Per (variable, step) statistics; z is NaN where the stderr is zero."""

    variables: tuple
    steps: tuple
    mean: np.ndarray  # (len(variables), len(steps))
    std: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    reference_tag: str

    def row(self, variable: str, step: int) -> dict:
        i = self.variables.index(variable)
        j = self.steps.index(step)
        return {
            "mean": float(self.mean[i, j]),
            "std": float(self.std[i, j]),
            "stderr": float(self.stderr[i, j]),
            "z": float(self.z[i, j]),
        }

    def z_within(self, bound: float) -> dict:
        """Fraction of steps with |z| <= bound, per variable (NaN z counts as inside)."""
        out = {}
        for i, name in enumerate(self.variables):
            zi = self.z[i]
            ok = np.isnan(zi) | (np.abs(zi) <= bound)
            out[name] = float(ok.mean())
        return out

    def to_csv(self, path, meta: dict | None = None) -> None:
        """One row per (variable, step); the z cell is empty where z is NaN."""
        rows = ([name, step, self.mean[i, j], self.std[i, j], self.stderr[i, j],
                 "" if math.isnan(self.z[i, j]) else self.z[i, j]]
                for i, name in enumerate(self.variables)
                for j, step in enumerate(self.steps))
        write_csv(path, {"reference": self.reference_tag, **(meta or {})},
                  ["variable", "step", "mean", "std", "stderr", "z"], rows)


def reference_means(E: EmpiricalEvolutionSequence, variables: Sequence[str]) -> dict:
    """Per-variable per-step means of a (usually high-N) baseline run."""
    mean, _ = E.mean_std()
    return {
        name: mean[:, E.space.index(name)].copy() for name in variables
    }


def error_analysis(
    E: EmpiricalEvolutionSequence,
    variables: Sequence[str],
    reference: Mapping[str, Sequence[float]],
    reference_tag: str = "user-supplied",
) -> ErrorReport:
    """Mean, std (N-1), standard error, and z-score against a reference mean."""
    if E.runs < 2:
        raise PreconditionError("error analysis needs at least 2 runs")
    steps = tuple(range(E.horizon + 1))
    nv = len(variables)
    mean = np.empty((nv, len(steps)))
    std = np.empty_like(mean)
    stderr = np.empty_like(mean)
    z = np.empty_like(mean)
    sqrt_n = math.sqrt(E.runs)
    for i, name in enumerate(variables):
        col = E.space.index(name)
        samples = E.states[:, :, col]  # (N, k+1)
        ref = np.asarray(reference[name], dtype=np.float64)
        if ref.shape[0] != len(steps):
            raise StructuralError(
                f"reference for {name!r} has {ref.shape[0]} steps, expected {len(steps)}"
            )
        mean[i] = samples.mean(axis=0)
        std[i] = samples.std(axis=0, ddof=1)
        stderr[i] = std[i] / sqrt_n
        with np.errstate(divide="ignore", invalid="ignore"):
            z[i] = np.where(stderr[i] > 0, (mean[i] - ref) / stderr[i], np.nan)
    return ErrorReport(tuple(variables), steps, mean, std, stderr, z, reference_tag)
