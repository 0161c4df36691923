"""The evolution metric: the Wasserstein lifting of a hemimetric on data
states between sampled distributions, and the discounted supremum over
observation times.

The ground hemimetric is ``max(rho(d2) - rho(d1), 0)`` for a penalty
``rho``.  The pointwise estimator sorts the penalty samples of both sides
and averages ``max(nu_h - omega_ceil(h/l), 0)``; with N and l*N samples
this converges to the Wasserstein lifting of that hemimetric, and runs in
O(lN log lN).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataspace import PenaltyFunction
from .engine import Configuration, _check_count, estimate_penalties, write_csv
from .errors import PreconditionError, StructuralError
from .rng import RandomStream

__all__ = [
    "ObservationTimes",
    "DiscountFunction",
    "constant_discount",
    "exponential_discount",
    "MetricReport",
    "compute_w_sorted",
    "distance",
    "suffix_maxima",
]


@dataclass(frozen=True)
class ObservationTimes:
    """Finite ascending set of time steps at which distributions are compared."""

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise PreconditionError("observation times must be non-empty")
        for t in self.steps:
            _check_count("observation time", t, 0)
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise PreconditionError("observation times must be strictly ascending")
        object.__setattr__(self, "steps", tuple(map(operator.index, self.steps)))

    @classmethod
    def range(cls, last: int, first: int = 0, stride: int = 1) -> "ObservationTimes":
        if stride < 1:
            raise PreconditionError(f"observation stride must be >= 1, got {stride}")
        return cls(tuple(range(first, last + 1, stride)))

    @classmethod
    def parse(cls, text: str) -> "ObservationTimes":
        """Parse '0..150', '0..150..5' (start..last..stride) or '0,10,20'."""
        text = text.strip()
        try:
            if ".." not in text:
                return cls(tuple(int(t) for t in text.split(",")))
            first, last, *stride = (int(t) for t in text.split(".."))
            if len(stride) <= 1:
                return cls.range(last, first, *stride)
        except ValueError:
            pass
        raise PreconditionError(f"cannot parse observation times {text!r}")

    def __str__(self) -> str:
        """The text ``parse`` reads back to the same steps: ``a..b`` for
        stride 1, ``a..b..s`` for an even stride s, else a comma list."""
        steps = self.steps
        gaps = {b - a for a, b in zip(steps, steps[1:])}
        if len(gaps) != 1:
            return ",".join(map(str, steps))
        stride = gaps.pop()
        return f"{steps[0]}..{steps[-1]}" + (f"..{stride}" if stride > 1 else "")

    @property
    def horizon(self) -> int:
        return self.steps[-1]

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


class DiscountFunction:
    """Non-increasing weight in (0, 1] attenuating late observation times."""

    id = "discount"

    def __call__(self, step: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDiscount(DiscountFunction):
    value: float = 1.0
    id: str = "1"

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise PreconditionError("discount value must be in (0, 1]")

    def __call__(self, step: int) -> float:
        return self.value


@dataclass(frozen=True)
class ExponentialDiscount(DiscountFunction):
    """lambda(tau) = gamma^tau for gamma in (0, 1]."""

    gamma: float
    id: str = ""

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise PreconditionError("discount base must be in (0, 1]")
        if not self.id:
            object.__setattr__(self, "id", f"exp:{self.gamma:g}")

    def __call__(self, step: int) -> float:
        return self.gamma**step


def constant_discount(value: float = 1.0) -> DiscountFunction:
    return ConstantDiscount(value)


def exponential_discount(gamma: float) -> DiscountFunction:
    return ExponentialDiscount(gamma)


# ---------------------------------------------------------------------------
# Pointwise Wasserstein estimator
# ---------------------------------------------------------------------------


# columns folded together by the batched estimator: a chunk's sorted copies
# stay cache-sized (on (100, 10 001) and (1000, 10 001) blocks, 32 columns
# folded in 0.11 s, 128 in 0.13 s and 512 in 0.15 s), and the per-call
# overhead is still shared by many columns
_W_CHUNK = 32


def compute_w_sorted(omega: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Estimator on raw penalty samples, one estimate per column.

    ``omega`` is an (N, m) block of the first side's samples and ``nu`` an
    (l*N, m) block of the second's; the result is the array of the m
    estimates, column j equal bit for bit to the call on column j alone.
    """
    n = omega.shape[0]
    ln = nu.shape[0]
    if n == 0 or ln % n != 0:
        raise StructuralError(
            f"second sample count {ln} must be a positive multiple of the first {n}"
        )
    if omega.ndim != 2 or nu.ndim != 2 or omega.shape[1] != nu.shape[1]:
        raise StructuralError(
            f"sample blocks of shapes {omega.shape} and {nu.shape} are not (N, m) and (l*N, m)"
        )
    ell = ln // n
    out = np.empty(omega.shape[1])
    for lo in range(0, len(out), _W_CHUNK):
        # one row per column, sorted in place in a copy, so the input is
        # never modified; a plain contiguous copy of the step-major blocks
        # estimate_penalties returns, a transposing one of a C-ordered block
        om = omega[:, lo:lo + _W_CHUNK].T.copy(order="C")
        nv = nu[:, lo:lo + _W_CHUNK].T.copy(order="C")
        om.sort(axis=1)
        nv.sort(axis=1)
        # run i of the second side is paired with sample i // ell of the first
        pairs = nv.reshape(len(nv), n, ell)
        np.subtract(pairs, om[:, :, None], out=pairs)
        out[lo:lo + _W_CHUNK] = np.maximum(nv, 0.0, out=nv).mean(axis=1)
    return out


# ---------------------------------------------------------------------------
# The evolution metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """Pointwise Wasserstein curve over the observation times plus its
    discounted supremum."""

    obs_times: tuple
    pointwise: tuple  # W_tau per observation time
    discounted: tuple  # lambda(tau) * W_tau
    value: float  # max of discounted
    argmax: int  # observation time attaining the max
    params: dict

    def to_json_dict(self) -> dict:
        return {
            "obs_times": list(self.obs_times),
            "pointwise": list(self.pointwise),
            "discounted": list(self.discounted),
            "value": self.value,
            "argmax": self.argmax,
            "params": self.params,
        }

    def to_csv(self, path, meta: dict | None = None) -> None:
        write_csv(path, {**self.params, **(meta or {})}, ["tau", "w", "discounted_w"],
                  zip(self.obs_times, self.pointwise, self.discounted))


def report_from_pointwise(
    obs: ObservationTimes,
    pointwise: Sequence[float],
    discount: DiscountFunction,
    params: dict,
) -> MetricReport:
    discounted = [discount(t) * w for t, w in zip(obs, pointwise)]
    best = max(range(len(discounted)), key=lambda i: (discounted[i], -i))
    return MetricReport(
        obs_times=tuple(obs),
        pointwise=tuple(float(w) for w in pointwise),
        discounted=tuple(float(d) for d in discounted),
        value=float(discounted[best]),
        argmax=obs.steps[best],
        params=params,
    )


def distance(
    c1: Configuration,
    c2: Configuration,
    rho: PenaltyFunction,
    discount: DiscountFunction,
    obs: ObservationTimes,
    N: int,
    ell: int,
    seed,
    threads: int = 1,
    use_fast_path: bool = True,
) -> MetricReport:
    """Estimated evolution metric from c1 to c2.

    Simulates N runs of c1 and l*N runs of c2, computes the pointwise
    Wasserstein estimate at every observation time, and folds the discounted
    maximum.  ``seed`` is either one master seed, from which two independent
    lineages are derived, or an explicit (seed1, seed2) pair; passing the
    same seed twice makes both sides sample identical runs (so the distance
    of a configuration to itself is exactly zero when l = 1).
    """
    _check_scale(ell)
    if c1.space != c2.space:
        raise StructuralError("configurations use different data spaces")
    if isinstance(seed, tuple):
        stream1, stream2 = (RandomStream.resolve(s) for s in seed)
        seed_keys = [list(stream1.key), list(stream2.key)]
    else:
        base = RandomStream.resolve(seed)
        stream1, stream2 = base.child(0), base.child(1)
        seed_keys = [list(base.key)]
    k = obs.horizon
    pen1 = estimate_penalties(
        c1, k, N, stream1, [rho], list(obs), threads, use_fast_path
    )[0]
    pen2 = estimate_penalties(
        c2, k, N * ell, stream2, [rho], list(obs), threads, use_fast_path
    )[0]
    pointwise = compute_w_sorted(pen1, pen2).tolist()
    params = {
        "penalty": rho.id,
        "discount": discount.id,
        "N": N,
        "l": ell,
        "seed_key": seed_keys,
        "obs": str(obs),
    }
    return report_from_pointwise(obs, pointwise, discount, params)


def _check_scale(ell) -> None:
    try:
        positive = operator.index(ell) >= 1
    except TypeError:
        positive = False
    if not positive:
        raise PreconditionError(f"scale factor must be a positive integer, got {ell}")


def suffix_maxima(discounted: Sequence[float]) -> list[float]:
    """Running maxima from the right: out[j] = max(discounted[j:])."""
    out = list(discounted)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i], out[i + 1])
    return out
