"""Sampling-based estimation of robustness, adaptability, and reliability.

All three properties ask the same question: if the initial data state is
perturbed within a bound eta1 (measured with a perturbation penalty rho),
does the system's observable behaviour stay within a tolerance eta2
(measured with a target penalty rho')?  The estimator samples M admissible
perturbations, runs each perturbed configuration against the base one, and
reports, for every threshold tau in the observation times, the maximal
suffix distance

    xi_tau = max_i  m^lambda_{rho', {t in OT | t >= tau}}(base, variation_i).

Each xi_tau is a lower-bound certificate for eta2 at M samples, never a
proof.  Robustness filters candidates by the evolution metric over OT
intersected with an interval I; adaptability filters by the data-state
hemimetric at step 0; reliability is adaptability read at the first
observation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataspace import DataState, PenaltyFunction
from .engine import Configuration, _check_count, _check_counts, estimate_penalties, write_csv
from .errors import PreconditionError, ShortfallError
from .metric import (
    ConstantDiscount,
    DiscountFunction,
    ObservationTimes,
    _W_CHUNK,
    _check_scale,
    compute_w_sorted,
    suffix_maxima,
)
from .rng import RandomStream

# a base estimate of fewer runs is simulated in the blocks of the first
# candidate's estimate; a larger base adds enough rows to cost time and
# memory of its own
_SHARED_BASE_RUNS = 256

__all__ = [
    "PerturbationSampler",
    "UniformResampler",
    "RobustnessSpec",
    "RobustnessReport",
    "estimate_robustness",
    "estimate_adaptability",
    "estimate_reliability",
]


class PerturbationSampler:
    """Draws candidate variations of a base data state; candidates are
    clamped into the data space by construction."""

    id = "sampler"

    def sample(self, base: DataState, rng: RandomStream) -> DataState:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformResampler(PerturbationSampler):
    """Resample a subset of variables uniformly within their domains.

    ``variables`` is None for "all variables"; finite-set variables draw
    uniformly among their admissible values.  This is the default variation
    mechanism; the acceptance rate in reports makes its interplay with the
    penalty filter auditable.
    """

    variables: tuple | None = None
    id: str = ""

    def __post_init__(self):
        if not self.id:
            subset = ",".join(self.variables) if self.variables is not None else "*"
            object.__setattr__(self, "id", f"uniform[{subset}]")

    def sample(self, base, rng):
        names = self.variables if self.variables is not None else base.space.names
        writes = []
        for name in names:
            spec = base.space.vars[base.space.index(name)]
            if spec.is_finite:
                writes.append((name, spec.values[rng.uniform_int(0, len(spec.values) - 1)]))
            else:
                writes.append((name, rng.uniform(spec.lower, spec.upper)))
        return base.update(writes)


@dataclass(frozen=True)
class RobustnessSpec:
    """Parameters of one robustness question.

    ``rho`` filters perturbations, ``rho_target`` measures the long-run
    divergence, ``interval`` is the (inclusive) filter window for the
    evolution-metric filter, ``tau_tilde`` the observation threshold for the
    verdict, ``eta1`` the perturbation bound, ``eta2`` the tolerance, and
    ``M`` the number of accepted variations.
    """

    rho: PenaltyFunction
    rho_target: PenaltyFunction
    interval: tuple  # (lo, hi) inclusive
    tau_tilde: int
    eta1: float
    eta2: float
    M: int
    filter_mode: str = "evolution"  # "evolution" | "initial"

    def __post_init__(self):
        if not (0.0 <= self.eta1 < 1.0) or not (0.0 <= self.eta2 < 1.0):
            raise PreconditionError("eta1 and eta2 must lie in [0, 1)")
        _check_count("M", self.M, 1)
        if self.filter_mode not in ("evolution", "initial"):
            raise PreconditionError(f"unknown filter mode {self.filter_mode!r}")

    def check_against(self, obs: ObservationTimes) -> None:
        if self.tau_tilde not in obs.steps:
            raise PreconditionError(
                f"tau_tilde {self.tau_tilde} is not an observation time"
            )
        lo, hi = self.interval
        if self.filter_mode == "evolution":
            if lo > hi or lo < 0 or hi > obs.horizon:
                raise PreconditionError(
                    f"filter interval {self.interval} outside [0, {obs.horizon}]"
                )
            if not [t for t in obs if lo <= t <= hi]:
                raise PreconditionError(
                    f"filter interval {self.interval} contains no observation time"
                )


@dataclass
class RobustnessReport:
    """Acceptance statistics, the xi curve, and per-variation suffix curves."""

    spec_echo: dict
    obs_times: tuple
    accepted: int
    rejected: int
    attempts: int
    xi: tuple  # per tau in obs_times: max suffix distance over variations
    variation_curves: list = field(default_factory=list)  # per accepted variation
    accepted_attempts: list = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0

    def xi_at(self, tau_tilde: int) -> float:
        try:
            return self.xi[self.obs_times.index(tau_tilde)]
        except ValueError:
            raise PreconditionError(f"{tau_tilde} is not an observation time") from None

    def verdict(self, tau_tilde: int, eta2: float) -> dict:
        """Sampling-based evidence, not a proof: xi is a lower bound for eta2."""
        xi = self.xi_at(tau_tilde)
        return {
            "tau_tilde": tau_tilde,
            "eta2": eta2,
            "xi": xi,
            "satisfied": bool(xi <= eta2),
            "label": f"evidence at {self.accepted} samples",
        }

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec_echo,
            "obs_times": list(self.obs_times),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "attempts": self.attempts,
            "acceptance_rate": self.acceptance_rate,
            "xi": list(self.xi),
            "variation_curves": [list(c) for c in self.variation_curves],
            "accepted_attempts": list(self.accepted_attempts),
        }

    def to_csv(self, path, meta: dict | None = None) -> None:
        write_csv(path, {**self.spec_echo, **(meta or {})}, ["tau_tilde", "xi"],
                  zip(self.obs_times, self.xi))


def _initial_distance(rho: PenaltyFunction, base: DataState, cand: DataState) -> float:
    return max(rho(0, cand) - rho(0, base), 0.0)


class _Fold:
    """Folds each candidate's W against the base while its steps are simulated.

    The consumer that ``estimate_robustness`` hands to ``estimate_penalties``
    for every candidate.  It buffers ``_W_CHUNK`` observed steps of a
    candidate's penalties, then folds them against the same columns of the
    base through ``compute_w_sorted``, so no candidate's (P, l*N, T) block
    is ever held.  Each column of ``compute_w_sorted`` equals the call on
    that column alone, so every W has the bits of one call over the whole
    horizon.  ``w`` is the target penalty's W (the last row) per
    observation time.  With a ``window``, a (first, stop) range of columns,
    the filter penalty (row 0) is folded there too, and once its last
    column is, ``rejected`` tells whether the discounted maximum, weighted
    by ``weights``, exceeds ``eta1``; the target of a rejected candidate is
    not folded further.

    With no ``base``, the base shares the first candidate's block: while
    ``head`` is N, the first N runs of each step are the base's, and are
    kept in ``base``, a (P, N, T) array laid out step-major as
    ``estimate_penalties`` returns it.  The caller sets ``head`` to 0 once
    that estimate has returned.

    Column 0 starts a fold over, both for the next candidate and when a
    call of two segments failed and its segments run again.  The buffers are made
    once for all candidates: one made per candidate lands in the memory the
    previous candidate's draws were freed from, and the next draws then
    take fresh memory (``tanks-adapt`` peak RSS 75.3 MiB, against 66.6
    with one buffer, on a 2-core x86 machine).
    """

    def __init__(self, base, N: int, ell_N: int, T: int, window, weights, eta1: float):
        P = 1 if window is None else 2
        self.head = N if base is None else 0  # the base's rows at the head of each step
        self.base = np.empty((P, T, N)).transpose(0, 2, 1) if base is None else base
        self.ell_N = ell_N
        self.window, self.weights, self.eta1 = window, weights, eta1
        self.buf = np.empty((P, _W_CHUNK, self.head + ell_N))
        self.w = np.empty(T)
        self.filter_w = np.empty(len(weights))
        self.rejected = False

    def __call__(self, j: int, row: np.ndarray) -> None:
        i = j % _W_CHUNK
        width = self.head + self.ell_N
        self.buf[:, i, :width] = row  # ``row`` is valid during this call only
        if j == 0:
            self.rejected = False
        if i == _W_CHUNK - 1 or j == len(self.w) - 1:
            lo, hi = j - i, j + 1
            chunk = self.buf[:, :hi - lo, :width]
            if self.head:
                self.base[:, :, lo:hi] = chunk[:, :, :self.head].transpose(0, 2, 1)
            cand = chunk[:, :, self.head:]
            if self.window is not None:
                first, stop = self.window
                a, b = max(lo, first), min(hi, stop)
                if a < b:
                    self.filter_w[a - first:b - first] = compute_w_sorted(
                        self.base[0][:, a:b], cand[0, a - lo:b - lo].T)
                    if b == stop:
                        self.rejected = max(wt * wj for wt, wj in zip(
                            self.weights, self.filter_w.tolist())) > self.eta1
            if not self.rejected:
                self.w[lo:hi] = compute_w_sorted(self.base[-1][:, lo:hi], cand[-1].T)


def estimate_robustness(
    spec: RobustnessSpec,
    base: Configuration,
    sampler: PerturbationSampler,
    obs: ObservationTimes,
    N: int,
    ell: int,
    seed,
    discount: DiscountFunction | None = None,
    budget: int | None = None,
    threads: int = 1,
    progress=None,
    use_fast_path: bool = True,
) -> RobustnessReport:
    """Estimate the xi curve for a robustness specification.

    One base estimate (N runs) is shared by all candidates; each candidate
    costs one fresh estimate (l*N runs) that serves both the evolution
    filter and the target-penalty measurement.  Candidates whose filter
    window is {0} are pre-filtered without simulation, since step-0
    distributions are Dirac on the initial states.  A base of fewer than
    ``_SHARED_BASE_RUNS`` runs is simulated in the first simulated
    candidate's estimate, as one more segment of its blocks, where its
    runs cost next to nothing: a step's cost is mostly fixed.  The result
    and every error are those of the base estimated first.

    A candidate's W is folded ``_W_CHUNK`` observed steps at a time while
    its estimate runs (:class:`_Fold`), so no candidate's penalties are
    held across the horizon: only the base's (P, N, T) block is kept.
    Rejected candidates are still simulated to the horizon, so that the
    failures raised are those of whole estimates.  ``progress``, when
    given, is called as progress(accepted, attempts, M) after every
    attempt.
    """
    spec.check_against(obs)
    _check_counts(obs.horizon, N)
    _check_scale(ell)
    discount = discount or ConstantDiscount()
    budget = budget if budget is not None else 20 * spec.M
    _check_count("budget", budget, spec.M)
    stream = RandomStream.resolve(seed)
    k = obs.horizon

    if spec.filter_mode == "evolution":
        lo, hi = spec.interval
        filter_cols = [j for j, t in enumerate(obs) if lo <= t <= hi]
        trivial_window = [obs.steps[j] for j in filter_cols] == [0]
    else:
        filter_cols = []
        trivial_window = False
    # the simulated rho is read only by the evolution filter over a window
    # other than {0}; the target penalty is always read, and is the last row
    evolution_filter = spec.filter_mode == "evolution" and not trivial_window
    penalties = [spec.rho, spec.rho_target] if evolution_filter else [spec.rho_target]

    def estimate(*segments, consumer=None):
        runs = sum(n for *_, n in segments)
        return estimate_penalties(base, k, runs, None, penalties, list(obs), threads,
                                  use_fast_path, segments=segments, consumer=consumer)

    base_segment = (base.data, stream.child(0), N)
    # the evolution filter's columns and discounts, applied as it is folded
    window = (filter_cols[0], filter_cols[-1] + 1) if evolution_filter else None
    weights = [discount(obs.steps[j]) for j in filter_cols] if evolution_filter else []
    fold = _Fold(None if N < _SHARED_BASE_RUNS else estimate(base_segment), N, N * ell,
                 len(obs), window, weights, spec.eta1)

    sampler_stream = stream.child(1)
    cand_stream = stream.child(2)

    xi = None
    curves: list = []
    accepted_attempts: list = []
    accepted = rejected = attempts = 0

    for attempt in range(budget):
        attempts = attempt + 1
        try:
            cand = sampler.sample(base.data, sampler_stream.child(attempt))
            if progress is not None:
                progress(accepted, attempts, spec.M)
            # step-0 distributions are Dirac: the evolution filter over {0}
            # equals the data-state hemimetric, no simulation needed
            d0 = None if evolution_filter else _initial_distance(spec.rho, base.data, cand)
        except Exception:
            if fold.head:
                estimate(base_segment)  # in order, the base would have failed first
            raise
        if d0 is not None:
            if spec.filter_mode == "evolution":
                d0 *= discount(0)
            if d0 > spec.eta1:
                rejected += 1
                continue

        cand_segment = (cand, cand_stream.child(attempt), N * ell)
        shared = (base_segment,) if fold.head else ()
        estimate(*shared, cand_segment, consumer=fold)
        fold.head = 0  # the base's rows are all kept
        if fold.rejected:
            rejected += 1
            continue

        pointwise = [discount(t) * wj for t, wj in zip(obs, fold.w.tolist())]
        suffix = suffix_maxima(pointwise)
        if xi is None:
            xi = list(suffix)
        else:
            xi = [max(a, b) for a, b in zip(xi, suffix)]
        curves.append(tuple(suffix))
        accepted_attempts.append(attempt)
        accepted += 1
        if accepted == spec.M:
            break

    if accepted < spec.M:
        if fold.head:
            estimate(base_segment)  # in order, the base would have failed first
        raise ShortfallError(
            f"accepted only {accepted} of {spec.M} variations in {budget} attempts",
            accepted=accepted, requested=spec.M, attempts=attempts,
        )

    echo = {
        "rho": spec.rho.id,
        "rho_target": spec.rho_target.id,
        "interval": list(spec.interval),
        "tau_tilde": spec.tau_tilde,
        "eta1": spec.eta1,
        "eta2": spec.eta2,
        "M": spec.M,
        "filter_mode": spec.filter_mode,
        "sampler": sampler.id,
        "N": N,
        "l": ell,
        "discount": discount.id,
        "seed_key": list(stream.key),
    }
    return RobustnessReport(
        spec_echo=echo,
        obs_times=tuple(obs),
        accepted=accepted,
        rejected=rejected,
        attempts=attempts,
        xi=tuple(xi),
        variation_curves=curves,
        accepted_attempts=accepted_attempts,
    )


def estimate_adaptability(
    rho: PenaltyFunction,
    tau_tilde: int,
    eta1: float,
    base: Configuration,
    sampler: PerturbationSampler,
    obs: ObservationTimes,
    N: int,
    ell: int,
    seed,
    eta2: float = 0.0,
    M: int = 100,
    discount: DiscountFunction | None = None,
    budget: int | None = None,
    threads: int = 1,
    progress=None,
    use_fast_path: bool = True,
) -> RobustnessReport:
    """Adaptability: initial-state filter and a single penalty for both the
    filter and the measured divergence; the verdict reads xi at tau_tilde."""
    spec = RobustnessSpec(
        rho=rho, rho_target=rho, interval=(0, 0), tau_tilde=tau_tilde,
        eta1=eta1, eta2=eta2, M=M, filter_mode="initial",
    )
    return estimate_robustness(
        spec, base, sampler, obs, N, ell, seed,
        discount=discount, budget=budget, threads=threads, progress=progress,
        use_fast_path=use_fast_path,
    )


def estimate_reliability(
    rho: PenaltyFunction,
    eta1: float,
    base: Configuration,
    sampler: PerturbationSampler,
    obs: ObservationTimes,
    N: int,
    ell: int,
    seed,
    eta2: float = 0.0,
    M: int = 100,
    discount: DiscountFunction | None = None,
    budget: int | None = None,
    threads: int = 1,
    progress=None,
    use_fast_path: bool = True,
) -> RobustnessReport:
    """Reliability: adaptability read at the first observation time."""
    return estimate_adaptability(
        rho, obs.steps[0], eta1, base, sampler, obs, N, ell, seed,
        eta2=eta2, M=M, discount=discount, budget=budget, threads=threads, progress=progress,
        use_fast_path=use_fast_path,
    )
