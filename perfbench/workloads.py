"""The three benchmark workloads: inputs, the estimator call, and its checks.

Each workload is a closed loop of estimator calls made one at a time from
one process.  Its shape is fixed; only the package seed of each call comes
from the benchmark's ``--seed``, so the package never sees that argument.

* ``tanks-adapt``: criterion-6 adaptability on three-tanks.  Many short
  batches of 5000 fresh runs, so per-run stream set-up and the draw tape
  dominate; any RNG change shows here.
* ``engine-saw``: criterion-9 saw-attack robustness at the paper horizon.
  Few large batches over 10 000 steps, so the engine lockstep kernel, the
  per-step penalties and the W fold dominate; stream set-up does not.
* ``text-interp``: the tank controller written in the text format, with no
  lockstep attached, measured with ``distance`` at threads=2.  The
  reference interpreter and the process-pool fan-out do all the work.

Output checks hold under any correct change of the package, including a
change of random streams: they compare two execution paths of the same
version with each other, never against stored digits.
"""

from __future__ import annotations

import random

import numpy as np

import evometric as em
from evometric.models.engine_system import (
    AttackConfig,
    SawWindowSampler,
    engine_penalties,
    engine_system,
)
from evometric.models.three_tanks import tanks_configuration, tanks_penalties
from evometric.process_text import format_definitions, parse_definitions

TANKS_M = 5  # accepted variations per tanks-adapt call
ENGINE_M = 1  # accepted variations per engine-saw call
TEXT_N = 100  # base runs per text-interp call
TEXT_THREADS = 2  # the CLI default, os.cpu_count(), on the 2-core reference box


def call_seeds(workload: str, seed: int):
    """Endless package seeds for successive calls, a pure function of the
    benchmark seed (string seeding of ``random`` is hash-seed independent)."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


class TanksAdapt:
    name = "tanks-adapt"
    N, ELL, K, M = 1000, 5, 150, TANKS_M

    def build(self):
        self.base = tanks_configuration(scenario=1, init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
        self.rho = tanks_penalties(self.base.env.params)["l3"]
        self.obs = em.ObservationTimes.range(self.K)
        self.sampler = em.UniformResampler(("q1", "q2", "q3", "l2", "l3"))
        self.spaces, self.envs = [self.base.space], [self.base.env]
        self.penalty_objs = [self.rho]
        return self

    def call(self, seed):
        return em.estimate_adaptability(
            self.rho, 30, 0.3, self.base, self.sampler, self.obs,
            N=self.N, ell=self.ELL, seed=seed, M=self.M, budget=100 * self.M,
        )

    def run_steps(self, rep) -> int:
        # the initial-state filter rejects before simulating, so only the
        # base estimate and the accepted candidates run
        return self.K * (self.N + rep.accepted * self.N * self.ELL)

    def check_result(self, rep, seed) -> list[str]:
        return _check_xi(rep, self.M)

    def check_paths(self, seed) -> list[str]:
        cand = self.base.with_data(
            self.sampler.sample(self.base.data, em.RandomStream.from_seed(seed))
        )
        errs = []
        for c in (self.base, cand):
            errs += _paths_agree(c, self.K, 3, seed, [self.rho], list(self.obs))
        return errs


class EngineSaw:
    name = "engine-saw"
    N, ELL, K, M = 100, 10, 10000, ENGINE_M
    # about one candidate in ten is admissible (window <= 100 of 0..1000);
    # 400 attempts make a shortfall a 1e-18 event instead of a 1.5 % one
    BUDGET = 400

    def build(self):
        self.base = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),))
        pens = engine_penalties(False, awml=1000)
        self.spec = em.RobustnessSpec(
            rho=pens["window_L"], rho_target=pens["fn_L"], interval=(0, 0),
            tau_tilde=0, eta1=0.1, eta2=0.2, M=self.M, filter_mode="evolution",
        )
        self.obs = em.ObservationTimes.range(self.K)
        self.sampler = SawWindowSampler("L", 1000)
        self.spaces, self.envs = [self.base.space], [self.base.env]
        self.penalty_objs = [self.spec.rho, self.spec.rho_target]
        return self

    def call(self, seed):
        return em.estimate_robustness(
            self.spec, self.base, self.sampler, self.obs, self.N, self.ELL, seed,
            budget=self.BUDGET,
        )

    def run_steps(self, rep) -> int:
        # the filter window is {0}: candidates are rejected before simulating
        return self.K * (self.N + rep.accepted * self.N * self.ELL)

    def check_result(self, rep, seed) -> list[str]:
        return _check_xi(rep, self.M)

    def check_paths(self, seed) -> list[str]:
        # a window that opens and closes inside the slice, so both attack
        # branches and the saw's initial copy step are compared
        cand = self.base.with_data(self.base.data.update([("right_L", 700.0)]))
        pens = [self.spec.rho, self.spec.rho_target]
        obs = list(range(0, 2001))
        errs = []
        for c in (self.base, cand):
            errs += _paths_agree(c, 2000, 2, seed, pens, obs)
        return errs


class TextInterp:
    name = "text-interp"
    N, ELL, K = TEXT_N, 5, 150
    threads = TEXT_THREADS

    def build(self):
        ref1 = tanks_configuration(scenario=1)
        ref2 = tanks_configuration(scenario=2)
        self.text = format_definitions(ref1.defs, ref1.process)
        defs, main = parse_definitions(self.text)
        self.c1 = em.Configuration(main, ref1.data, ref1.env, defs).validated()
        self.c2 = em.Configuration(main, ref2.data, ref2.env, defs).validated()
        self.ref1, self.ref2 = ref1, ref2
        self.rho = tanks_penalties(ref1.env.params)["l3"]
        self.obs = em.ObservationTimes.range(self.K)
        self.discount = em.constant_discount()
        self.spaces = [self.c1.space, self.c2.space]
        self.envs = [self.c1.env, self.c2.env]
        self.sampler = None
        self.penalty_objs = [self.rho]
        return self

    def call(self, seed, threads=None):
        return em.distance(
            self.c1, self.c2, self.rho, self.discount, self.obs, self.N, self.ELL,
            seed, threads=self.threads if threads is None else threads,
        )

    def run_steps(self, rep) -> int:
        return self.K * (self.N + self.N * self.ELL)

    def check_result(self, rep, seed) -> list[str]:
        errs = []
        if rep.pointwise != self.reference(seed).pointwise:
            errs.append("text-model distance differs from the built-in lockstep distance")
        if not all(0.0 <= w <= 1.0 for w in rep.pointwise):
            errs.append("pointwise W outside [0, 1]")
        return errs

    def reference(self, seed):
        """The same distance on the built-in configurations (lockstep path)."""
        return em.distance(
            self.ref1, self.ref2, self.rho, self.discount, self.obs, self.N, self.ELL, seed
        )

    def check_paths(self, seed) -> list[str]:
        if self.c1.lockstep is not None or self.c2.lockstep is not None:
            return ["text-interp configuration unexpectedly carries a lockstep"]
        return []


WORKLOADS = {w.name: w for w in (TanksAdapt, EngineSaw, TextInterp)}


def _check_xi(rep, M) -> list[str]:
    errs = []
    if rep.accepted != M:
        errs.append(f"accepted {rep.accepted} != M={M}")
    xi = rep.xi
    if not all(0.0 <= x <= 1.0 for x in xi):  # also rejects NaN
        errs.append("xi outside [0, 1]")
    if any(b > a for a, b in zip(xi, xi[1:])):
        errs.append("xi increases in tau")
    return errs


def _paths_agree(c, k, n, seed, penalties, obs) -> list[str]:
    fast = em.estimate_penalties(c, k, n, seed, penalties, obs, use_fast_path=True)
    slow = em.estimate_penalties(c, k, n, seed, penalties, obs, use_fast_path=False)
    if fast.shape != slow.shape or not np.array_equal(fast, slow):
        return [f"fast path and interpreter differ on {n} runs x {k} steps"]
    return []
