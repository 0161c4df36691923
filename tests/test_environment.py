import math

import numpy as np
import pytest

from evometric.environment import FiniteKernel, IdentityKernel
from evometric.errors import DataValidationError, StructuralError
from evometric.models.three_tanks import ThreeTanksEnv, ThreeTanksParams, tanks_space
from evometric.rng import RandomStream

from conftest import toy_kernel


class TestIdentity:
    def test_returns_state_unchanged(self, small_space):
        d = small_space.state([1.0, 0.5, 2.0])
        assert IdentityKernel().sample(d, RandomStream.from_seed(0)) == d


class TestFiniteKernel:
    def test_two_point_frequencies(self, toy_space):
        # binomial oracle: sd = sqrt(p (1-p) / N); assert within 4 sd
        d = toy_space.state([0.0, 0.0])
        kernel = toy_kernel()
        base = RandomStream.from_seed(2024)
        n = 100000
        hits = 0
        for i in range(n):
            out = kernel.sample_values(d.values, base.child(i))
            hits += out[0] == 0.0
        p_hat = hits / n
        bound = 4.0 * math.sqrt(0.3 * 0.7 / n)
        assert abs(p_hat - 0.3) <= bound

    def test_bad_mass_rejected(self, toy_space):
        bad = FiniteKernel(lambda values: [(0.5, values)], id="bad")
        with pytest.raises(DataValidationError):
            bad.sample(toy_space.state([0, 0]), RandomStream.from_seed(1))

    def test_reproducible(self, toy_space):
        d = toy_space.state([1.0, 0.0])
        k = toy_kernel()
        a = k.sample(d, RandomStream.from_seed(9))
        b = k.sample(d, RandomStream.from_seed(9))
        assert a == b


class TestTanksKernel:
    def test_scenario1_inflow_moments(self):
        # Gaussian-mean oracle: q2 ~ N(3, sqrt(0.5)^2), clamped to [0, 6]
        params = ThreeTanksParams(scenario=1)
        env = ThreeTanksEnv(params)
        d = tanks_space(params).state([0, 0, 0, 5.0, 5.0, 5.0])
        base = RandomStream.from_seed(31)
        n = 100000
        q2 = np.empty(n)
        for i in range(n):
            q2[i] = env.sample_values(d.values, base.child(i))[1]
        assert abs(q2.mean() - 3.0) <= 0.01
        assert (q2 >= 0.0).all() and (q2 <= 6.0).all()

    def test_output_clamped_into_domain(self):
        params = ThreeTanksParams(scenario=2)
        env = ThreeTanksEnv(params)
        space = tanks_space(params)
        d = space.state([6.0, 6.0, 0.0, 20.0, 0.0, 0.0])
        out = env.sample(d, RandomStream.from_seed(4))
        for name, spec in zip(space.names, space.vars):
            assert spec.lower <= out[name] <= spec.upper

    def test_wrong_arity_kernel_detected(self, small_space):
        from evometric.environment import FunctionKernel

        bad = FunctionKernel(lambda values, rng: [0.0], id="short")
        with pytest.raises(StructuralError):
            bad.sample(small_space.state([0, 0, 0]), RandomStream.from_seed(0))
