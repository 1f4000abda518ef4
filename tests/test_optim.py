import math

import numpy as np
import numpy.testing as npt
import pytest

from setsum.autodiff import parameter
from setsum.optim import AdadeltaState, adadelta_step


def test_zero_gradient_leaves_parameters_decays_accumulators():
    p = parameter(np.array([1.0, -2.0]), "p")
    state = AdadeltaState()
    state.sq_grad["p"] = np.array([0.4, 0.4])
    state.sq_delta["p"] = np.array([0.2, 0.2])
    adadelta_step({"p": p}, {"p": np.zeros(2)}, state)
    npt.assert_array_equal(p.data, [1.0, -2.0])
    npt.assert_allclose(state.sq_grad["p"], 0.95 * 0.4, rtol=1e-15)
    npt.assert_allclose(state.sq_delta["p"], 0.95 * 0.2, rtol=1e-15)


def test_first_step_matches_update_formula():
    # hand evaluation: E[g^2] = (1-rho), dx = -sqrt(eps) / sqrt((1-rho) + eps)
    rho, eps = 0.95, 1e-6
    p = parameter(np.array([0.0]), "p")
    state = AdadeltaState()
    adadelta_step({"p": p}, {"p": np.array([1.0])}, state)
    expected = -math.sqrt(eps) / math.sqrt((1.0 - rho) + eps)
    npt.assert_allclose(p.data, [expected], rtol=1e-14)
    assert expected == pytest.approx(-4.472e-3, abs=5e-6)


def test_update_opposes_gradient():
    rng = np.random.default_rng(0)
    p = parameter(rng.normal(size=50), "p")
    state = AdadeltaState()
    for _ in range(5):
        g = rng.normal(size=50)
        g[g == 0.0] = 1.0
        before = p.data.copy()
        adadelta_step({"p": p}, {"p": g}, state)
        delta = p.data - before
        assert np.all(np.sign(delta) == -np.sign(g))


def test_accumulators_stay_non_negative_and_match_shapes():
    rng = np.random.default_rng(1)
    p = parameter(rng.normal(size=(3, 4)), "p")
    state = AdadeltaState()
    for _ in range(100):
        adadelta_step({"p": p}, {"p": rng.normal(size=(3, 4))}, state)
    assert np.all(state.sq_grad["p"] >= 0.0)
    assert np.all(state.sq_delta["p"] >= 0.0)
    assert state.sq_grad["p"].shape == p.shape
    assert state.sq_delta["p"].shape == p.shape


def test_gradient_shape_mismatch_rejected():
    p = parameter(np.zeros(3), "p")
    with pytest.raises(ValueError, match="shape"):
        adadelta_step({"p": p}, {"p": np.zeros(4)}, AdadeltaState())


def test_accumulators_are_allocated_only_on_first_step(monkeypatch):
    p = parameter(np.zeros((2, 3)), "p")
    state = AdadeltaState()
    adadelta_step({"p": p}, {"p": np.ones((2, 3))}, state)

    def no_allocation(*args, **kwargs):
        raise AssertionError("accumulator allocated again")

    monkeypatch.setattr(np, "zeros_like", no_allocation)
    adadelta_step({"p": p}, {"p": np.ones((2, 3))}, state)


def test_state_seeded_with_one_accumulator_gets_the_other():
    p = parameter(np.zeros(2), "p")
    state = AdadeltaState()
    seeded = np.array([0.4, 0.4])
    state.sq_grad["p"] = seeded
    adadelta_step({"p": p}, {"p": np.zeros(2)}, state)
    assert state.sq_grad["p"] is seeded
    npt.assert_array_equal(state.sq_delta["p"], [0.0, 0.0])
