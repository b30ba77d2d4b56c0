"""Shared fixtures."""

import pytest

import robust_dro.solver as solver_mod
from robust_dro.losses import reg_prox
from robust_dro.solver import _oracle_call


class SolverHooks:
    """Read and steer the primal-dual loop through the module-global
    names it calls: ``solver.reg_prox``, once per iteration, takes the
    primal step tau_k and returns the primal iterate w_k, and
    ``solver._oracle_call`` returns the oracle output (z, filter
    state).  Each method hooks the solves that follow it, until another
    method hooks the same name."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    def record_iterates(self) -> list:
        """The primal iterates w_1, ..., w_T of each solve, in order."""
        iterates = []

        def recorded(reg, v, tau):
            iterates.append(reg_prox(reg, v, tau))
            return iterates[-1]

        self._monkeypatch.setattr(solver_mod, "reg_prox", recorded)
        return iterates

    def record_steps(self) -> list:
        """The primal steps tau_1, ..., tau_T of each solve, in order."""
        steps = []

        def recorded(reg, v, tau):
            steps.append(tau)
            return reg_prox(reg, v, tau)

        self._monkeypatch.setattr(solver_mod, "reg_prox", recorded)
        return steps

    def record_oracle_outputs(self) -> list:
        """The oracle outputs z of each call the solves compute."""
        outputs = []

        def recorded(x, cfg, beta, start):
            z, state = _oracle_call(x, cfg, beta, start)
            outputs.append(z)
            return z, state

        self._monkeypatch.setattr(solver_mod, "_oracle_call", recorded)
        return outputs

    def replay_oracle_outputs(self, outputs):
        """Hand the solves the given z's in order in place of oracle calls:
        fed a run's recorded outputs, a solve on other rows is the
        idealized run of the analysis.  Returns the iterator, so a test
        can check that the run used every z."""
        replay = iter(outputs)
        self._monkeypatch.setattr(solver_mod, "_oracle_call", lambda x, cfg, beta, start: (next(replay), None))
        return replay


@pytest.fixture
def solver_hooks(monkeypatch):
    return SolverHooks(monkeypatch)
