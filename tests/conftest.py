from dataclasses import replace

import pytest

from cahnallen.closure import run_derivation
from cahnallen.qfield import Radical2
from cahnallen.reduction import EvolutionEquation, WaveFrame, reduce_to_ode
from cahnallen.solutions import catalog_by_id, enumerate_catalog


class PerturbedSolution:
    """A catalog entry shifted by a constant: a negative control that shows
    the residual audit has power against non-solutions."""

    def __init__(self, spec, eps: float = 0.01):
        self.base = spec
        self.eps = eps
        self.entry_id = f"{spec.entry_id}+eps"
        self.k = spec.k
        self.w = spec.w

    @property
    def pole(self):
        return self.base.pole

    def xi(self, x, t):
        return self.base.xi(x, t)

    def regular_mask(self, xi):
        return self.base.regular_mask(xi)

    def profile(self, xi):
        u, du, d2 = self.base.profile(xi)
        return u + self.eps, du, d2


def constant_solution(level: float):
    """u = level everywhere: the eq20+ kink with zero amplitude, so every
    partial is zero (an equilibrium when level is 0 or +-1).  Its exact core
    is that constant too, lowered as every catalog entry is."""
    kink = catalog_by_id(1.0)["eq20+"]
    exact = kink.exact._replace(u0=Radical2.of(level), amp=Radical2())
    return replace(kink, entry_id=f"constant({level:g})", exact=exact,
                   **exact.lowered(kink.k))


@pytest.fixture(scope="session")
def report():
    return run_derivation(reduce_to_ode(EvolutionEquation(3), WaveFrame()))


@pytest.fixture(scope="session")
def catalog1():
    return enumerate_catalog(1.0)


@pytest.fixture(scope="session")
def table1():
    return catalog_by_id(1.0)
