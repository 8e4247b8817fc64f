"""Exact traveling-wave toolkit for the bistable equation u_t = u_xx - u^3 + u.

The package derives the closed-form traveling waves of the cubic
reaction-diffusion equation with exact arithmetic over Q(sqrt(2)), exposes
them as an evaluatable catalog, certifies every entry numerically against
the PDE and ODE residuals, and re-verifies the moving kink dynamically with
two independent finite-difference schemes.
"""

__version__ = "0.1.0"

from .qfield import Radical2, Rational
from .reduction import EvolutionEquation, WaveFrame, reduce_to_ode, balance_degree
from .closure import run_derivation

# the numeric layers import numpy; they load on first use (PEP 562), so the
# exact layers above run on the standard library alone
_NUMERIC = {
    "SolutionSpec": "solutions",
    "enumerate_catalog": "solutions",
    "catalog_by_id": "solutions",
    "GridSpec": "verify",
    "pde_residual": "verify",
    "ode_residual": "verify",
    "classify_branches": "verify",
    "Grid1D": "simulate",
    "SimConfig": "simulate",
    "integrate": "simulate",
    "convergence_study": "simulate",
}


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_NUMERIC[name]}", __name__), name)


__all__ = [
    "Radical2",
    "Rational",
    "EvolutionEquation",
    "WaveFrame",
    "reduce_to_ode",
    "balance_degree",
    "run_derivation",
    *_NUMERIC,
]
