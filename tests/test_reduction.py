"""Frame substitution and homogeneous balance."""

import pytest

from cahnallen.reduction import (
    EvolutionEquation,
    WaveFrame,
    balance_degree,
    reduce_to_ode,
)
from cahnallen.symexpr import SymExpr, substitute

K = SymExpr.atom("k")
W = SymExpr.atom("w")
U = SymExpr.u_deriv(0)
U1 = SymExpr.u_deriv(1)
U2 = SymExpr.u_deriv(2)


def test_cubic_reduction_structure():
    ode = reduce_to_ode(EvolutionEquation(3), WaveFrame())
    assert ode.expression == W * U1 - K**2 * U2 + U**3 - U


def test_quadratic_reduction_structure():
    ode = reduce_to_ode(EvolutionEquation(2), WaveFrame())
    assert ode.expression == W * U1 - K**2 * U2 + U**2 - U


def test_zero_profile_satisfies_ode():
    ode = reduce_to_ode(EvolutionEquation(3), WaveFrame())
    bound = substitute(ode.expression, {})  # scalar atoms stay
    from cahnallen.symexpr import substitute_u

    zero = SymExpr()
    assert not substitute_u(bound, {0: zero, 1: zero, 2: zero})


def test_invalid_nonlinearity_power():
    with pytest.raises(ValueError):
        EvolutionEquation(1)


@pytest.mark.parametrize("m,expected", [(3, 1), (2, 2)])
def test_balance_degree(m, expected):
    assert balance_degree(reduce_to_ode(EvolutionEquation(m), WaveFrame())) == expected


def test_balance_without_integer_solution():
    with pytest.raises(ValueError, match="^balance gives n = 2/3, not a"
                       " positive integer; method inapplicable$"):
        balance_degree(reduce_to_ode(EvolutionEquation(4), WaveFrame()))
