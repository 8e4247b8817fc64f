"""The package's record types keep value semantics without dataclasses.

The records are NamedTuples or `qfield.Frozen` slot classes, which build no
code when their module loads; a frozen dataclass compiles six methods per
class at import, a cost every command pays.
"""

import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import re

import pytest

import cahnallen
from cahnallen.closure import ClosureBranch
from cahnallen.qfield import Radical2
from cahnallen.reduction import (EvolutionEquation, Grid1D, GridSpec,
                                 SimConfig, WaveFrame)
from cahnallen.symexpr import Monomial, SymExpr

RECORDS = {
    "Monomial": lambda: Monomial(Radical2(1, 2), (("k", 2),), ((0, 1),),
                                 ((1, 1),), 1),
    "SymExpr": lambda: SymExpr.atom("k") * SymExpr.u_deriv(1) + 3,
    "Grid1D": lambda: Grid1D(-1.0, 1.0, 9),
    "SimConfig": lambda: SimConfig(dt=0.01, T=0.5, scheme="imex_cn",
                                   snapshot_times=(0.0, 0.5)),
    "GridSpec": lambda: GridSpec((-2.0, 2.0), (0.0, 0.5), 11, 3),
    "WaveFrame": WaveFrame,
    "ClosureBranch": lambda: ClosureBranch(
        Radical2(1), -1, Radical2(0, 3), Radical2(-1), Radical2(0, 1),
        Radical2(1, 2)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    with pytest.raises(AttributeError):
        record.extra = 1
    fields = getattr(record, "_fields", ()) or type(record).__slots__
    if not fields:  # WaveFrame holds none
        return
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        delattr(record, fields[0])


def test_records_of_different_fields_differ():
    assert Grid1D(-1.0, 1.0, 9) != Grid1D(-1.0, 1.0, 10)
    assert SimConfig(T=0.5) != SimConfig(T=0.25)
    assert Monomial(Radical2(1)) != Monomial(Radical2(1), s_grade=1)
    assert Grid1D(-1.0, 1.0, 9) != (-1.0, 1.0, 9)
    assert repr(Grid1D(-1.0, 1.0, 9)) == "Grid1D(x_min=-1.0, x_max=1.0, n=9)"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Grid1D(-1.0, 1.0, 7), ValueError, "grid needs at least 8 points"),
    (lambda: Grid1D(1.0, 0.0, 16), ValueError, "empty grid interval"),
    (lambda: Grid1D(-1.0, 1.0, 10**6 + 1), ValueError,
     "grid needs at most 1,000,000 points"),
    (lambda: SimConfig(T=0.0), ValueError,
     "final time must be positive and finite"),
    (lambda: SimConfig(T=math.nan), ValueError,
     "final time must be positive and finite"),
    (lambda: SimConfig(dt=-1.0), ValueError,
     "time step must be positive and finite"),
    (lambda: SimConfig(dt=math.inf), ValueError,
     "time step must be positive and finite"),
    (lambda: SimConfig(dt=1e-15), ValueError,
     "time step 1e-15 is below the smallest step 1e-14"),
    (lambda: SimConfig(boundary="reflecting"), ValueError,
     "unknown boundary 'reflecting'"),
    (lambda: SimConfig(scheme="spectral"), ValueError,
     "unknown scheme 'spectral'"),
    # Named apart from the case below, whose generated id starts alike.
    pytest.param(lambda: SimConfig(snapshot_times=(math.nan, 0.5, 1.0)),
                 ValueError, "snapshot times must be finite numbers",
                 id="nan snapshot time"),
    (lambda: SimConfig(T=1.0, snapshot_times=(0.5, 2.0)), ValueError,
     "snapshot times outside [0, T]"),
    (lambda: GridSpec(nx=1), ValueError, "grid needs nx >= 2 and nt >= 1"),
    (lambda: GridSpec(nt=0), ValueError, "grid needs nx >= 2 and nt >= 1"),
    (lambda: GridSpec(nx=1001, nt=1000), ValueError,
     "grid needs nx*nt <= 1,000,000"),
    (lambda: EvolutionEquation(1), ValueError,
     "nonlinearity power m must be >= 2"),
])
def test_validating_constructors_keep_their_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as excinfo:
        build()
    assert excinfo.type is error


def test_smallest_time_step_is_accepted():
    assert SimConfig(dt=1e-14).dt == 1e-14


def test_solution_spec_is_the_only_dataclass():
    """One new @dataclass would bring its import cost back to every command;
    SolutionSpec stays one because callers pass it to dataclasses.replace."""
    found = []
    for info in pkgutil.iter_modules(cahnallen.__path__):
        module = importlib.import_module(f"cahnallen.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.append(f"{info.name}.{name}")
    assert found == ["solutions.SolutionSpec"]
