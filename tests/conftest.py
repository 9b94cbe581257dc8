import sys
from dataclasses import dataclass

import numpy as np
import pytest

from fracp import assemble_operator, build_grid, continuation, make_params

ACCEPTANCE_LINES = []


@dataclass(frozen=True)
class Constant:
    """The exterior extension u = c outside Omega, which no library path
    builds: a grid function's exterior beyond Zero, for the tests that
    evaluate one or that an operator must refuse."""

    c: float

    def value(self, z, a, b):
        z = np.asarray(z, dtype=float)
        out = np.full_like(z, self.c)
        return out if out.ndim else float(self.c)

    def kinks(self, a, b):
        return ()


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def torsion_64():
    """Small (s, p) = (0.5, 2) operator with f = 1 solved tightly."""
    from fracp import solve_fixed_rhs

    grid = build_grid(0.0, 1.0, 64, 1.0)
    op = assemble_operator(grid, 0.5, 2.0)
    res = solve_fixed_rhs(op, np.ones(64), tol=1e-11)
    return grid, op, res


@pytest.fixture(scope="session")
def singular_preset():
    return make_params(0.5, 2.0, 1.0, 0.5)


def _rebind(monkeypatch, fn, counted):
    """Replace every fracp module's binding of fn by counted."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fracp" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)


@pytest.fixture
def assembly_calls(monkeypatch):
    """(n, q, s, p) of every assemble_operator call, through any fracp
    module's binding of it."""
    calls = []

    def counted(grid, s, p):
        calls.append((grid.n, grid.q, s, p))
        return assemble_operator(grid, s, p)

    _rebind(monkeypatch, assemble_operator, counted)
    return calls


@pytest.fixture
def continuation_calls(monkeypatch):
    """(n, q, delta) of every continuation call, through any fracp module's
    binding of it."""
    calls = []

    def counted(params, grid, *args, **kwargs):
        calls.append((grid.n, grid.q, params.delta))
        return continuation(params, grid, *args, **kwargs)

    _rebind(monkeypatch, continuation, counted)
    return calls
