"""The tracer sees calls through every module binding and restores them."""

import numpy as np

import tracing
from fracp import analysis, barrier, cli, kernel, solver
from fracp.core import build_grid, make_params


def _originals():
    return {
        "kernel.assemble_operator": kernel.assemble_operator,
        "solver.assemble_operator": solver.assemble_operator,
        "analysis.assemble_operator": analysis.assemble_operator,
        "solver.continuation": solver.continuation,
        "analysis.continuation": analysis.continuation,
        "cli.continuation": cli.continuation,
        "barrier.eval_fplap_pv": barrier.eval_fplap_pv,
        "cli.phi_constant": cli.phi_constant,
        "apply": kernel.DiscreteOperator.__dict__["apply"],
    }


def test_every_binding_is_wrapped_and_restored():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
    assert _originals() == before


def test_counts_distinct_keys_and_self_time():
    pars = make_params(0.5, 2.0, 1.0, 0.5)
    grid = build_grid(0.0, 1.0, 48, 2.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        kernel.assemble_operator(build_grid(0.0, 1.0, 48, 2.0), 0.5, 2.0)
        solver.continuation(pars, grid, halvings=4, tol=1e-4)
        analysis.continuation(pars, grid, halvings=4, tol=1e-4)
    m = tracer.metrics()
    assert m["kernel.assemble.calls"] == 3
    assert m["kernel.assemble.distinct"] == 1
    assert m["solver.continuation.calls"] == 2
    assert m["solver.continuation.distinct"] == 1
    assert m["solver.iterations"] == m["kernel.hessian_diag.calls"]
    assert m["solver.energy_per_iteration"] >= 1.0
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-6
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert abs(sum(selfs) - top) < 1e-6


def test_failed_call_is_recorded_and_unwound():
    tracer = tracing.Tracer()
    grid = build_grid(0.0, 1.0, 16, 1.0)
    with tracer.installed():
        op = kernel.assemble_operator(grid, 0.5, 2.0)
        try:
            solver.solve_fixed_rhs(op, -np.ones(grid.n))
        except Exception:
            pass
        op.apply(np.ones(grid.n))
    names = [s[0] for s in tracer.spans]
    assert names == ["kernel.assemble", "solver.solve", "kernel.apply"]
    assert [s[4] for s in tracer.spans] == [True, False, True]
    assert [s[3] for s in tracer.spans] == [-1, -1, -1]
    assert tracer.metrics()["solver.iterations"] == 0
