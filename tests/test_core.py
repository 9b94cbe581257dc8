import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracp import (
    CASE_ALPHA_STAR,
    CASE_S,
    Constant,
    Grid,
    GridFunction,
    build_grid,
    classify_regime,
    default_grading,
    make_params,
)
from fracp.errors import BadGrading, OutOfRange


class TestMakeParams:
    def test_valid(self):
        pars = make_params(0.5, 2, 1, 0.5, 0, 1)
        assert pars.s == 0.5 and pars.sp == 1.0

    def test_s_out_of_range(self):
        with pytest.raises(OutOfRange):
            make_params(1.2, 2, 1, 0.5, 0, 1)

    @pytest.mark.parametrize(
        "args",
        [(0.5, 1.0, 1, 0.5), (0.5, 2, -1, 0.5), (0.5, 2, 1, -0.1), (0.5, 2, 1, 0.5, 1, 0)],
    )
    def test_rejects(self, args):
        with pytest.raises(OutOfRange):
            make_params(*args)

    def test_delta_above_sp_accepted_for_classification(self):
        pars = make_params(0.5, 2, 1, 1.5, 0, 1)
        rep = classify_regime(pars)
        assert not rep.existence_flag
        assert rep.alpha_star <= 0


class TestClassifyRegime:
    def test_worked_example(self):
        rep = classify_regime(make_params(0.5, 2, 1, 0.5))
        assert rep.alpha_star == pytest.approx(0.25, abs=0)
        assert rep.alpha_star0 == pytest.approx(0.5, abs=0)
        assert rep.lambda_cap == pytest.approx(0.0, abs=0)
        assert rep.uniq_threshold == pytest.approx(1.0, abs=0)
        assert rep.case_flag == CASE_ALPHA_STAR
        assert rep.uniqueness_flag

    def test_sobolev_threshold_examples(self):
        rep = classify_regime(make_params(0.75, 2, 2, 0.5))
        assert rep.alpha_star == pytest.approx(1 / 3, rel=1e-15)
        assert rep.lambda_cap == pytest.approx(0.75, rel=1e-15)
        assert rep.sobolev_flag
        rep2 = classify_regime(make_params(0.75, 2, 2, 1.2))
        assert rep2.lambda_cap == pytest.approx(2.5, rel=1e-14)
        assert not rep2.sobolev_flag

    def test_delta_equals_sp_sentinel(self):
        rep = classify_regime(make_params(0.5, 2, 1, 1.0))
        assert math.isinf(rep.lambda_cap)
        assert not rep.existence_flag

    def test_delta_zero_note(self):
        rep = classify_regime(make_params(0.5, 2, 1, 0.0))
        assert rep.uniqueness_flag
        assert any("delta=0" in n for n in rep.notes)

    @given(
        s=st.floats(0.05, 0.95),
        p=st.floats(1.05, 5.0),
        gamma=st.floats(0.0, 3.0),
        delta=st.floats(0.0, 2.0),
        shift=st.floats(-3.0, 3.0),
        width=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_free(self, s, p, gamma, delta, shift, width):
        r1 = classify_regime(make_params(s, p, gamma, delta, 0, 1))
        r2 = classify_regime(make_params(s, p, gamma, delta, shift, shift + width))
        assert r1 == r2

    @given(s=st.floats(0.1, 0.9), p=st.floats(1.1, 4.0), gamma=st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_zero_merges_exponents(self, s, p, gamma):
        rep = classify_regime(make_params(s, p, 0.0, 0.1))
        assert rep.alpha_star == rep.alpha_star0
        rep2 = classify_regime(make_params(s, p, gamma, 0.1))
        assert rep2.alpha_star <= rep2.alpha_star0

    def test_alpha_star_monotonicity(self):
        base = (0.5, 2.0, 1.0, 0.4)
        a0 = classify_regime(make_params(*base)).alpha_star
        assert classify_regime(make_params(0.5, 2.0, 1.5, 0.4)).alpha_star < a0
        assert classify_regime(make_params(0.5, 2.0, 1.0, 0.6)).alpha_star < a0
        assert classify_regime(make_params(0.6, 2.0, 1.0, 0.4)).alpha_star > a0

    def test_case_split(self):
        assert classify_regime(make_params(0.5, 2, 0.25, 0.1)).case_flag == CASE_S
        assert classify_regime(make_params(0.5, 2, 1.0, 0.5)).case_flag == CASE_ALPHA_STAR


class TestGrid:
    def test_uniform_example(self):
        g = build_grid(0, 1, 4, 1)
        assert np.allclose(g.nodes, [0.2, 0.4, 0.6, 0.8])
        assert g.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_graded_h_min_bound(self):
        g = build_grid(0, 1, 128, 2)
        assert g.h_min < (1 / 129) ** 2 * 4

    def test_bad_grading(self):
        with pytest.raises(BadGrading):
            build_grid(0, 1, 4, 0.5)

    @given(n=st.integers(2, 200), q=st.floats(1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_and_partition(self, n, q):
        g = build_grid(0, 1, n, q)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.nodes > 0) and np.all(g.nodes < 1)
        assert np.all(g.widths > 0)
        assert g.widths.sum() == pytest.approx(1.0, rel=1e-12)
        assert g.masses.sum() == pytest.approx(1.0, rel=1e-12)

    def test_symmetric(self):
        g = build_grid(0, 1, 33, 2.5)
        assert np.allclose(g.nodes + g.nodes[::-1], 1.0)
        # nodal quantities take their right half from the left half
        for a in (g.masses, g.distance()):
            assert np.array_equal(a, a[::-1])

    def test_asymmetric_mesh_rejected(self):
        nodes = build_grid(0, 1, 16, 2).nodes
        Grid(a=0.0, b=1.0, q=2.0, nodes=nodes + np.r_[np.zeros(15), 1e-13])
        with pytest.raises(BadGrading):
            Grid(a=0.0, b=1.0, q=2.0, nodes=nodes + np.r_[np.zeros(15), 1e-11])

    @pytest.mark.parametrize("n, q", [(16, 1.0), (96, 2.0), (1024, 3.0)])
    def test_probes_match_node_loop(self, n, q):
        g = build_grid(0, 1, n, q)

        def width(x):
            # the cell holding x and its neighbours
            k = min(max(int(np.searchsorted(g.edges, x, side="right")) - 1, 0), n)
            return g.widths[max(k - 1, 0) : k + 2].max()

        widths = [width(x) for x in g.nodes]
        assert np.array_equal(g.local_width(g.nodes), widths)
        assert g.local_width(0.3) == width(0.3)
        d = g.distance()
        for cells, cap, above, below in ((4.0, 200, 0.1, math.inf), (5.0, 24, 0.0, 0.1)):
            keep = [i for i in range(n) if d[i] > cells * widths[i] and above < d[i] < below]
            if len(keep) > cap:
                sel = np.linspace(0, len(keep) - 1, cap).round().astype(int)
                keep = [keep[j] for j in np.unique(sel)]
            assert g.probe_indices(cells, cap, above, below).tolist() == keep

    def test_default_grading_capped(self):
        assert default_grading(make_params(0.5, 2, 1, 0.5)) == pytest.approx(2.0)
        assert default_grading(make_params(0.5, 2, 1, 0.95)) == 4.0
        assert default_grading(make_params(0.5, 2, 0, 0)) == 1.0


class TestGridFunction:
    def test_exterior_evaluated_only_outside(self):
        seen = []

        class Spy(Constant):
            def value(self, z, a, b):
                seen.append(np.atleast_1d(z).copy())
                return super().value(z, a, b)

        u = GridFunction(build_grid(0, 1, 16, 2.0), np.ones(16), Spy(2.0))
        z = np.linspace(-1, 2, 31)
        outside = (z < 0) | (z > 1)
        for _ in range(3):
            assert np.all(u(z)[outside] == 2.0)
        assert u(-0.5) == 2.0 and u(0.0) == 2.0
        # the two endpoint traces once, then only the outside points
        assert [len(t) for t in seen] == [1, 1, 20, 20, 20, 1]
        assert all(np.all((t < 0) | (t > 1)) for t in seen[2:])
