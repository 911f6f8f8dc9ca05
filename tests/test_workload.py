"""Workload solver tests: closed forms, the coupled crossing against a
bisection reference, oracle agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem
from isccsim import workload
from isccsim.network import SensingMode
from isccsim.workload import (
    EDGE_FIELDS,
    SCALAR_FIELDS,
    EdgeArrays,
    InvalidProblem,
    WorkloadProblem,
    WorkloadSolution,
    edge_latencies,
    latency_components,
    oracle_workload,
    solve_edges,
    solve_workload,
)


NON_NEGATIVE = (
    "t_gen", "t_cons", "bandwidth_hz", "compute_cps", "s_dl", "s_ul",
    "kappa", "w_cap", "tau_s", "sigma", "rho",
)


def vs_problem(**overrides):
    base = dict(
        t_gen=2.0, t_cons=3.0, bandwidth_hz=1e6, compute_cps=1e8, eta=2.0,
        s_dl=1e6, s_ul=1e6, kappa=1e7, w_cap=15.0,
        mode=SensingMode.VS, tau_s=0.1,
    )
    base.update(overrides)
    return WorkloadProblem(**base)


def ws_problem(**overrides):
    # Sensing and compute branches cross exactly at b_sens = B/2 = 1 MHz:
    # sensing cap b/1e4 and compute cap (1.5 - 1e6/(2 b_comm)) * 100 both
    # equal 100 samples there.
    base = dict(
        t_gen=1.0, t_cons=1.5, bandwidth_hz=2e6, compute_cps=1e8, eta=2.0,
        s_dl=5e5, s_ul=5e5, kappa=1e6, w_cap=1000.0,
        mode=SensingMode.WS, sigma=1e4, rho=1.0, coupled=True,
    )
    base.update(overrides)
    return WorkloadProblem(**base)


class TestClosedForm:
    def test_cap_bound_example(self):
        # Sensing cap 2/0.1 = 20, compute cap (3-1)*1e8/1e7 = 20, w_cap 15.
        sol = solve_workload(vs_problem())
        assert sol.w_star == 15
        assert sol.feasible
        assert sol.b_comm_hz == 1e6
        assert sol.b_sens_hz == 0.0

    def test_sensing_bound(self):
        sol = solve_workload(vs_problem(w_cap=100.0, tau_s=0.2))
        assert sol.w_star == 10  # 2 s window / 0.2 s per sample

    def test_compute_bound(self):
        sol = solve_workload(vs_problem(w_cap=100.0, compute_cps=5e7))
        assert sol.w_star == 10  # (3-1) s * 5e7 / 1e7

    def test_comm_exhausts_window_infeasible(self):
        sol = solve_workload(vs_problem(s_dl=3e6, s_ul=3e6))
        # (3e6+3e6)/(1e6*2) = 3 s >= t_cons.
        assert sol.w_star == 0
        assert not sol.feasible

    def test_zero_cap(self):
        sol = solve_workload(vs_problem(w_cap=0.0))
        assert sol.w_star == 0
        assert sol.feasible

    def test_invalid_fields(self):
        with pytest.raises(InvalidProblem):
            solve_workload(vs_problem(bandwidth_hz=-1.0))
        with pytest.raises(InvalidProblem):
            solve_workload(vs_problem(eta=0.0))

    @pytest.mark.parametrize(
        "name, value",
        [(name, -1.0) for name in NON_NEGATIVE] + [("eta", 0.0), ("eta", -1.0)],
    )
    def test_invalid_field_rejected_at_construction(self, name, value):
        with pytest.raises(InvalidProblem):
            vs_problem(**{name: value})
        with pytest.raises(InvalidProblem):
            replace(vs_problem(), **{name: value})


def bisection_comm_hz(p):
    """Reference crossing: bisect b_sens on the sign of sensing cap minus
    compute cap, to 1e-13*B, and return the communication bandwidth B - b_sens.

    With kappa = 0 the compute cap is unbounded wherever the communication
    fits, so the bisection lands on the comm-feasibility boundary, where
    `solve_workload` takes the cap from the feasible side."""
    b = p.bandwidth_hz
    lo, hi = 0.0, b
    for _ in range(128):
        if hi - lo <= 1e-13 * b:
            break
        mid = 0.5 * (lo + hi)
        if workload._sens_cap_ws(p, mid) >= workload._comp_cap(p, b - mid, p.compute_cps):
            hi = mid
        else:
            lo = mid
    return b - 0.5 * (lo + hi)


def bisection_solutions(problems):
    """The solver's results with the reference crossing in place of the closed form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_crossing_comm_hz", bisection_comm_hz)
        return [solve_workload(p) for p in problems]


# A root that rounds one ulp above B when there is no compute (c = 0).
ROUNDS_ABOVE_B = dict(
    compute_cps=0.0, rho=1.0177271252473479, t_gen=2.5490667977981927,
    sigma=68645.40369432246, bandwidth_hz=3956775.013618525,
)

CROSSING_EDGE_CASES = {
    "kappa=0": dict(kappa=0.0),
    "kappa=0, w_cap binds": dict(kappa=0.0, w_cap=100.0),
    "kappa=0, no bits": dict(kappa=0.0, s_dl=0.0, s_ul=0.0),
    "no bits": dict(s_dl=0.0, s_ul=0.0),
    "no bits, crossing at x=0": dict(s_dl=0.0, s_ul=0.0, compute_cps=1e9),
    "no compute, crossing at x=B": dict(compute_cps=0.0),
    "no compute, root above B": ROUNDS_ABOVE_B,
    "compute-rich, aB - c t_cons << 0": dict(compute_cps=1e12, kappa=1.0),
    "w_cap binds": dict(w_cap=50.0),
    "infeasible": dict(s_dl=4e6, s_ul=4e6),
}


class TestCoupledBisection:
    def test_crossing_at_half_bandwidth(self):
        p = ws_problem()
        sol = solve_workload(p)
        assert abs(sol.b_sens_hz - 1e6) <= 1e-6 * p.bandwidth_hz
        assert sol.w_star == 100
        assert sol.b_sens_hz + sol.b_comm_hz <= p.bandwidth_hz + 1e-9

    def test_cap_bound_releases_bandwidth(self):
        p = ws_problem(w_cap=50.0)
        sol = solve_workload(p)
        assert sol.w_star == 50
        # Thrifty split: 50 samples need 50*1e4/(1*1) = 5e5 Hz, not the
        # 1 MHz crossing.
        assert sol.b_sens_hz == pytest.approx(5e5)
        assert sol.t_sens <= p.t_gen + 1e-9

    def test_infeasible_comm(self):
        sol = solve_workload(ws_problem(s_dl=2e6, s_ul=2e6))
        # 4e6/(2e6*2) = 1 s... feasible; push further.
        assert sol.feasible
        sol = solve_workload(ws_problem(s_dl=4e6, s_ul=4e6))
        # 8e6/(2e6*2) = 2 s >= 1.5 s window.
        assert sol.w_star == 0
        assert not sol.feasible

    @pytest.mark.parametrize("overrides", CROSSING_EDGE_CASES.values(), ids=list(CROSSING_EDGE_CASES))
    def test_closed_form_matches_bisection_edge_cases(self, overrides):
        self.assert_matches_bisection([ws_problem(**overrides)])

    def test_closed_form_matches_bisection_random(self):
        rng = np.random.default_rng(11)
        problems = [p for p in (random_problem(rng) for _ in range(20000)) if p.coupled]
        assert len(problems) > 9000
        self.assert_matches_bisection(problems)

    def assert_matches_bisection(self, problems):
        for p in problems:
            x = workload._crossing_comm_hz(p)
            assert abs(x - bisection_comm_hz(p)) <= 1e-13 * p.bandwidth_hz
        for p, sol, ref in zip(problems, map(solve_workload, problems), bisection_solutions(problems)):
            assert sol.w_star == ref.w_star
            assert sol.feasible == ref.feasible
            assert abs(sol.b_sens_hz - ref.b_sens_hz) <= 1e-13 * p.bandwidth_hz
            assert 0.0 <= sol.b_sens_hz <= p.bandwidth_hz

    @pytest.mark.parametrize("name", [k for k in CROSSING_EDGE_CASES if k.startswith("kappa=0")])
    def test_kappa_zero_trains_for_free(self, name):
        """kappa = 0: training takes no time, so W* is the sensing cap at the
        least communication bandwidth S / (eta t_cons), or w_cap."""
        p = ws_problem(**CROSSING_EDGE_CASES[name])
        total = p.s_dl + p.s_ul
        b_sens = min(p.bandwidth_hz - total / (p.eta * p.t_cons), p.w_cap * p.sigma / p.rho)
        expected = math.floor(min(b_sens * p.rho * p.t_gen / p.sigma, p.w_cap) + 1e-9)
        sol = solve_workload(p)
        assert sol.w_star == expected > 0
        assert bisection_solutions([p])[0].w_star == expected
        assert sol.t_dl + sol.t_cp + sol.t_ul <= p.t_cons + 1e-9

    def test_uncoupled_ws_uses_full_band_for_sensing(self):
        p = ws_problem(coupled=False)
        sol = solve_workload(p)
        # Sensing cap 2e6/1e4 = 200; compute cap (1.5-0.25)*100 = 125.
        assert sol.w_star == 125
        assert sol.b_comm_hz == p.bandwidth_hz
        assert sol.b_sens_hz <= p.bandwidth_hz


class TestOracle:
    def test_vs_example_grid_200(self):
        assert oracle_workload(vs_problem(), grid=200) == 15

    def test_vs_example_grid_400(self):
        assert oracle_workload(vs_problem(), grid=400) == 15

    def test_ws_crossing_agrees(self):
        p = ws_problem()
        assert abs(solve_workload(p).w_star - oracle_workload(p, 400)) <= 1

    def test_infeasible_gives_zero(self):
        assert oracle_workload(vs_problem(s_dl=3e6, s_ul=3e6), 400) == 0

    def test_grid_refinement_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_problem(rng)
            assert oracle_workload(p, 2) <= oracle_workload(p, 400)

    def test_grid_too_small(self):
        with pytest.raises(InvalidProblem):
            oracle_workload(vs_problem(), grid=1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement(self, seed):
        p = random_problem(np.random.default_rng(seed))
        assert abs(solve_workload(p).w_star - oracle_workload(p, 400)) <= 1


class TestSolutionInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_windows_and_budgets_respected(self, seed):
        p = random_problem(np.random.default_rng(seed))
        sol = solve_workload(p)
        assert sol.w_star >= 0
        assert sol.w_star <= p.w_cap
        assert min(sol.t_sens, sol.t_dl, sol.t_cp, sol.t_ul) >= 0.0
        if sol.feasible:
            assert sol.t_sens <= p.t_gen + 1e-6
            assert sol.t_dl + sol.t_cp + sol.t_ul <= p.t_cons + 1e-6
        assert sol.b_sens_hz + sol.b_comm_hz <= p.bandwidth_hz * (1 + 1e-9) + 1e-9

    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_budget_monotonicity(self, seed, factor):
        p = random_problem(np.random.default_rng(seed))
        w0 = solve_workload(p).w_star
        for field in ("t_gen", "t_cons", "bandwidth_hz", "compute_cps", "w_cap"):
            grown = replace(p, **{field: getattr(p, field) * factor})
            assert solve_workload(grown).w_star >= w0, field

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_availability(self, seed):
        p = replace(random_problem(np.random.default_rng(seed)), w_cap=0.0)
        assert solve_workload(p).w_star == 0


class TestLatencyComponents:
    def test_zero_workload(self):
        p = vs_problem()
        t_sens, t_dl, t_cp, t_ul = latency_components(p, 0)
        assert t_sens == 0.0
        assert t_cp == 0.0
        assert t_dl == pytest.approx(0.5)
        assert t_ul == pytest.approx(0.5)

    def test_doubling_bandwidth_halves_comm(self):
        p = vs_problem()
        _, t_dl, _, t_ul = latency_components(p, 5)
        _, t_dl2, _, t_ul2 = latency_components(replace(p, bandwidth_hz=2e6), 5)
        assert t_dl2 == pytest.approx(t_dl / 2)
        assert t_ul2 == pytest.approx(t_ul / 2)

    def test_compute_time_example(self):
        # 15 samples * 1e7 cycles / 1e8 cycles/s = 1.5 s.
        _, _, t_cp, _ = latency_components(vs_problem(), 15)
        assert t_cp == pytest.approx(1.5)

    def test_ws_sensing_time(self):
        p = ws_problem()
        t_sens, _, _, _ = latency_components(p, 100)
        # 100 * 1e4 bits / (2e6 Hz * 1.0) = 0.5 s.
        assert t_sens == pytest.approx(0.5)

    def test_rejects_negative(self):
        with pytest.raises(InvalidProblem):
            latency_components(vs_problem(), -1)

    def test_zero_compute_is_infinite(self):
        t_sens, _, t_cp, _ = latency_components(vs_problem(compute_cps=0.0), 5)
        assert t_cp == math.inf
        assert t_sens == pytest.approx(0.5)


def edge_arrays_of(vs, t_gen, t_cons, **fields):
    """EdgeArrays from one array per `EDGE_FIELDS` name, broadcast to vs's shape."""
    values = np.stack([np.broadcast_to(fields.pop(k), np.shape(vs)) for k in EDGE_FIELDS])
    return EdgeArrays(values.astype(float), np.asarray(vs, dtype=bool), t_gen, t_cons, **fields)


@st.composite
def edge_arrays(draw):
    """Random (N×M) solver inputs, with N·M = 1 included, zeros sprinkled
    over every amount and rate, and each shared scalar sometimes 0."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, m)

    def some_zero(values):
        return np.where(rng.random(shape) < 0.2, 0.0, values)

    def scalar(lo, hi):
        return 0.0 if draw(st.integers(0, 3)) == 0 else float(rng.uniform(lo, hi))

    w_cap = rng.integers(0, 301, shape).astype(float)
    if draw(st.booleans()):
        w_cap += rng.random(shape)
    return edge_arrays_of(
        vs=rng.random(shape) < 0.5,
        t_gen=scalar(0.5, 3.0),
        t_cons=scalar(0.5, 4.0),
        bandwidth_hz=some_zero(rng.uniform(1e5, 8e6, shape)),
        compute_cps=some_zero(rng.uniform(1e7, 1e9, shape)),
        eta=rng.uniform(0.5, 8.0, shape),
        s_dl=some_zero(rng.uniform(1e4, 2e6, shape)),
        s_ul=some_zero(rng.uniform(1e4, 2e6, shape)),
        kappa=some_zero(rng.uniform(1e5, 1e7, shape)),
        w_cap=some_zero(w_cap),
        tau_s=scalar(0.005, 0.1),
        sigma=scalar(1e3, 1e5),
        rho=scalar(0.5, 4.0),
        coupled=draw(st.booleans()),
    )


NAMED_EDGES = {
    "vs": vs_problem(),
    "vs infeasible": vs_problem(s_dl=3e6, s_ul=3e6),
    "vs w_cap=0": vs_problem(w_cap=0.0),
    "vs F=0": vs_problem(compute_cps=0.0),
    "vs kappa=0": vs_problem(kappa=0.0),
    "vs B=0, no bits": vs_problem(bandwidth_hz=0.0, s_dl=0.0, s_ul=0.0),
    "vs B=0": vs_problem(bandwidth_hz=0.0),
    "ws uncoupled": ws_problem(coupled=False),
    "ws sigma=0": ws_problem(sigma=0.0),
    "ws rho=0": ws_problem(rho=0.0),
    "ws B=0": ws_problem(bandwidth_hz=0.0, s_dl=0.0, s_ul=0.0),
    "ws F=0": ws_problem(compute_cps=0.0),
    "ws w_cap=0": ws_problem(w_cap=0.0),
    **{f"ws {name}": ws_problem(**overrides) for name, overrides in CROSSING_EDGE_CASES.items()},
}


def assert_matches_scalar_reference(x):
    """Every edge of the array pass equals `solve_workload` and
    `latency_components(problem, int(w_cap))`, compared by repr so that each
    float must match to the bit."""
    solutions, table = solve_edges(x), edge_latencies(x)
    for i, j in np.ndindex(x.vs.shape):
        p = x.problem(i, j)
        got = WorkloadSolution.from_row(solutions[:, i, j].tolist())
        assert repr(got) == repr(solve_workload(p))
        assert repr(tuple(table[i, j].tolist())) == repr(latency_components(p, int(p.w_cap)))


class TestEdgeArrays:
    @given(edge_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference_bitwise(self, x):
        assert_matches_scalar_reference(x)

    @pytest.mark.parametrize("name", list(NAMED_EDGES))
    def test_named_cases_match_scalar_reference(self, name):
        p = NAMED_EDGES[name]
        x = edge_arrays_of(
            vs=np.array([[p.mode is SensingMode.VS]]),
            **{k: getattr(p, k) for k in EDGE_FIELDS},
            **{k: getattr(p, k) for k in SCALAR_FIELDS + ("coupled",)},
        )
        assert x.problem(0, 0) == p
        assert_matches_scalar_reference(x)

    @pytest.mark.parametrize("name", EDGE_FIELDS + SCALAR_FIELDS)
    def test_invalid_inputs_rejected(self, name):
        base = dict(
            vs=np.array([[True, False]]), t_gen=0.9, t_cons=0.7, bandwidth_hz=4e6,
            compute_cps=1e9, eta=2.0, s_dl=1e6, s_ul=1e6, kappa=1e7, w_cap=20.0,
            tau_s=0.01, sigma=1e4, rho=2.0, coupled=True,
        )
        edge_arrays_of(**base)
        bad = np.array([[1.0, -1.0]]) if name in EDGE_FIELDS else -1.0
        with pytest.raises(InvalidProblem, match=name):
            edge_arrays_of(**{**base, name: bad})
        if name == "eta":
            with pytest.raises(InvalidProblem, match="eta"):
                edge_arrays_of(**{**base, "eta": np.array([[1.0, 0.0]])})
