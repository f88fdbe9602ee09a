"""The benchmark's own tests: each check passes on a right answer and
catches a wrong one, the oracles reproduce published values, and the
tracer accounts for its spans.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_library()

from cpsfds import bench1d, euler2d, solver1d  # noqa: E402
from cpsfds.fds1d import SchemeKind  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GAMMA = oracles.GAMMA


def conserved(result):
    return oracles.conserved_1d(result.rho, result.u, result.p)


# --------------------------------------------------------------------------
# oracles

def test_exact_riemann_matches_toro_sod():
    # Toro, Riemann Solvers and Numerical Methods, Table 4.3, Test 1
    sol = oracles.RiemannSolution((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
    assert sol.p_star == pytest.approx(0.30313, abs=1e-5)
    assert sol.u_star == pytest.approx(0.92745, abs=1e-5)
    assert sol.rho_star[0] == pytest.approx(0.42632, abs=1e-5)
    assert sol.rho_star[1] == pytest.approx(0.26557, abs=1e-5)
    rho, u, p = sol.sample(np.array([-2.0, -0.5, 0.5, 1.2, 2.0]))
    assert rho[0] == 1.0 and rho[-1] == 0.125
    assert 0.42632 < rho[1] < 1.0                      # inside the fan
    assert rho[2] == pytest.approx(0.42632, abs=1e-5)
    assert rho[3] == pytest.approx(0.26557, abs=1e-5)


def test_exact_riemann_fans_are_continuous():
    sol = oracles.RiemannSolution((1.0, -0.4, 0.8), (0.7, 0.5, 0.6))
    g = GAMMA
    aL, aR = (math.sqrt(g * p / r) for r, _, p in (sol.left, sol.right))
    for head in (sol.left[1] - aL, sol.right[1] + aR):
        inside, outside = sol.sample(np.array([head * (1 - 1e-12),
                                               head * (1 + 1e-12)]))[0]
        assert inside == pytest.approx(outside, rel=1e-9)


def test_shock_relations_match_published_values():
    p2, p3 = oracles.regular_reflection_pressures(2.9, 29.0, 1.0 / GAMMA)
    assert p2 == pytest.approx(1.52819, rel=1e-5)   # the case's top state
    assert p3 == pytest.approx(2.934, rel=1e-3)
    assert oracles.rayleigh_pitot(6.0, 1.0) == pytest.approx(46.815,
                                                             rel=1e-4)
    rho2, u2, p2 = oracles.normal_shock_post(5.5, 1.4, 1.0)
    post = euler2d.post_shock_state(5.5, euler2d.Prim2D(1.4, 0.0, 0.0, 1.0),
                                    workloads.GAS)
    assert (rho2, u2, p2) == pytest.approx((post.rho, post.u, post.p),
                                           rel=1e-14)


# --------------------------------------------------------------------------
# sweep1d checks

@pytest.fixture
def sweep():
    return workloads.Sweep1D(7, None)


def test_smooth_checks_catch_a_perturbed_profile(sweep):
    case = sweep.cases["smooth"]
    res = bench1d.run_case(case, SchemeKind.ZBS_FDS, order=1,
                           gas=workloads.GAS)
    U = conserved(res)
    assert sweep._check_run("ok", case, U, res.errors.l1, 1) == \
        ([], pytest.approx(res.errors.l1))
    bent = U.copy()
    bent[0, 7] *= 1.0 + 1e-8
    msgs, _ = sweep._check_run("bent", case, bent, res.errors.l1, 1)
    assert any("scalar upwinding" in m for m in msgs)
    assert any("conserved totals" in m for m in msgs)


def run_ops(sweep, ids):
    """Run some of a workload's operations as run.py does."""
    captured = []
    ops = [op for op in sweep.ops() if op.id in ids]
    with spans.Tracer(run.solve_targets(captured)):
        wall, results = run.run_round(ops, captured)
    assert wall > 0.0 and all(r.solves for r in results.values())
    return results


def test_table_check_catches_an_error_that_does_not_fall(sweep):
    results = run_ops(sweep, {"table/sod/zbs", "table/seeded-0/tvs"})
    assert sweep.check(results) == []
    U, log = results["table/sod/zbs"].solves[-1]
    worse = U.copy()
    worse[0] += 0.2
    results["table/sod/zbs"].solves[-1] = (worse, log)
    msgs = [m for op_id, m in sweep.check(results)
            if op_id == "table/sod/zbs"]
    assert any("did not fall" in m for m in msgs)
    assert any(m.startswith("640 cells: reported L1") for m in msgs)


def test_known_fault_shows_for_zbs_only(sweep):
    results = run_ops(sweep, {"table/stagnant-jump/zbs",
                              "table/stagnant-jump/tvs"})
    bad = sweep.check(results)
    assert [op_id for op_id, _ in bad] == list(workloads.KNOWN_FAULTS)
    assert "did not fall" in bad[0][1]


def test_order_and_contact_checks_catch_wrong_answers(sweep):
    ids = {"sod/tvs/o1", "sod/tvs/o2", "contact/zbs/o1"}
    results = run_ops(sweep, ids)
    assert sweep.check(results) == []
    o1, o2 = results["sod/tvs/o1"], results["sod/tvs/o2"]
    o1.solves, o2.solves = o2.solves, o1.solves
    o1.value, o2.value = o2.value, o1.value
    bad = sweep.check(results)
    assert [r for r, _ in bad] == ["sod/tvs/o2"]
    U, log = results["contact/zbs/o1"].solves[0]
    moved = U.copy()
    moved[0, 50] += 1e-10
    results["contact/zbs/o1"].solves[0] = (moved, log)
    assert any("stationary contact" in m for _, m in sweep.check(results))


def test_seeded_zbs_blow_up_is_still_there():
    case = workloads.riemann_case("zbs-blow-up",
                                  *workloads.SEEDED_ZBS_BLOW_UP)
    with pytest.raises(solver1d.SolverBlowUp, match="at step 1"):
        bench1d.run_case(case, SchemeKind.ZBS_FDS, n_cells=40,
                         gas=workloads.GAS)
    bench1d.run_case(case, SchemeKind.TVS_FDS, n_cells=40, gas=workloads.GAS)


def test_positivity_check_catches_a_negative_pressure(sweep):
    case = sweep.cases["sod"]
    res = bench1d.run_case(case, SchemeKind.ZBS_FDS, gas=workloads.GAS)
    U = conserved(res)
    U[2, 3] = 0.4 * U[1, 3] ** 2 / U[0, 3]         # p < 0 in cell 3
    msgs, _ = sweep._check_run("neg", case, U, res.errors.l1, 1)
    assert msgs and "non-positive" in msgs[0]


def test_seeded_problems_follow_the_seed():
    a = workloads.seeded_riemann_problems(3)
    b = workloads.seeded_riemann_problems(3)
    c = workloads.seeded_riemann_problems(4)
    assert [(x.left, x.right, x.t_final) for x in a] == \
        [(x.left, x.right, x.t_final) for x in b]
    assert a[0].left != c[0].left


# --------------------------------------------------------------------------
# wedge2d check

def test_mass_balance_catches_scaled_density_and_missing_rows(tmp_path):
    from cpsfds import cli
    path = tmp_path / "wedge.csv"
    t = workloads.WEDGE["t_final"]
    assert cli.main(["run", "--case", "wedge", "--grid", "40x40",
                     "--t-final", repr(t), "--out", str(path)]) == 0
    assert workloads.wedge_mass_balance(path, 40, 40, t) == []

    lines = path.read_text(encoding="utf-8").splitlines()
    k = lines.index("x,y,rho,u,v,p") + 1
    scaled = []
    for line in lines[k:]:
        vals = line.split(",")
        vals[2] = repr(float(vals[2]) * (1.0 + 1e-6))
        scaled.append(",".join(vals))
    bad = tmp_path / "scaled.csv"
    bad.write_text("\n".join(lines[:k] + scaled) + "\n", encoding="utf-8")
    msgs = workloads.wedge_mass_balance(bad, 40, 40, t)
    assert len(msgs) == 1 and msgs[0].startswith("mass")

    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert "rows" in workloads.wedge_mass_balance(short, 40, 40, t)[0]


# --------------------------------------------------------------------------
# steady2d checks

def reflection_field(scale=1.0):
    """The exact regular-reflection pressure field on the 120x40 grid."""
    r = workloads.REFLECTION
    (ni, nj), (lx, ly) = r["grid"], r["domain"]
    x = (np.arange(ni)[:, None] + 0.5) * lx / ni + 0 * np.arange(nj)
    y = (np.arange(nj)[None, :] + 0.5) * ly / nj + 0 * x
    beta = math.radians(r["beta_deg"])
    p2, p3 = oracles.regular_reflection_pressures(r["mach"], r["beta_deg"],
                                                  r["p1"])
    _, theta, m2 = oracles.oblique_shock(r["mach"], beta)
    tilt = oracles.weak_shock_angle(m2, theta) - theta
    x_hit = 1.0 / math.tan(beta)
    p = np.where(y < 1.0 - x * math.tan(beta), r["p1"], p2)
    p = np.where(y < (x - x_hit) * math.tan(tilt), p3, p) * scale
    one = np.ones_like(p)
    return np.stack([one, 0 * one, 0 * one, p / (GAMMA - 1.0)])


def test_reflection_checks_catch_wrong_pressures_and_no_steady_stop():
    assert workloads.reflection_checks(reflection_field(), 3.0, 20.0, 1) == []
    assert workloads.reflection_checks(reflection_field(), 0.5, 0.5, 2) == []
    assert len(workloads.reflection_checks(reflection_field(1.01), 3.0,
                                           20.0, 1)) == 2
    assert len(workloads.reflection_checks(reflection_field(0.99), 0.5,
                                           0.5, 2)) == 1
    msgs = workloads.reflection_checks(reflection_field(), 20.0, 20.0, 1)
    assert msgs == ["reached t_final 20.0 without steady_drop"]


def half_cylinder_field(line):
    p = np.ones((len(line), 45))
    p[:, 22] = line
    one = np.ones_like(p)
    return np.stack([one, 0 * one, 0 * one, p / (GAMMA - 1.0)])


def test_half_cylinder_checks_catch_a_dip_and_a_wrong_stagnation_pressure():
    line = np.concatenate([np.ones(30), np.linspace(3.0, 46.4, 15)])
    assert workloads.half_cylinder_checks(half_cylinder_field(line)) == []
    dip = line.copy()
    dip[40] = dip[39] - 0.5
    assert "falls" in workloads.half_cylinder_checks(
        half_cylinder_field(dip))[0]
    low = line.copy()
    low[-1] = 44.0
    assert "pitot" in workloads.half_cylinder_checks(
        half_cylinder_field(low))[0]


# --------------------------------------------------------------------------
# tracing and the command

def test_traced_spans_nest_and_are_removed_afterwards():
    original = solver1d.advance
    captured = []
    tracer = spans.Tracer(run.layer_targets() + run.solve_targets(captured))
    case = bench1d.get_case("sod")
    with tracer:
        assert solver1d.advance is not original
        res = bench1d.run_case(case, SchemeKind.ZBS_FDS, order=2,
                               gas=workloads.GAS)
    assert solver1d.advance is original and bench1d.advance is original
    by = tracer.by_name
    adv = by["solver1d.advance"]
    assert adv.counters["steps"] == res.steps and len(captured) == 1
    assert by["fds1d.interface_flux_batch"].calls == 2 * res.steps
    assert by["fds1d.interface_flux_batch"].counters["faces"] == \
        2 * res.steps * (case.n_cells + 1)
    children = sum(s.total_s for (parent, _), s in tracer.by_edge.items()
                   if parent == "solver1d.advance")
    assert adv.self_s == pytest.approx(adv.total_s - children, abs=1e-9)
    assert all(s.self_s >= 0.0 for s in by.values())


def test_command_fails_without_the_library(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
