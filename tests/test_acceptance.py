"""Acceptance checks: one test (and one printed PASS/FAIL line) per guarantee.

Run `pytest tests/test_acceptance.py -v -s` to see the summary lines.  Each
check compares package output against an independent oracle (the RK4
integrator from conftest, direct algebra, or exhaustive grid enumeration)
at the stated tolerance.
"""
import math

import numpy as np
import pytest

from conftest import angle_gap, chord_ratio_limit, rk4_full, rk4_piecewise_reduced, rk4_reduced
from grid_masks import binary_erode
from reference_charts import conj_psi1, conj_psi2, flow_product
from se2control.flow import equilibrium, flow_r2
from se2control.geometry import (
    check_invariance,
    circle_params,
    chord_ratio,
    invariant_ball,
)
from se2control.group import TWO_PI, to_complex
from se2control.planner import plan_periodic
from se2control.reachability import (
    default_grid_config,
    degenerate_structure_check,
    reach_backward,
    reach_forward,
)
from se2control.system import ReducedSpec, SystemSpec, classify, larc, prepare, reduce_system


def report(label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def unit(rng) -> np.ndarray:
    a = rng.uniform(0.0, TWO_PI)
    return np.array([math.cos(a), math.sin(a)])


def test_01_closed_form_flow_matches_rk4_oracle():
    # 200 seeded scenarios over lam, mu in [-3, 3], |eta| <= 2, u in omega,
    # horizon <= 5.  Expanding systems amplify the integrator's own
    # truncation error by e^{lam*s}, so lam*s is kept bounded and scenarios
    # whose constant-control equilibrium is far away are resampled; otherwise
    # the *oracle*, not the closed form, would exceed the tolerance.
    rng = np.random.default_rng(101)
    max_dev = 0.0
    n = 0
    while n < 200:
        lam = rng.uniform(-3.0, 3.0)
        mu = rng.uniform(-3.0, 3.0)
        eta = rng.uniform(0.2, 2.0) * unit(rng)
        omega = (-rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5))
        u = rng.uniform(*omega)
        v0 = rng.uniform(-2.0, 2.0, size=2)
        horizon = rng.uniform(0.2, 5.0)
        if lam == 0.0 and mu == 0.0:
            continue
        rs = ReducedSpec(lam, mu, eta, omega)
        if rs.det_a_of_u(u) < 1e-6 or np.linalg.norm(equilibrium(rs, u)) > 10.0:
            continue
        if lam > 0.0:
            horizon = min(horizon, 1.2 / lam)
        got = flow_r2(rs, horizon, v0, u)
        want = rk4_reduced(lam, mu, eta, horizon, v0, u, step=1e-3)
        max_dev = max(max_dev, float(np.linalg.norm(got - want)))
        n += 1
    report(
        "01 closed-form planar flow vs RK4 oracle, 200 scenarios",
        max_dev < 1e-8,
        f"max_dev={max_dev:.3e} tol=1e-08",
    )


def test_02_conjugation_charts_intertwine_trajectories():
    # 50 seeded systems with alpha != 0, det A != 0 and the rank condition:
    # pushing the RK4-integrated original trajectory through psi2 o psi1
    # must land on the closed-form reduced trajectory started from the
    # mapped initial state, with the control rescaled by alpha.
    rng = np.random.default_rng(202)
    max_dev = 0.0
    n = 0
    while n < 50:
        lam = rng.uniform(-2.0, 2.0)
        mu = rng.uniform(-2.0, 2.0)
        if lam * lam + mu * mu < 0.09:
            continue
        alpha = rng.uniform(0.5, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        xi = rng.uniform(-1.5, 1.5, size=2)
        eta1 = rng.uniform(-1.5, 1.5, size=2)
        spec = SystemSpec(alpha, xi, np.array([[lam, -mu], [mu, lam]]), eta1,
                          (-1.0, 1.0))
        if not larc(spec):
            continue
        rs = reduce_system(spec)
        g0 = np.array([rng.uniform(0.0, TWO_PI), *rng.uniform(-2.0, 2.0, size=2)])
        u = rng.uniform(-1.0, 1.0)
        s = rng.uniform(0.1, 2.0)
        if lam > 0.0:
            s = min(s, 1.5 / lam)
        end = rk4_full(alpha, xi, lam, mu, eta1, s, g0, u, step=1e-3)
        mapped = conj_psi2(conj_psi1(spec.A, spec.xi, end))
        h0 = conj_psi2(conj_psi1(spec.A, spec.xi, g0))
        hf = flow_product(rs, s, h0, alpha * u)
        dev = angle_gap(mapped[0], hf[0]) + float(np.linalg.norm(mapped[1:] - hf[1:]))
        max_dev = max(max_dev, dev)
        n += 1
    report(
        "02 conjugation charts map trajectories onto reduced flow, 50 systems",
        max_dev < 1e-8,
        f"max_dev={max_dev:.3e} tol=1e-08",
    )


def test_03_equilibria_lie_on_the_predicted_circle():
    rng = np.random.default_rng(303)
    worst_circle = 0.0
    worst_alg = 0.0
    for _ in range(20):
        lam = rng.uniform(0.3, 3.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        mu = rng.uniform(-3.0, 3.0)
        eta = rng.uniform(0.3, 2.0) * unit(rng)
        b = rng.uniform(1.0, 3.0)
        rs = ReducedSpec(lam, mu, eta, (-b, b))
        circle = circle_params(rs)
        us = np.linspace(-b, b, 10_000)
        # One call per config; the rows equal one-row equilibrium calls.
        v = to_complex(equilibrium(rs, us))
        gaps = np.abs(v - complex(*circle.center)) - circle.radius
        worst_circle = max(worst_circle, float(np.max(np.abs(gaps))))
        # A(u) = A - u theta acts as multiplication by lam + i (mu - u).
        residual = (rs.lam + 1j * (rs.mu - us)) * v + us * complex(*rs.eta)
        worst_alg = max(worst_alg, float(np.max(np.abs(residual))))
    ok = worst_circle < 1e-9 and worst_alg <= 1e-12
    report(
        "03 equilibrium curve on circle, 20 configs x 1e4 controls",
        ok,
        f"circle_residual={worst_circle:.3e} tol=1e-09, "
        f"algebraic_residual={worst_alg:.3e} tol=1e-12",
    )


def test_04_spiral_chord_bound_strict_on_dense_grid():
    sigmas = np.linspace(0.1, 10.0, 50)
    nus = np.linspace(0.1, 10.0, 50)
    smags = np.geomspace(1e-3, 20.0, 200)
    sg, ng, tg = np.meshgrid(sigmas, nus, smags, indexing="ij")
    lim = chord_ratio_limit(sg, ng)
    margin = np.inf
    for sign in (1.0, -1.0):
        margin = min(margin, float(np.min(lim - chord_ratio(sg, ng, sign * tg))))
    small_dev = 0.0
    sg2, ng2 = np.meshgrid(sigmas, nus, indexing="ij")
    for s in (1e-6, -1e-6):
        small_dev = max(
            small_dev, float(np.max(np.abs(chord_ratio(sg2, ng2, s) - chord_ratio_limit(sg2, ng2))))
        )
    ok = margin > 0.0 and small_dev < 1e-6
    report(
        "04 strict spectral bound on 50x50x200 grid, both signs of s",
        ok,
        f"min_margin={margin:.3e}, small_s_dev={small_dev:.3e} tol=1e-06",
    )


def test_05_invariant_ball_zero_violations():
    results = []
    for lam in (1.0, -1.0):
        rs = ReducedSpec(lam, 1.5, (1.0, 0.5), (-1.0, 1.0))
        rep = check_invariance(rs, n_samples=10_000, seed=505, horizon=2.0)
        results.append((lam, rep.violations_inward + rep.violations_outward))
    ok = all(v == 0 for _, v in results)
    report(
        "05 invariant ball, 1e4 samples for lam=+1 and lam=-1",
        ok,
        ", ".join(f"lam={lam:+.0f} violations={v}" for lam, v in results),
    )


def test_06_backward_reach_consistent_across_seed_equilibria():
    rs = ReducedSpec(1.0, 2.0, (1.0, 0.0), (-1.0, 1.0))
    cfg = default_grid_config(rs)
    sets = [reach_backward(rs, equilibrium(rs, u), cfg) for u in (-0.5, 0.5)]
    assert not any(r.truncated for r in sets)
    occ_a, occ_b = (r.occupied for r in sets)
    sym = occ_a ^ occ_b
    core = binary_erode(occ_a, 2) | binary_erode(occ_b, 2)
    layer_ok = not bool(np.any(sym & core))

    ball = invariant_ball(rs)
    diag = cfg.resolution * math.sqrt(2.0)
    ball_ok = all(
        float(np.max(np.linalg.norm(r.cell_centers() - ball.center, axis=1)))
        <= ball.radius + diag
        for r in sets
    )

    interior = np.linspace(rs.omega[0], rs.omega[1], 21)[1:-1]
    eq_ok = all(r.contains(equilibrium(rs, u)) for r in sets for u in interior)

    ok = layer_ok and ball_ok and eq_ok
    report(
        "06 backward reach: seed-independent up to 2-cell layer, inside ball, "
        "covers equilibria",
        ok,
        f"symdiff_cells={int(np.count_nonzero(sym))}, layer_ok={layer_ok}, "
        f"ball_ok={ball_ok}, equilibria_ok={eq_ok}",
    )


def test_07_trace_zero_forward_reach_covers_disk():
    rs = ReducedSpec(0.0, 1.0, (1.0, 0.0), (-2.0, 2.0))
    cfg = default_grid_config(rs, resolution=0.02, bounds=(-2.0, 2.0, -2.0, 2.0))
    rset = reach_forward(rs, np.zeros(2), cfg)
    nx, ny = cfg.shape
    xs = cfg.bounds[0] + (np.arange(nx) + 0.5) * cfg.resolution
    ys = cfg.bounds[2] + (np.arange(ny) + 0.5) * cfg.resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    in_disk = np.hypot(gx, gy) <= 1.5
    frac = float(np.count_nonzero(rset.occupied & in_disk)) / float(
        np.count_nonzero(in_disk)
    )
    report(
        "07 rotation-only forward reach covers test disk at resolution 0.02",
        frac >= 0.99,
        f"coverage={frac:.4f} required=0.99",
    )


def test_08_planner_closes_loops_through_origin():
    rs = ReducedSpec(0.0, 1.0, (1.0, 0.0), (-2.0, 2.0))
    rng = np.random.default_rng(808)
    worst_closed = 0.0
    worst_rk4 = 0.0
    all_in_omega = True
    radii_ok = True
    for _ in range(20):
        v0 = rng.uniform(0.5, 10.0) * unit(rng)
        plan = plan_periodic(rs, v0)
        worst_closed = max(worst_closed, plan.closure_error)
        end = rk4_piecewise_reduced(
            rs.lam, rs.mu, rs.eta, plan.control.segments, v0, step=1e-3
        )
        worst_rk4 = max(worst_rk4, float(np.linalg.norm(end - v0)))
        all_in_omega &= all(
            rs.omega[0] <= u <= rs.omega[1] for _, u in plan.control.segments
        )
        radii_ok &= all(b < a for a, b in zip(plan.radii, plan.radii[1:]))
    ok = worst_closed < 1e-8 and worst_rk4 < 1e-6 and all_in_omega and radii_ok
    report(
        "08 planner closes 20 seeded loops (|v0| <= 10, mu=1, omega=[-2,2])",
        ok,
        f"max_closure={worst_closed:.3e} tol=1e-08, "
        f"max_rk4_closure={worst_rk4:.3e} tol=1e-06, "
        f"controls_in_omega={all_in_omega}, radii_decreasing={radii_ok}",
    )


def test_09_degenerate_monotone_functional_and_line_confinement():
    spec = SystemSpec(1.0, np.array([0.8, -0.4]), np.zeros((2, 2)),
                      np.array([0.3, 0.2]), (-1.0, 1.0))
    rep = degenerate_structure_check(spec, n_samples=100, seed=909, n_pairs=12)
    mutual_funcs = [p["functional"] for p in rep.pairs if p["mutual"]]
    ok = (
        rep.min_functional_increment > 0.0
        and rep.counterexamples == 0
        and rep.n_mutual >= 1
        and all(f < 1e-6 for f in mutual_funcs)
    )
    report(
        "09 degenerate case: functional strictly increases, mutual pairs on line",
        ok,
        f"min_increment={rep.min_functional_increment:.3e}, "
        f"mutual={rep.n_mutual}, counterexamples={rep.counterexamples}, "
        f"max_mutual_offset={max(mutual_funcs):.3e} tol=1e-06",
    )


def test_10_boundary_orbit_period_and_continuum():
    # A = I + 2 theta, alpha = 1, xi = 0: the reduction is lam 1, mu 2, eta (1, 0).
    spec = SystemSpec(1.0, np.zeros(2), [[1.0, -2.0], [2.0, 1.0]], [1.0, 0.0], (-3.0, 3.0))
    rs = reduce_system(spec)
    assert rs.to_dict() == ReducedSpec(1.0, 2.0, (1.0, 0.0), (-3.0, 3.0)).to_dict()
    orbit = classify(prepare(spec)).boundary_structure
    period_ok = orbit["kind"] == "periodic_orbit" and orbit["period"] == math.pi
    vmu = equilibrium(rs, 2.0)
    g0 = np.array([0.7, *vmu])
    end = flow_product(rs, math.pi, g0, 2.0)
    ret = angle_gap(end[0], g0[0]) + float(np.linalg.norm(end[1:] - vmu))
    rk4_ret = float(
        np.linalg.norm(rk4_reduced(rs.lam, rs.mu, rs.eta, math.pi, vmu, 2.0) - vmu)
    )
    orbit_ok = ret <= 1e-10 and rk4_ret <= 1e-10

    spec0 = SystemSpec(1.0, np.zeros(2), np.eye(2), [1.0, 0.0], (-1.0, 1.0))
    rs0 = reduce_system(spec0)
    assert rs0.to_dict() == ReducedSpec(1.0, 0.0, (1.0, 0.0), (-1.0, 1.0)).to_dict()
    continuum_ok = classify(prepare(spec0)).boundary_structure["kind"] == "continuum_of_fixed_points"
    g = np.array([1.3, 0.0, 0.0])
    fixed = flow_product(rs0, 2.7, g, 0.0)
    fixed_ok = np.array_equal(fixed, g)

    ok = period_ok and orbit_ok and continuum_ok and fixed_ok
    report(
        "10 boundary structure: orbit period pi exact, return <= 1e-10, "
        "continuum fixed exactly",
        ok,
        f"period_exact={period_ok}, orbit_return={ret:.3e}, "
        f"rk4_return={rk4_ret:.3e}, continuum={continuum_ok}, fixed={fixed_ok}",
    )
