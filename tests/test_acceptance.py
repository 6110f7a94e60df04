"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on passing runs).  Criterion 1 samples 20000 fields on a
24 x 24 grid in about 1 s; criterion 3 draws 200 runs of 4000 replicas in
well under a second, since sampling builds one random-number stream per
512-replica block.
"""

import json
import math

import numpy as np
from scipy.special import beta as beta_fn

from suptail import supbound
from suptail.cli import main
from suptail.entropy import HolderProfile, c1_constant, entropy_integral_closed
from suptail.heat import (
    SheModel,
    noise_constant,
    she_growth_envelope,
    space_increment_coefficient,
    time_increment_coefficient,
    variance_coefficient,
)
from suptail.metric import AnisotropicBox, _tile_counts, covering_oracle, covering_upper_bound
from suptail.orlicz import PhiFamily, rv_tail_bound
from suptail.sim import (
    covariance_matrix,
    empirical_sup_tail,
    factor_covariance,
    make_grid,
    sample_fields,
    sample_sups,
    v_covariance,
    verdicts,
)
from quadrature_oracle import QuadratureError, entropy_integral_numeric, spectral_density_moment
from test_metric import cover_misses, random_feasible_config


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_bound_vs_simulation():
    """V-field sup-tail simulation never contradicts the optimized bound."""
    from suptail.heat import v_bound_inputs

    model = SheModel(hurst=0.5)
    box = AnisotropicBox(0.1, 1.0, 0.0, 1.0)
    inputs = v_bound_inputs(box, model)  # exponents (H/2, H), eps0 = A(H) b1^(H/2)
    # the threshold is log-convex in theta with its minimum at (1-q)/(2-q)
    q = 1.0 - 1.0 / inputs.gamma_beta
    theta = min((1.0 - q) / (2.0 - q), inputs.cap * (1.0 - 1e-9))
    u_min = supbound.u_threshold(theta, inputs)
    us = [float(u) for u in np.linspace(1.02 * u_min, 2.0 * u_min, 12)]

    chol = factor_covariance(covariance_matrix(*make_grid(box, 24, 24), 0.5))
    sups = sample_sups(chol, 20000, seed=20240501, workers=1)
    _, ci_lo, _ = empirical_sup_tail(sups, us)
    bounds = [supbound.optimize_theta(u, inputs)[1] for u in us]
    got = verdicts(ci_lo, bounds)
    report(
        1,
        all(v == "PASS" for v in got),
        f"verdicts {set(got)} at {len(us)} u-values above threshold {u_min:.2f}",
    )


def test_criterion_02_variance_identity():
    """v_covariance(t,x,t,x) = C_H c_1H t^H within 1e-8 on 50 random points."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        hurst = float(rng.uniform(0.1, 0.5))
        t = float(rng.uniform(0.05, 2.0))
        x = float(rng.uniform(-2.0, 2.0))
        got = v_covariance(t, x, t, x, hurst)
        want = noise_constant(hurst) * variance_coefficient(hurst) * t ** hurst
        worst = max(worst, abs(got - want))
    report(2, worst <= 1e-8, f"max |kernel - closed| = {worst:.2e} <= 1e-8")


def test_criterion_03_increment_bound():
    """Sampled E|V(t,x)-V(s,y)|^2 <= (c_V(|dt|^(H/2)+|dx|^H))^2 + 5 SE."""
    rng = np.random.default_rng(203)
    n = 4000
    failures = 0
    for hurst in (0.5, 0.25):
        model = SheModel(hurst=hurst)
        for _ in range(100):
            t, s = rng.uniform(0.05, 1.0, size=2)
            x, y = rng.uniform(0.0, 1.0, size=2)
            # on the 2x2 grid (t, s) x (x, y), (t, x) is point 0 and (s, y) point 3
            chol = factor_covariance(covariance_matrix((t, s), (x, y), hurst))
            fields = sample_fields(chol, n, seed=int(rng.integers(1 << 31)))
            diff2 = (fields[:, 0] - fields[:, 3]) ** 2
            bound = (
                model.c_v * (abs(t - s) ** (hurst / 2) + abs(x - y) ** hurst)
            ) ** 2
            se = diff2.std(ddof=1) / math.sqrt(n)
            if diff2.mean() > bound + 5 * se:
                failures += 1
    report(3, failures == 0, f"{failures} violations in 200 sampled point pairs")


def test_criterion_04_constant_fixtures():
    """c_2H(1/2), c_3H(1/2), c_3H continuity, C_H(1/2) at stated tolerances."""
    c2_err = abs(
        time_increment_coefficient(0.5)
        - (2 * math.sqrt(math.pi) - math.sqrt(2 * math.pi))
    )
    c3_exact = space_increment_coefficient(0.5) == math.pi / 2
    c3_cont = abs(space_increment_coefficient(0.499) - math.pi / 2)
    ch_err = abs(noise_constant(0.5) - 1.0 / (2 * math.pi))
    ok = c2_err <= 1e-6 and c3_exact and c3_cont <= 1e-2 and ch_err <= 1e-12
    report(
        4,
        ok,
        f"|c2H-closed|={c2_err:.1e}<=1e-6, c3H(1/2)==pi/2: {c3_exact}, "
        f"|c3H(0.499)-pi/2|={c3_cont:.1e}<=1e-2, |C_H-1/2pi|={ch_err:.1e}<=1e-12",
    )


def test_criterion_05_entropy_domination_and_covering():
    """Numeric entropy integral <= closed form + 1e-6; oracle <= covering bound,
    with the oracle's count that of a cover that reaches every grid point."""
    worst_gap = -math.inf
    checked = 0
    for alpha in (1.25, 1.5, 2.0):
        fam = PhiFamily(alpha)
        for gamma in (0.6, 0.8, 1.0):
            prof = HolderProfile(1.0, gamma)
            if gamma * fam.beta <= 1.0:
                continue
            for h1 in (0.25, 0.5, 1.0):
                for h2 in (0.25, 0.5, 1.0):
                    box = AnisotropicBox(0, 1, 0, 1, h1, h2)
                    c1 = c1_constant(box, prof, fam)
                    gamma0 = prof.sigma(box.diameter)
                    for frac in (0.4, 1.0):
                        eps = frac * gamma0
                        numeric = entropy_integral_numeric(eps, box, prof, fam)
                        closed = entropy_integral_closed(eps, c1, prof, fam)
                        worst_gap = max(worst_gap, numeric - closed)
                        checked += 1
    rng = np.random.default_rng(205)
    cover_ok = 0
    for _ in range(50):
        box, eps = random_feasible_config(rng)
        counts = _tile_counts(box, eps, 81)
        reached = cover_misses(box, eps, 81, counts) == 0
        if reached and covering_oracle(box, eps, 81) == math.prod(counts) <= covering_upper_bound(box, eps):
            cover_ok += 1
    ok = worst_gap <= 1e-6 and cover_ok == 50
    report(
        5,
        ok,
        f"max(numeric-closed)={worst_gap:.2e}<=1e-6 over {checked} configs; "
        f"checked cover, oracle<=bound on {cover_ok}/50 random configs",
    )


def test_criterion_06_theta_optimization():
    """Optimized theta beats the substituted and the midpoint theta."""
    rng = np.random.default_rng(206)
    compared = 0
    while compared < 20:
        alpha = float(rng.uniform(1.2, 2.0))
        gamma = float(rng.uniform(0.6, 1.0))
        fam = PhiFamily(alpha)
        if gamma * fam.beta <= 1.05:
            continue
        h1, h2 = rng.uniform(0.3, 1.0, size=2)
        box = AnisotropicBox(0, float(rng.uniform(0.5, 2.0)), 0, float(rng.uniform(0.5, 2.0)), h1, h2)
        prof = HolderProfile(float(rng.uniform(0.5, 2.0)), gamma)
        inputs = supbound.field_bound(float(rng.uniform(0.5, 1.5)), box, prof, fam)
        thetas = np.geomspace(1e-4, inputs.cap * (1 - 1e-9), 256)
        u = 3.0 * min(supbound.u_threshold(float(t), inputs) for t in thetas)
        _, opt = supbound.optimize_theta(u, inputs)
        gb = gamma * fam.beta
        theta_h = u ** (-gb / (gb + 1.0))
        for theta in (theta_h, 0.5):
            if not (0 < theta < inputs.cap):  # theta < 1 and theta eps0 < gamma0
                continue
            other = supbound.sup_tail_bound(u, theta, inputs)
            if not math.isnan(other):
                assert opt <= other * (1 + 1e-9) + 1e-300
        compared += 1

    report(6, True, f"optimizer beat substituted/midpoint theta on {compared} configs")


def test_criterion_07_growth_series_zeta():
    """C~ from the zeta closed form matches A(H) e^(H/2) (1 + pi^2/6) to 1e-6,
    and so does the bound's scale, C~ plus its remainder."""
    model = SheModel(hurst=0.5)
    bound, c_tilde, _ = she_growth_envelope(model, p=2.0, halfwidth=1.0)
    target = model.a_h * math.exp(0.25) * (1.0 + math.pi ** 2 / 6.0)
    err = abs(c_tilde.value - target)
    scale_err = abs(bound.scale - target)
    ok = (
        err <= 1e-6
        and c_tilde.remainder <= 1e-6
        and bound.scale == c_tilde.value + c_tilde.remainder
        and scale_err <= 1e-6
    )
    report(
        7,
        ok,
        f"|zeta(2) form - pi^2/6 form| = {err:.2e} <= 1e-6 "
        f"(rounding remainder {c_tilde.remainder:.2e}; bound scale off by {scale_err:.2e})",
    )


def test_criterion_08_matern_moments():
    """Quadrature equals sigma^2 B(eps+1/2, 2a-eps-1/2) to 1e-8; divergent moment raises."""
    rng = np.random.default_rng(208)
    checked = 0
    worst = 0.0
    while checked < 10:
        alpha_m = float(rng.uniform(0.6, 3.0))
        eps = float(rng.uniform(0.05, 0.5))
        if 2 * alpha_m - eps - 0.5 <= 0.05:
            continue
        sigma2 = float(rng.uniform(0.5, 2.0))
        closed = sigma2 * beta_fn(eps + 0.5, 2 * alpha_m - eps - 0.5)
        numeric = spectral_density_moment(
            lambda lam, s=sigma2, a=alpha_m: s / (1 + lam * lam) ** (2 * a), eps
        )
        worst = max(worst, abs(numeric - closed))
        checked += 1
    # 2a - eps - 1/2 <= 0: the moment diverges and no value may be returned
    divergent_raised = 0
    for alpha_m, eps in ((0.5, 0.5), (0.26, 0.05)):
        try:
            spectral_density_moment(lambda lam, a=alpha_m: 1.0 / (1 + lam * lam) ** (2 * a), eps)
        except QuadratureError:
            divergent_raised += 1
    ok = worst <= 1e-8 and divergent_raised == 2
    report(
        8,
        ok,
        f"max |quadrature - beta closed form| = {worst:.2e} <= 1e-8 on 10 pairs; "
        f"divergent moments raised: {divergent_raised}/2",
    )


def test_criterion_09_single_variable_tail():
    """Empirical Gaussian tail (1e6 draws, 99% CI) never exceeds the bound."""
    rng = np.random.default_rng(209)
    draws = rng.standard_normal(1_000_000)
    fam = PhiFamily(2.0)
    us = np.arange(0.5, 4.01, 0.5)
    # one variable is its own supremum: the tail of |X| with its CI limits
    _, ci_lo, _ = empirical_sup_tail(np.abs(draws), us)

    ok = True
    details = []
    for u, lo in zip(us, ci_lo):
        bound = rv_tail_bound(float(u), 1.0, fam)
        details.append(f"u={u}: ci_lo={lo:.2e} bound={bound:.2e}")
        if lo > bound:
            ok = False
    report(9, ok, "; ".join(details[:3]) + " ...")


def test_criterion_10_determinism_across_workers(tmp_path):
    """simulate-verify outputs are byte-identical for 1 and 3 worker threads."""
    base = {
        "field": "v",
        "model": {"hurst": 0.5},
        "box": {"a1": 0.1, "b1": 1.0, "a2": 0.0, "b2": 1.0},
        "grid": {"nt": 6, "nx": 6},
        "samples": 600,
        # u below the validity threshold too, where the empirical tail is not 0
        "u_grid": [0.5, 1.0, 1.5, 2.0, 80.0],
    }
    outputs = {}
    for workers in (1, 3):
        cfg = tmp_path / f"cfg{workers}.json"
        cfg.write_text(json.dumps({**base, "workers": workers}), encoding="utf-8")
        out = tmp_path / f"out{workers}"
        code = main(
            ["simulate-verify", "--config", str(cfg), "--out", str(out), "--seed", "99"]
        )
        assert code == 0
        outputs[workers] = (
            (out / "verify_report.json").read_bytes(),
            (out / "verify_curve.csv").read_bytes(),
        )
    ok = outputs[1] == outputs[3]
    report(10, ok, "report and curve bytes identical across 1 and 3 workers")
