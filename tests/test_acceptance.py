"""Acceptance gate: the eight headline requirements, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities and
the tolerance it was judged against.
"""

import time

import numpy as np

from sgfem.analysis import (
    KORN_BOUND,
    coercivity_check,
    convergence_study,
    jump_check,
    korn_ratio,
    korn_ratio_min,
)
from sgfem.assembly import MaterialParams, build_dofmap
from sgfem.elements import (
    duality_residual,
    specht_constraint_residual,
    verify_affine_identity,
)
from sgfem.manufactured import example_field, example_layer, source
from sgfem.mesh import make_structured
from sgfem.verify import (
    boundary_points,
    fd_source,
    random_geometries,
    random_quartic_samples,
)

KINDS = ("ntw", "specht", "morley")


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def final_rate(kind, example, iota):
    start = time.perf_counter()
    rep = convergence_study(kind, example, [iota], 4, make_structured(8))[0]
    wall = time.perf_counter() - start
    return rep.rows[-1].rate, wall


def test_criterion_1_smooth_rates_large_iota():
    results = {kind: final_rate(kind, "smooth", 1.0) for kind in KINDS}
    ok = all(abs(rate - 1.0) <= 0.15 and wall < 120.0 for rate, wall in results.values())
    detail = "; ".join(
        f"{kind} rate {rate:.3f} in 1.0+-0.15, {wall:.0f}s < 120s"
        for kind, (rate, wall) in results.items()
    )
    report(1, ok, detail)


def test_criterion_2_smooth_rates_small_iota():
    floors = {"ntw": 1.8, "specht": 1.8, "morley": 1.6}
    results = {kind: final_rate(kind, "smooth", 1e-6)[0] for kind in KINDS}
    ok = all(results[kind] >= floors[kind] for kind in KINDS)
    detail = "; ".join(
        f"{kind} rate {results[kind]:.3f} >= {floors[kind]}" for kind in KINDS
    )
    report(2, ok, detail)


def test_criterion_3_layer_rates():
    results = {kind: final_rate(kind, "layer", 1e-6)[0] for kind in KINDS}
    ok = all(abs(rate - 0.5) <= 0.1 for rate in results.values())
    detail = "; ".join(
        f"{kind} rate {rate:.3f} in 0.5+-0.1" for kind, rate in results.items()
    )
    report(3, ok, detail)


def test_criterion_4_algebraic_korn_minimum():
    search = korn_ratio_min(10000, seed=2026)
    lo, hi = KORN_BOUND - 1e-12, KORN_BOUND + 0.05
    extremal = np.zeros((2, 2, 2))
    extremal[0, 0, 1] = extremal[0, 1, 0] = 1.0
    extremal[1, 0, 0] = -(1.0 + np.sqrt(2.0))
    gap = abs(korn_ratio(extremal) - KORN_BOUND)
    ok = (
        lo <= search.min_sampled <= hi
        and lo <= search.min_directed <= hi
        and gap <= 1e-10
    )
    detail = (
        f"sampled {search.min_sampled:.6f} and directed {search.min_directed:.9f} "
        f"in [{lo:.6f}, {hi:.6f}]; extremal gap {gap:.2e} <= 1e-10"
    )
    report(4, ok, detail)


def test_criterion_5_coercivity():
    mesh = make_structured(8)
    worst = {}
    for kind in KINDS:
        dofmap = build_dofmap(mesh, kind)
        for iota in (1.0, 1e-2, 1e-6):
            mat = MaterialParams(lam=10.0, mu=1.0, iota=iota)
            worst[kind, iota] = coercivity_check(dofmap, mat, n_trials=500, seed=7)
    floor = 1.0 - 1e-9
    ok = all(value >= floor for value in worst.values())
    low = min(worst.values())
    detail = (
        f"min ratio {low:.6f} >= 1-1e-9 over 500 fields x 3 kinds x iota "
        "{1, 1e-2, 1e-6} on structured(8)"
    )
    report(5, ok, detail)


def test_criterion_6_interpolation_identity():
    rng = np.random.default_rng(11)
    geom, values, grads = random_quartic_samples(rng, 100)
    scale = np.maximum(1.0, np.abs(values[:, :3]).max(axis=1))
    worst = (verify_affine_identity(geom, values, grads) / scale).max()
    ok = worst <= 1e-12
    report(6, ok, f"max identity deviation {worst:.2e} <= 1e-12 over 100 quartics")


def test_criterion_7_unisolvence_and_jumps():
    rng = np.random.default_rng(23)
    geom = random_geometries(rng, 1000)
    duality = {kind: duality_residual(kind, geom).max() for kind in KINDS}
    constraint = specht_constraint_residual(geom).max()
    mesh = make_structured(3)
    jumps = {kind: jump_check(build_dofmap(mesh, kind), n_trials=5, seed=3) for kind in KINDS}
    ok = (
        all(value <= 1e-11 for value in duality.values())
        and constraint <= 1e-12
        and all(value <= 1e-10 for value in jumps.values())
    )
    detail = (
        f"duality {max(duality.values()):.2e} <= 1e-11 on 1000 triangles; "
        f"specht constraints {constraint:.2e} <= 1e-12; "
        f"edge jumps {max(jumps.values()):.2e} <= 1e-10"
    )
    report(7, ok, detail)


def test_criterion_8_manufactured_sources():
    rng = np.random.default_rng(40)
    pts = rng.uniform(0.1, 0.9, size=(50, 2))
    worst_rel = 0.0
    for example in ("smooth", "layer"):
        for iota in (1.0, 1e-2):
            field = example_field(example, MaterialParams(iota=iota))
            fa = source(field)(pts)
            fd = fd_source(field, pts)
            rel = np.abs(fa - fd).max() / max(np.abs(fa).max(), 1.0)
            worst_rel = max(worst_rel, rel)
    sides = boundary_points(25)
    clamp = 0.0
    for iota in (1.0, 1e-2, 1e-6):
        field = example_layer(iota)
        clamp = max(
            clamp,
            np.abs(field.displacement(sides)).max(),
            np.abs(field.gradient(sides)).max(),
        )
    ok = worst_rel <= 1e-4 and clamp <= 1e-10
    detail = (
        f"max source deviation {worst_rel:.2e} <= 1e-4 at 50 points, "
        f"both examples, iota in {{1, 1e-2}}; layer boundary residual "
        f"{clamp:.2e} <= 1e-10"
    )
    report(8, ok, detail)
