"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (uncaptured, so it is visible in a
normal pytest run) before asserting.
"""

import time

import numpy as np
import pytest

from darkfringe.boundary_logic import mark_invalid_and_ratios, inject_misjudgment
from darkfringe.forward_model import (PsfModel, alternating_phases,
                                      fringe_radius_sweep,
                                      gamma_second_derivative,
                                      intensity_profile_1d)
from darkfringe.path_search import (blocking_montecarlo, plan_with_retry,
                                    random_invalid_maps, reachable_bfs, replay)
from darkfringe.pipeline import RunConfig, run_pipeline
from darkfringe.reconstruct import compose_and_score, estimate_amplitude, retrieve_phase

from conftest import (SimSetup, gamma2_centered_fd, truth_presence_maps,
                      write_measurements)


@pytest.fixture
def report(capsys):
    def _report(criterion, ok, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
        return ok
    return _report


def test_criterion_1_curvature_formula_vs_quadrature(report):
    # analytic curvature vs centered finite difference of quadrature
    # intensity: gaussian r=18, a1=256, step 0.01, relative error <= 1e-3
    t0 = time.time()
    model = PsfModel("gaussian", 18.0)
    worst = 0.0
    for w in np.arange(0.1, 0.95, 0.1):
        ana = gamma_second_derivative(model, 256.0, 0.0, w * np.pi)
        num = gamma2_centered_fd("gaussian", 18.0, 256.0, 0.0, w * np.pi,
                                 delta=0.5, step=0.01)
        worst = max(worst, abs(ana - num) / abs(num))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    assert report(1, ok, f"worst rel err {worst:.2e} (<=1e-3), {elapsed:.1f}s (<10s)")


def test_criterion_2_kind_agreement_on_phase_vector(report):
    # the 1000-pixel alternating-step vector: fringe minima across the three
    # kernel kinds agree pairwise within 15% at r in {18, 34}
    t0 = time.time()
    omega = np.array([0.5, 0.0, -0.5, 1.0, 0.5, 0.0, -0.5, 1.0]) * np.pi
    unit_len = 125
    worst = 0.0
    for r in (18.0, 34.0):
        mins = {}
        for kind in ("box", "exponential", "gaussian"):
            model = PsfModel(kind, r)
            prof = intensity_profile_1d(omega, unit_len, model)
            interiors = np.concatenate(
                [prof[k * unit_len + unit_len // 4: k * unit_len + 3 * unit_len // 4]
                 for k in range(8)])
            plateau = np.median(interiors)
            mins[kind] = np.array(
                [prof[b * unit_len - unit_len // 4: b * unit_len + unit_len // 4].min()
                 for b in range(1, 8)]) / plateau
        kinds = list(mins)
        for i, k1 in enumerate(kinds):
            for k2 in kinds[i + 1:]:
                rel = np.abs(mins[k1] - mins[k2]) / np.maximum(mins[k1], mins[k2])
                worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    ok = worst < 0.15 and elapsed < 30.0
    assert report(2, ok, f"worst pairwise rel diff {worst:.3f} (<0.15), "
                         f"{elapsed:.1f}s (<30s)")


def test_criterion_3_radius_sweep_behavior(report):
    # 8 units x 512 px, gaussian, delta = 0.1 pi: spatial local minimum on the
    # axis in the valley, local maximum when over-spread, high relative
    # intensity on the small-radius end
    t0 = time.time()
    unit_len = 512
    phases = alternating_phases(0.1 * np.pi)
    axis = 4.0 * unit_len

    def axis_neighborhood(r):
        model = PsfModel("gaussian", r)
        return intensity_profile_1d(phases, unit_len, model,
                                    x=np.array([axis - 1.0, axis, axis + 1.0]))

    valley_ok = all(v[1] < v[0] and v[1] < v[2]
                    for v in (axis_neighborhood(r) for r in (18.0, 34.0, 64.0)))
    over = axis_neighborhood(2 * unit_len)
    overspread_ok = over[1] > over[0] and over[1] > over[2]

    rows = fringe_radius_sweep([0.1 * np.pi], [0.5, 18.0, 34.0, 64.0],
                               unit_len, "gaussian")
    vals = {r: v for _, r, v in rows}
    left_ok = vals[0.5] > 0.99 and all(vals[r] < 0.98 for r in (18.0, 34.0, 64.0))
    elapsed = time.time() - t0
    ok = valley_ok and overspread_ok and left_ok and elapsed < 60.0
    assert report(3, ok, f"valley min {valley_ok}, over-spread max {overspread_ok}, "
                         f"left high {left_ok}, {elapsed:.1f}s (<60s)")


@pytest.fixture(scope="module")
def noiseless_runs(tmp_path_factory):
    """The 100 noiseless random-object runs shared by criteria 4 and 5."""
    directory = tmp_path_factory.mktemp("frames")
    setup = SimSetup()
    results = []
    t0 = time.time()
    for k in range(100):
        obj = setup.random_object(seed=10_000 + k)
        images = setup.measure(obj, seed=20_000 + k)
        maps = setup.detect(images)
        invalid, ratios = mark_invalid_and_ratios(maps, setup.library)
        phase, _ = retrieve_phase(invalid, ratios, [(0, 0), (15, 15)])
        amplitude = estimate_amplitude(write_measurements(directory, images), setup.grid)
        metrics = compose_and_score(phase, amplitude, obj)
        counts = (np.stack([m.row_map for m in maps]).sum(axis=0),
                  np.stack([m.col_map for m in maps]).sum(axis=0))
        results.append((metrics, invalid, counts))
    return results, time.time() - t0, setup.m


def test_criterion_4_noiseless_exact_recovery(noiseless_runs, report):
    results, elapsed, _ = noiseless_runs
    worst_rmse = max(m.phase_rmse for m, _, _ in results)
    worst_unknown = max(m.unknown_frac for m, _, _ in results)
    ok = worst_rmse == 0.0 and worst_unknown == 0.0 and elapsed < 300.0
    assert report(4, ok, f"100 trials: worst phase RMSE {worst_rmse!r} (=0), "
                         f"worst unknown_frac {worst_unknown!r} (=0), "
                         f"{elapsed:.0f}s (<300s)")


def test_criterion_5_presence_count_rule(noiseless_runs, report):
    results, _, m = noiseless_runs
    bad_counts = sum(int((rows != m - 1).sum() + (cols != m - 1).sum())
                     for _, _, (rows, cols) in results)
    invalid_edges = sum(int(inv.matrix_a.sum() + inv.matrix_b.sum())
                        for _, inv, _ in results)
    ok = bad_counts == 0 and invalid_edges == 0
    assert report(5, ok, f"presence counts != m-1: {bad_counts} (=0), "
                         f"invalid edges: {invalid_edges} (=0)")


def test_criterion_6_misjudgment_robustness(report):
    t0 = time.time()
    setup = SimSetup()
    origins = [(0, 0), (15, 15)]
    # 1000 trials at sigma=0.05 through inject_misjudgment: the retry plan
    # must cover every unit the oracle proves connected
    covered = 0
    trials = 1000
    for k in range(trials):
        obj = setup.random_object(seed=30_000 + k)
        truth = truth_presence_maps(obj, setup.patterns)
        corrupted = inject_misjudgment(truth, 0.05, seed=40_000 + k)
        invalid, _ = mark_invalid_and_ratios(corrupted, setup.library)
        connected = reachable_bfs(invalid, origins[0])
        plan = plan_with_retry(invalid, origins)
        if not (connected & ~plan.reachable_mask()).any():
            covered += 1
    coverage = covered / trials

    stats = blocking_montecarlo((16, 16), [0.05, 0.1, 0.2], trials=2000, seed=6)
    singles = [s.single_pass_block_rate for s in stats]
    retries = [s.retry_block_rate for s in stats]
    dominance = all(r <= s for r, s in zip(retries, singles))
    slope = float(np.polyfit(np.log([0.05, 0.1, 0.2]), np.log(singles), 1)[0])
    elapsed = time.time() - t0
    ok = coverage >= 0.99 and dominance and slope >= 2.0 and elapsed < 600.0
    assert report(6, ok, f"full coverage in {coverage:.3f} of trials (>=0.99), "
                         f"retry<=single {dominance}, log-log slope {slope:.2f} "
                         f"(>=2), {elapsed:.0f}s (<600s)")


def test_criterion_7_detection_f1_at_camera_noise(report):
    t0 = time.time()
    setup = SimSetup(noise=0.01)   # 1% of peak, ~40 dB
    tp = fp = fn = 0
    for k in range(100):
        obj = setup.random_object(seed=50_000 + k)
        maps = setup.detect(setup.measure(obj, seed=60_000 + k))
        for got, want in zip(maps, truth_presence_maps(obj, setup.patterns)):
            for d, t in ((got.row_map, want.row_map), (got.col_map, want.col_map)):
                tp += int((d & t).sum())
                fp += int((d & ~t).sum())
                fn += int((~d & t).sum())
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall)
    elapsed = time.time() - t0
    ok = f1 >= 0.95
    assert report(7, ok, f"per-boundary F1 {f1:.4f} (>=0.95) over 100 objects, "
                         f"{elapsed:.0f}s")


def test_criterion_8_planner_against_oracle(report):
    t0 = time.time()
    origins = [(0, 0), (15, 15)]
    agree = 0
    replay_failures = 0
    n = 500
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(k,)))
        sigma = rng.uniform(0.0, 0.1)
        invalid = random_invalid_maps(16, 16, sigma, rng)
        plan = plan_with_retry(invalid, origins)
        mask = plan.reachable_mask()
        for r, c in zip(*np.nonzero(mask)):
            if replay(plan, int(r), int(c), invalid) != (r, c):
                replay_failures += 1
        if np.array_equal(mask, reachable_bfs(invalid, origins[0])):
            agree += 1
    agreement = agree / n
    elapsed = time.time() - t0
    ok = replay_failures == 0 and agreement >= 0.99
    assert report(8, ok, f"replay failures {replay_failures} (=0), oracle "
                         f"agreement {agreement:.3f} (>=0.99), {elapsed:.0f}s")


def test_criterion_9_pipeline_determinism(report, tmp_path):
    t0 = time.time()
    kwargs = dict(s1=16, s2=16, seed=99, noise_sigma=0.01,
                  origins=((0, 0), (15, 15)))
    run_pipeline(RunConfig(outdir=str(tmp_path / "a"), **kwargs))
    run_pipeline(RunConfig(outdir=str(tmp_path / "b"), **kwargs))
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a)
    elapsed = time.time() - t0
    ok = identical and len(names_a) > 0
    assert report(9, ok, f"{len(names_a)} artifact files byte-identical: "
                         f"{identical}, {elapsed:.0f}s")
