import numpy as np
import pytest

import mtdplan.phantom
from mtdplan import cli, evaluation, mco
from mtdplan.case import load_case
from mtdplan.evaluation import (QualityIndexSpec, criterion_statistics, dose_at_volume, dvh_curve,
                                evaluate_plan, homogeneity_index, lower_mean_tail_dose, mean_dose,
                                quality_index_value, upper_mean_tail_dose)
from mtdplan.formulation import Criterion
from mtdplan.phantom import Phantom, ROI, roi_weight_vector


# --- independent oracles -----------------------------------------------------

def dav_oracle(d, w, v):
    """Sort-and-accumulate: largest dose whose >=-weight reaches v."""
    order = np.argsort(-np.asarray(d, dtype=float), kind="stable")
    cum = 0.0
    for idx in order:
        cum += w[idx]
        if cum >= v - 1e-12:
            return float(d[idx])
    return float(d[order[-1]])


def hot_tail_oracle(d, w, v):
    """Mean of the hottest v-fraction with fractional boundary voxel."""
    order = np.argsort(-np.asarray(d, dtype=float), kind="stable")
    remaining = v
    acc = 0.0
    for idx in order:
        take = min(w[idx], remaining)
        acc += take * d[idx]
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / v


def cold_tail_oracle(d, w, v):
    order = np.argsort(np.asarray(d, dtype=float), kind="stable")
    remaining = 1.0 - v
    acc = 0.0
    for idx in order:
        take = min(w[idx], remaining)
        acc += take * d[idx]
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / (1.0 - v)


def random_instance(rng, max_n=40):
    n = int(rng.integers(2, max_n))
    d = rng.uniform(0.0, 80.0, n)
    if rng.random() < 0.3:  # exercise ties
        d = np.round(d, 0)
    w = rng.uniform(0.05, 1.0, n)
    return d, w / w.sum()


# --- dose-at-volume ----------------------------------------------------------

def test_dose_at_volume_examples():
    d = np.array([10.0, 20.0, 30.0, 40.0])
    w = np.full(4, 0.25)
    assert dose_at_volume(d, w, 0.25) == 40.0
    assert dose_at_volume(d, w, 0.25) == dav_oracle(d, w, 0.25)
    d2 = np.array([10.0, 30.0])
    w2 = np.array([0.5, 0.5])
    assert dose_at_volume(d2, w2, 0.5) == 30.0
    assert dose_at_volume(d2, w2, 0.5) == dav_oracle(d2, w2, 0.5)


def test_dose_at_volume_uniform_is_constant():
    w = np.full(5, 0.2)
    for v in (0.1, 0.37, 0.9):
        assert dose_at_volume(np.full(5, 17.5), w, v) == 17.5


def test_dose_at_volume_edges_are_max_min():
    d = np.array([5.0, 9.0, 1.0])
    w = np.full(3, 1 / 3)
    assert dose_at_volume(d, w, 0.0) == 9.0
    assert dose_at_volume(d, w, 1.0) == 1.0


def test_dose_at_volume_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d, w = random_instance(rng)
        v = float(rng.uniform(0.02, 0.98))
        assert dose_at_volume(d, w, v) == pytest.approx(dav_oracle(d, w, v), abs=1e-12)


# --- mean-tail-doses ---------------------------------------------------------

def test_upper_mean_tail_dose_examples():
    d = np.array([10.0, 20.0, 30.0, 40.0])
    w = np.full(4, 0.25)
    assert upper_mean_tail_dose(d, w, 0.5) == pytest.approx(35.0, abs=1e-12)
    assert upper_mean_tail_dose(d, w, 1.0) == pytest.approx(25.0, abs=1e-12)  # mean dose
    assert upper_mean_tail_dose(np.full(3, 4.2), np.full(3, 1 / 3), 0.4) == pytest.approx(4.2)


def test_lower_mean_tail_dose_examples():
    d = np.array([10.0, 20.0, 30.0, 40.0])
    w = np.full(4, 0.25)
    assert lower_mean_tail_dose(d, w, 0.75) == pytest.approx(10.0, abs=1e-12)
    assert lower_mean_tail_dose(d, w, 0.0) == pytest.approx(25.0, abs=1e-12)  # mean dose
    assert lower_mean_tail_dose(np.full(3, 4.2), np.full(3, 1 / 3), 0.4) == pytest.approx(4.2)


def test_tail_means_match_oracles_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d, w = random_instance(rng)
        v = float(rng.uniform(0.02, 0.98))
        assert upper_mean_tail_dose(d, w, v) == pytest.approx(hot_tail_oracle(d, w, v), abs=1e-9)
        assert lower_mean_tail_dose(d, w, v) == pytest.approx(cold_tail_oracle(d, w, v), abs=1e-9)


def test_sandwich_inequality_random():
    rng = np.random.default_rng(17)
    for _ in range(500):
        d, w = random_instance(rng)
        v = float(rng.uniform(0.01, 0.99))
        upper = upper_mean_tail_dose(d, w, v)
        mid = dose_at_volume(d, w, v)
        lower = lower_mean_tail_dose(d, w, v)
        assert upper >= mid - 1e-9
        assert mid >= lower - 1e-9


def test_tail_means_monotone_in_v():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d, w = random_instance(rng)
        vs = np.sort(rng.uniform(0.02, 0.98, 6))
        uppers = [upper_mean_tail_dose(d, w, v) for v in vs]
        lowers = [lower_mean_tail_dose(d, w, v) for v in vs]
        assert all(uppers[i + 1] <= uppers[i] + 1e-9 for i in range(5))
        assert all(lowers[i + 1] <= lowers[i] + 1e-9 for i in range(5))


def test_cvar_dual_forms_match_tail_means():
    # the dual objectives are piecewise linear in alpha with kinks at the
    # dose values, so scanning a dose-value grid refined with the kink set
    # locates the exact optimum
    rng = np.random.default_rng(31)
    for _ in range(100):
        d, w = random_instance(rng)
        v = float(rng.uniform(0.05, 0.95))
        alphas = np.unique(np.concatenate([d, np.linspace(d.min(), d.max(), 41)]))
        upper_dual = min(a + np.dot(w, np.maximum(d - a, 0.0)) / v for a in alphas)
        lower_dual = max(a - np.dot(w, np.maximum(a - d, 0.0)) / (1.0 - v) for a in alphas)
        assert upper_mean_tail_dose(d, w, v) == pytest.approx(upper_dual, abs=1e-9)
        assert lower_mean_tail_dose(d, w, v) == pytest.approx(lower_dual, abs=1e-9)


def test_translation_and_scaling_equivariance():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d, w = random_instance(rng)
        v = float(rng.uniform(0.05, 0.95))
        shift, scale = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.1, 4.0))
        for fn in (upper_mean_tail_dose, dose_at_volume, lower_mean_tail_dose):
            base = fn(d, w, v)
            assert fn(d + shift, w, v) == pytest.approx(base + shift, abs=1e-9)
            assert fn(scale * d, w, v) == pytest.approx(scale * base, abs=1e-9)


# --- DVH ---------------------------------------------------------------------

def test_dvh_uniform_step():
    w = np.full(4, 0.25)
    grid = np.array([0.0, 5.0, 10.0, 15.0])
    curve = dvh_curve(np.full(4, 10.0), w, grid)
    assert curve.tolist() == [1.0, 1.0, 1.0, 0.0]


def test_dvh_counting_example():
    curve = dvh_curve(np.array([10.0, 40.0]), np.array([0.5, 0.5]), np.array([0.0, 25.0]))
    assert curve[0] == 1.0
    assert curve[1] == 0.5


def test_dvh_starts_at_one_and_non_increasing():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d, w = random_instance(rng)
        grid = np.linspace(0.0, d.max() + 5.0, 40)
        curve = dvh_curve(d, w, grid)
        assert curve[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(curve) <= 1e-12)


def test_dose_at_volume_is_generalized_dvh_inverse():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d, w = random_instance(rng)
        v = float(rng.uniform(0.05, 0.95))
        x = dose_at_volume(d, w, v)
        at = dvh_curve(d, w, np.array([x]))[0]
        above = dvh_curve(d, w, np.array([x + 1e-9]))[0]
        assert at >= v - 1e-12
        assert above < v


# --- homogeneity and plan evaluation ----------------------------------------

def test_homogeneity_examples():
    w = np.full(4, 0.25)
    assert homogeneity_index(np.full(4, 60.0), w, 0.02, 0.98) == 0.0
    d = np.array([10.0, 20.0, 30.0, 40.0])
    assert homogeneity_index(d, w, 0.25, 0.75) == pytest.approx(20.0)


def test_homogeneity_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d, w = random_instance(rng)
        lo = float(rng.uniform(0.02, 0.4))
        hi = float(rng.uniform(lo + 0.05, 0.98))
        assert homogeneity_index(d, w, lo, hi) >= -1e-12


def _two_roi_phantom():
    return Phantom(grid_dims=(6, 1, 1), voxel_size_mm=(1, 1, 1),
                   rois=(ROI("ptv", "target", np.array([0, 1, 2]), np.full(3, 1 / 3)),
                         ROI("oar", "oar", np.array([3, 4, 5]), np.full(3, 1 / 3))))


def test_evaluate_plan_flags_violation_over_one_percent():
    phantom = _two_roi_phantom()
    # dose placing the ptv d-a-v 99% at 56.4 against a 57.0 lower bound
    d = np.array([56.4, 60.0, 60.0, 10.0, 10.0, 10.0])
    criteria = [Criterion(roi="ptv", ctype="dav-max", volume=0.99, hard_lower=57.0, objective=0)]
    specs = [QualityIndexSpec(name="q", roi="ptv", kind="dose-at-volume", aim="maximize", volume=0.99)]
    quality, violations = evaluate_plan(phantom, d, specs, criteria)
    assert quality[0] == pytest.approx(56.4)
    assert len(violations) == 1
    v = violations[0]
    assert v.achieved_gy == pytest.approx(56.4)
    assert v.relative_violation == pytest.approx((57.0 - 56.4) / 57.0, abs=1e-12)
    assert v.relative_violation == pytest.approx(0.0105, abs=3e-4)
    assert v.over_1pct


def test_evaluate_plan_exact_bounds_unflagged():
    phantom = _two_roi_phantom()
    d = np.array([60.0, 60.0, 60.0, 20.0, 20.0, 20.0])
    criteria = [Criterion(roi="ptv", ctype="dav-max", volume=0.5, hard_lower=60.0, objective=0),
                Criterion(roi="oar", ctype="avg-min", hard_upper=20.0)]
    specs = [QualityIndexSpec(name="q", roi="ptv", kind="dose-at-volume", aim="maximize", volume=0.5)]
    _, violations = evaluate_plan(phantom, d, specs, criteria)
    assert all(v.relative_violation == 0.0 for v in violations)
    assert not any(v.over_1pct for v in violations)


@pytest.mark.parametrize("size", [5, 7])
def test_evaluate_plan_rejects_a_dose_of_another_grid(size):
    specs = [QualityIndexSpec(name="q", roi="ptv", kind="average", aim="minimize")]
    with pytest.raises(ValueError, match="same number of voxels"):
        evaluate_plan(_two_roi_phantom(), np.full(size, 60.0), specs, [])


@pytest.mark.parametrize("kind, extra, message", [
    ("average", {"volume": 0.5}, "volume only applies to dose-at-volume"),
    ("homogeneity", {"volume": 0.5, "low_pct": 0.1, "high_pct": 0.9},
     "volume only applies to dose-at-volume"),
    ("average", {"low_pct": 0.1}, "low/high fractions only apply to homogeneity"),
    ("dose-at-volume", {"volume": 0.5, "high_pct": 0.9},
     "low/high fractions only apply to homogeneity"),
])
def test_quality_index_refuses_fields_its_kind_ignores(kind, extra, message):
    with pytest.raises(ValueError, match=message):
        QualityIndexSpec(name="q", roi="ptv", kind=kind, aim="minimize", **extra)


def test_uniform_dose_has_zero_homogeneity_index():
    phantom = _two_roi_phantom()
    d = np.full(6, 42.0)
    specs = [QualityIndexSpec(name="hi", roi="ptv", kind="homogeneity", aim="minimize",
                              low_pct=0.01, high_pct=0.99)]
    quality, _ = evaluate_plan(phantom, d, specs, [])
    assert quality[0] == 0.0


def test_empty_support_raises():
    with pytest.raises(ValueError):
        dose_at_volume(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.5)


def test_mean_dose_is_weighted():
    d = np.array([10.0, 30.0])
    assert mean_dose(d, np.array([0.75, 0.25])) == pytest.approx(15.0)


def test_dvh_csv_roundtrip(tmp_path):
    grid = np.array([0.0, 1.0, 2.5])
    curves = {"a": np.array([1.0, 0.625, 0.0]), "b": np.array([1.0, 1.0, 0.3333333333333333])}
    path = tmp_path / "dvh.csv"
    evaluation.write_dvh_csv(path, grid, curves)
    assert path.read_text().splitlines()[0] == "dose_gy,a,b"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(grid, data[:, 0])
    assert np.array_equal(curves["a"], data[:, 1])
    assert np.array_equal(curves["b"], data[:, 2])


@pytest.mark.parametrize("command", [
    ["solve"], ["pareto", "--grid-order", "2", "--workers", "1"], ["evaluate"]],
    ids=["solve", "pareto", "evaluate"])
def test_planner_evaluates_on_roi_voxels(monkeypatch, tmp_path, command):
    # Every statistic takes an ROI's own voxels and weights, never the all-voxel vector.
    demo = ["--case", "demo:prostate_demo"]
    if command == ["evaluate"]:
        assert cli.main(["solve", *demo, "--out", str(tmp_path / "plan")]) == 0
        command = ["evaluate", "--plan", str(tmp_path / "plan" / "plan_dose.bin")]
    calls = []
    for module in (mtdplan.phantom, cli):
        def counting(*args, original=module.roi_weight_vector):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "roi_weight_vector", counting)
    assert cli.main([command[0], *demo, *command[1:], "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_evaluate_plan_equals_the_all_voxel_statistics():
    case = load_case("demo:prostate_demo")
    slots = case.criteria.num_slots
    dose = mco.solve_single_weight(case, np.full(slots, 1.0 / slots)).dose
    quality, violations = evaluate_plan(case.phantom, dose, case.quality_indices, case.criteria)
    expected = [quality_index_value(dose, roi_weight_vector(case.phantom, spec.roi), spec)
                for spec in case.quality_indices]
    assert quality.tobytes() == np.array(expected).tobytes()
    expected = []
    for criterion in case.criteria:
        _, achieved, tail = criterion_statistics(
            dose, roi_weight_vector(case.phantom, criterion.roi), criterion)
        bounds = (criterion.hard_upper, criterion.hard_lower)
        expected += [(achieved, tail)] * sum(bound is not None for bound in bounds)
    assert expected
    assert [(v.achieved_gy, v.tail_gy) for v in violations] == expected
