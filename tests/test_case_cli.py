import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from mtdplan import cli
from mtdplan.case import case_from_dict, demo_case_path, load_case
from mtdplan.errors import CaseError, DataError
from mtdplan.evaluation import evaluate_plan
from mtdplan.fileio import read_dose_volume, write_csv, write_dose_volume
from mtdplan.phantom import influence_content_hash


def demo_doc():
    from importlib.resources import files
    return json.loads(files("mtdplan").joinpath("cases/prostate_demo.json").read_text())


# --- case schema ------------------------------------------------------------------

def test_demo_case_loads():
    case = load_case(demo_case_path())
    assert case.name == "prostate_demo"
    assert case.criteria.num_slots == 3
    assert len(case.quality_indices) == 3


def test_volume_out_of_range_names_field_path():
    doc = demo_doc()
    doc["criteria"][0]["volume"] = 1.2
    with pytest.raises(CaseError) as err:
        case_from_dict(doc)
    assert "$.criteria[0].volume" in str(err.value)


def test_missing_field_names_path():
    doc = demo_doc()
    del doc["machine"]["num_beams"]
    with pytest.raises(CaseError) as err:
        case_from_dict(doc)
    assert "$.machine.num_beams" in str(err.value)


def test_wrong_type_names_path():
    doc = demo_doc()
    doc["machine"]["leaf_pairs"] = "six"
    with pytest.raises(CaseError) as err:
        case_from_dict(doc)
    assert "$.machine.leaf_pairs" in str(err.value)


def test_volume_cc_converts_to_fraction():
    doc = demo_doc()
    doc["criteria"][3] = {"name": "rectum_cc", "roi": "rectum", "type": "dav-min",
                          "volume_cc": 1.0, "hard_upper": 60.0, "objective": 2}
    case = case_from_dict(doc)
    crit = next(c for c in case.criteria if c.name == "rectum_cc")
    rectum_cc = case.phantom.roi("rectum").volume_cc
    assert crit.volume == pytest.approx(1.0 / rectum_cc)


def test_quality_index_aim_conflict_detected():
    doc = demo_doc()
    doc["quality_indices"][1]["aim"] = "maximize"
    with pytest.raises(CaseError) as err:
        case_from_dict(doc)
    assert "aim" in str(err.value)


def test_quality_index_count_mismatch_detected():
    doc = demo_doc()
    doc["quality_indices"] = doc["quality_indices"][:2]
    with pytest.raises(CaseError):
        case_from_dict(doc)


def test_unknown_demo_case():
    with pytest.raises(CaseError):
        load_case("demo:oncology_ward")


# --- artifact files -----------------------------------------------------------------

def test_write_csv_cell_text(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d", "e"],
              [[np.float64(58.95921744955405), 0.1, 3, "x,y", ""],
               [np.float32(0.5), 1e-300, -2, "s", 7.0]])
    assert path.read_bytes() == (b'a,b,c,d,e\r\n'
                                 b'58.95921744955405,0.1,3,"x,y",\r\n'
                                 b'0.5,1e-300,-2,s,7.0\r\n')


def test_write_csv_writes_bools_as_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], [[True, False, np.True_, np.False_]])
    assert path.read_bytes() == b"a,b,c,d\r\n1,0,1,0\r\n"


def test_write_csv_writes_a_float_array_as_its_rows_of_floats(tmp_path):
    values = np.array([[0.1, -0.0, 1e-300, 1.0 / 3.0], [np.inf, -np.inf, np.nan, 5e20]])
    fast, rows = tmp_path / "fast.csv", tmp_path / "rows.csv"
    write_csv(fast, ["a", "b", "c", "d"], values)
    write_csv(rows, ["a", "b", "c", "d"], list(values))   # rows of numpy floats
    assert fast.read_bytes() == rows.read_bytes() == (
        b"a,b,c,d\r\n0.1,-0.0,1e-300,0.3333333333333333\r\ninf,-inf,nan,5e+20\r\n")


def test_dose_volume_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    dose = rng.random(4 * 3 * 2) * 70.0
    path = tmp_path / "d.bin"
    write_dose_volume(path, dose, (4, 3, 2))
    back, dims = read_dose_volume(path)
    assert dims == (4, 3, 2)
    assert np.array_equal(dose, back)


def test_dose_volume_bad_magic(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DataError):
        read_dose_volume(path)


def test_dose_volume_truncation(tmp_path):
    path = tmp_path / "d.bin"
    write_dose_volume(path, np.zeros(8), (2, 2, 2))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError):
        read_dose_volume(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_evaluate_non_finite_dose_volume_exits_data_error(tmp_path, capsys, value):
    case = load_case(demo_case_path())
    voxel = int(case.phantom.roi("ptv60").voxels[0])
    dose = np.zeros(case.phantom.num_voxels)
    dose[voxel] = value
    plan = tmp_path / "plan_dose.bin"
    write_dose_volume(plan, dose, case.phantom.grid_dims)
    with pytest.raises(DataError, match=f"voxel {voxel} is {value!r}, not a finite dose"):
        read_dose_volume(plan)
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(plan)])
    assert code == cli.EXIT_DATA_ERROR
    assert f"data error: dose volume voxel {voxel} is {value!r}" in capsys.readouterr().err


def test_evaluate_dose_binary_named_csv_exits_data_error(solved_dir, tmp_path, capsys):
    plan = tmp_path / "dose_as.csv"
    plan.write_bytes((solved_dir / "plan_dose.bin").read_bytes())
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(plan)])
    assert code == cli.EXIT_DATA_ERROR
    assert f"data error: {plan} is not a text file: " in capsys.readouterr().err


def test_evaluate_dose_binary_with_oversized_header_exits_data_error(tmp_path, capsys):
    plan = tmp_path / "huge.bin"
    plan.write_bytes(b"MTDD" + np.array([1, 2 ** 31, 2 ** 31, 2 ** 31], dtype="<u4").tobytes())
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(plan)])
    assert code == cli.EXIT_DATA_ERROR
    assert "dose volume payload has 0 bytes" in capsys.readouterr().err


# --- CLI ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    code = cli.main(["solve", "--case", demo_case_path(), "--out", str(out),
                     "--weights", "1,0,0"])
    assert code == cli.EXIT_OK
    return out


def fresh_process_output(probe: str) -> list[str]:
    """The words ``probe`` prints when run by a new interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_importing_the_cli_loads_no_module_only_some_commands_use():
    # Every command is a fresh process, so whatever `import mtdplan.cli` loads is paid on each.
    # Only a sweep with a pool of two or more workers imports the process pool itself.
    assert fresh_process_output(
        "import sys, mtdplan.cli; print(' '.join(m for m in ('scipy.ndimage', "
        "'scipy.spatial', 'scipy.optimize', 'multiprocessing') if m in sys.modules))") == []


def test_pareto_loads_no_scipy_spatial(tmp_path):
    # A fresh process: scipy.optimize, which other tests use, loads scipy.spatial in this one.
    argv = ["pareto", "--case", "demo:prostate_demo", "--grid-order", "2", "--out", str(tmp_path)]
    assert fresh_process_output(
        f"import sys, mtdplan.cli; code = mtdplan.cli.main({argv!r}); "
        "print(code, 'scipy.spatial' in sys.modules)")[-2:] == [str(cli.EXIT_OK), "False"]
    assert (tmp_path / "hull_shift_report.csv").exists()


def test_validate_demo_case_exits_zero(capsys):
    assert cli.main(["validate", "--case", demo_case_path()]) == cli.EXIT_OK
    assert "case ok" in capsys.readouterr().out


def test_validate_bad_volume_exits_config_error(tmp_path, capsys):
    doc = demo_doc()
    doc["criteria"][0]["volume"] = 1.2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--case", str(bad)]) == cli.EXIT_CONFIG_ERROR
    assert "$.criteria[0].volume" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, path", [
    ("machine", "transmission", 1.5, "$.machine"),
    ("kernel", "lateral_sigma_mm", -1.0, "$.kernel"),
    ("ptv60", "center_mm", [500.0, 500.0, 30.0], "$.phantom"),
])
def test_validate_bad_section_exits_config_error_with_path(tmp_path, capsys,
                                                           section, key, value, path):
    doc = demo_doc()
    if section == "ptv60":
        next(r for r in doc["phantom"]["rois"] if r["name"] == "ptv60")["shape"][key] = value
    else:
        doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--case", str(bad)]) == cli.EXIT_CONFIG_ERROR
    assert f"configuration error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("transmission", "x", "expected float"),
    ("beam_angles_deg", [0.0, None, 240.0], "expected a list of numbers"),
])
def test_validate_wrong_type_in_wrapped_section_keeps_field_path(tmp_path, capsys,
                                                                 key, value, message):
    doc = demo_doc()
    doc["machine"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--case", str(bad)]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"configuration error: $.machine.{key}: {message}" in err
    assert err.count("$.machine") == 1


def _put(keys, value):
    """An edit of the demo document that sets the entry at ``keys`` to ``value``."""
    def edit(doc):
        *parents, last = keys
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit, argv, reported", [
    pytest.param(_put(["solverr"], {}), [], "$.solverr: unknown field", id="unknown-top-level"),
    pytest.param(_put(["machine", "dose_rat"], 1.0), [], "$.machine.dose_rat: unknown field",
                 id="unknown-in-section"),
    pytest.param(_put(["criteria", 3, "hard_uper"], 50.0), [],
                 "$.criteria[3].hard_uper: unknown field", id="unknown-in-criterion"),
    pytest.param(_put(["phantom", "rois", 0, "shape", "radius"], 15.0), [],
                 "$.phantom.rois[0].shape.radius: unknown field", id="unknown-in-shape"),
    pytest.param(_put(["machine", "max_time_s"], float("nan")), [],
                 "$.machine.max_time_s: expected a finite number", id="nan"),
    pytest.param(_put(["criteria", 3, "hard_upper"], float("inf")), [],
                 "$.criteria[3].hard_upper: expected a finite number", id="infinity"),
    pytest.param(_put(["machine", "max_time_s"], 10 ** 400), [],
                 "$.machine.max_time_s: expected a finite number", id="integer-beyond-float"),
    pytest.param(_put(["phantom", "rois", 1, "shape", "radius_mm"], -12.0), [],
                 "$.phantom.rois[1].shape: sphere requires radius_mm >= 0", id="negative-radius"),
    pytest.param(_put(["machine", "leaf_pairs"], 10 ** 30), [],
                 "$.machine: machine has", id="bixels-beyond-index-range"),
    pytest.param(_put(["solver", "max_iterations"], 0), [],
                 "$.solver: max_iterations must be >= 1", id="zero-max-iterations"),
    pytest.param(_put(["quality_indices", 0, "volume"], 0.5), [],
                 "$.quality_indices[0]: index 'ptv_hi': volume only applies to dose-at-volume",
                 id="volume-on-homogeneity-index"),
    pytest.param(_put(["quality_indices", 1, "low_pct"], 0.1), [],
                 "$.quality_indices[1]: index 'ring_avg': low/high fractions only apply to "
                 "homogeneity", id="low-pct-on-average-index"),
    pytest.param(None, ["pareto", "--grid-order", "0"], "--grid-order: grid_order must be >= 1",
                 id="grid-order-flag"),
    pytest.param(None, ["pareto", "--grid-order", "1", "--workers", "0"],
                 "--workers: workers must be >= 1", id="workers-flag"),
    pytest.param(None, ["solve", "--tol-gy", "nan"], "--tol-gy: dose_tolerance_gy must be",
                 id="tol-gy-flag"),
    pytest.param(None, ["solve", "--tol-gy", "inf"], "--tol-gy: dose_tolerance_gy must be",
                 id="tol-gy-flag-infinite"),
    pytest.param(None, ["solve", "--weights", "nan,1,1"], "--weights: weights must be finite",
                 id="weights-flag"),
    pytest.param(None, ["solve", "--weights", ""], "--weights: cannot parse weights",
                 id="weights-flag-empty"),
])
def test_bad_value_exits_config_error_naming_path_or_flag(tmp_path, capsys, edit, argv, reported):
    doc = demo_doc()
    if edit is not None:
        edit(doc)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))  # NaN and Infinity go out as the bare JSON tokens
    command, *flags = argv or ["validate"]
    if command != "validate":
        flags += ["--out", str(tmp_path / "out")]
    assert cli.main([command, "--case", str(case), *flags]) == cli.EXIT_CONFIG_ERROR
    assert f"configuration error: {reported}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["validate", "--tol-gy", "0.01"], id="validate-tol-gy"),
    pytest.param(["validate", "--out", "x"], id="validate-out"),
    pytest.param(["evaluate", "--tol-gy", "0.01", "--out", "x", "--plan", "x.csv"],
                 id="evaluate-tol-gy"),
])
def test_flag_a_command_does_not_read_is_rejected(capsys, argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--case", demo_case_path(), *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, work, flags", [
    pytest.param("solve", "mtdplan.cli.solve_single_weight", [], id="solve"),
    pytest.param("pareto", "mtdplan.mco.generate_pareto_set", ["--grid-order", "1"], id="pareto"),
    pytest.param("evaluate", "mtdplan.cli.read_dose_volume", ["--plan", "plan.bin"],
                 id="evaluate"),
])
def test_out_that_is_a_file_exits_config_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                command, work, flags):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    monkeypatch.setattr(work, never)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli.main([command, "--case", demo_case_path(), "--out", str(taken), *flags])
    assert code == cli.EXIT_CONFIG_ERROR
    assert "configuration error: --out: cannot create output directory" in capsys.readouterr().err


def test_validate_reads_no_influence_cache(tmp_path, monkeypatch):
    """A truncated file where the deleted ``MTD_CACHE_DIR`` cache kept its entry is not read."""
    case = load_case(demo_case_path())
    key = influence_content_hash(case.phantom, case.machine, case.kernel)
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / f"dose_influence_{key}.npz"
    sp.save_npz(stale, case.dose_influence().matrix.tocoo())
    truncated = stale.read_bytes()[:100]
    stale.write_bytes(truncated)
    monkeypatch.setenv("MTD_CACHE_DIR", str(cache))
    assert cli.main(["validate", "--case", demo_case_path()]) == cli.EXIT_OK
    assert [p.name for p in cache.iterdir()] == [stale.name]
    assert stale.read_bytes() == truncated


def test_validate_warns_when_budget_below_sweep_bound(tmp_path, capsys):
    doc = demo_doc()
    doc["machine"]["max_time_s"] = 1.0
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(doc))
    assert cli.main(["validate", "--case", str(tight)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "below the sweep lower bound" in out
    assert "1.0" in out and "6.0" in out  # both numbers: budget and 3 beams * 8 * 0.25 s


def test_missing_case_file_exits_config_error(capsys):
    assert cli.main(["solve", "--case", "/nonexistent/case.json", "--out", "/tmp/x"]) \
        == cli.EXIT_CONFIG_ERROR


def test_solve_dump_lp_flag(tmp_path):
    out = tmp_path / "dump"
    code = cli.main(["solve", "--case", demo_case_path(), "--out", str(out),
                     "--weights", "0,0,1", "--dump-lp"])
    assert code == cli.EXIT_OK
    text = (out / "instance.lp").read_text()
    assert text.startswith("lp-triplet-v1 prostate_demo")
    assert "\nsize " in text


def test_solve_dump_lp_is_the_solved_lp_built_once(tmp_path, monkeypatch):
    from mtdplan import mco
    from mtdplan.formulation import build_weighted_instance, dump_lp
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_weighted_instance(*args, **kwargs)

    monkeypatch.setattr(mco, "build_weighted_instance", counted)
    monkeypatch.setattr(cli, "build_weighted_instance", None)   # validate's build, not solve's
    out = tmp_path / "dump"
    assert cli.main(["solve", "--case", demo_case_path(), "--out", str(out),
                     "--weights", "0,1,3", "--dump-lp"]) == cli.EXIT_OK
    assert len(builds) == 1
    case = load_case(demo_case_path())
    dump_lp(build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                    case.criteria, [0.0, 0.25, 0.75], name=case.name),
            tmp_path / "fresh.lp")
    assert (out / "instance.lp").read_bytes() == (tmp_path / "fresh.lp").read_bytes()


def test_solve_writes_artifacts(solved_dir):
    for name in ("plan_trajectories.csv", "plan_fluence_beam0.csv", "plan_fluence_beam2.csv",
                 "plan_dose.bin", "plan_dvh.csv", "plan_violations.csv", "plan_quality.txt",
                 "plan_solver_log.csv"):
        assert (solved_dir / name).exists(), name
    quality = (solved_dir / "plan_quality.txt").read_text()
    assert "xi [Gy]:" in quality
    assert "status: converged" in quality
    assert "start: least-squares\n" in quality
    assert "message:" not in quality
    log_header = (solved_dir / "plan_solver_log.csv").read_text().splitlines()[0]
    assert log_header.split(",")[-1] == "regularized"


def test_solve_contradictory_bounds_reports_conflict(tmp_path, capsys):
    doc = demo_doc()
    next(c for c in doc["criteria"] if c["name"] == "ptv_dav50_floor")["hard_lower"] = 66.0
    case_file = tmp_path / "floor66.json"
    case_file.write_text(json.dumps(doc))
    out = tmp_path / "floor66"
    code = cli.main(["solve", "--case", str(case_file), "--out", str(out)])
    assert code == cli.EXIT_SOLVER_FAILURE
    captured = capsys.readouterr()
    assert "status: infeasible" in captured.out
    message = next(line for line in captured.err.splitlines() if line.startswith("infeasible: "))
    assert "ptv_dav1 <= 63 Gy" in message and "ptv_dav50_floor >= 66 Gy" in message
    assert f"message: {message.removeprefix('infeasible: ')}\n" \
        in (out / "plan_quality.txt").read_text()


def test_weights_whose_sum_overflows_solve_as_the_balanced_weights(tmp_path):
    # The sum of three 1e308 overflows to inf; scaled by the largest first, they normalize.
    assert cli._parse_weights("1e308,1e308,1e308", 3).tobytes() == np.full(3, 1 / 3).tobytes()
    big, balanced = tmp_path / "big", tmp_path / "balanced"
    assert cli.main(["solve", "--case", demo_case_path(), "--out", str(big),
                     "--weights", "1e308,1e308,1e308"]) == cli.EXIT_OK
    assert cli.main(["solve", "--case", demo_case_path(), "--out", str(balanced)]) == cli.EXIT_OK
    for name in ("plan_trajectories.csv", "plan_quality.txt", "plan_solver_log.csv"):
        assert (big / name).read_bytes() == (balanced / name).read_bytes(), name


def test_a_negative_zero_weight_solves_as_zero(tmp_path):
    # -0.0 >= 0 holds, so -0 is a valid weight; it must not keep its sign.
    assert cli._parse_weights("-0,1,1", 3).tobytes() == np.array([0.0, 0.5, 0.5]).tobytes()
    negative, zero = tmp_path / "negative", tmp_path / "zero"
    for out, weights in ((negative, "-0,1,1"), (zero, "0,1,1")):
        assert cli.main(["solve", "--case", demo_case_path(), "--out", str(out),
                         f"--weights={weights}"]) == cli.EXIT_OK
    names = sorted(path.name for path in zero.iterdir())
    assert sorted(path.name for path in negative.iterdir()) == names
    for name in names:
        assert (negative / name).read_bytes() == (zero / name).read_bytes(), name


def test_solve_without_thread_variables_writes_the_pinned_tree(tmp_path):
    # Importing mtdplan sets each unset BLAS/OpenMP thread count to 1 before numpy loads, so
    # a solve started without them writes the same files as one pinned to a thread.  Only a
    # machine with two or more cores can tell the two apart: on one core a threaded BLAS
    # runs one thread anyway, and this test passes whatever the package does.
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {key: value for key, value in os.environ.items() if key not in threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    unset, pinned = tmp_path / "unset", tmp_path / "pinned"
    for out, run_env in ((unset, env), (pinned, dict(env, **dict.fromkeys(threads, "1")))):
        subprocess.run([sys.executable, "-m", "mtdplan.cli", "solve", "--case",
                        "demo:prostate_demo", "--out", str(out)], env=run_env,
                       capture_output=True, check=True)
    names = sorted(path.name for path in pinned.iterdir())
    assert sorted(path.name for path in unset.iterdir()) == names
    for name in names:
        assert (unset / name).read_bytes() == (pinned / name).read_bytes(), name


def test_solve_reruns_bit_identical(solved_dir, tmp_path):
    out2 = tmp_path / "again"
    code = cli.main(["solve", "--case", demo_case_path(), "--out", str(out2),
                     "--weights", "1,0,0"])
    assert code == cli.EXIT_OK
    for name in ("plan_trajectories.csv", "plan_dvh.csv", "plan_violations.csv",
                 "plan_solver_log.csv", "plan_dose.bin"):
        assert (solved_dir / name).read_bytes() == (out2 / name).read_bytes(), name


def test_evaluate_solve_artifact_matches_report(solved_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(out),
                     "--plan", str(solved_dir / "plan_trajectories.csv")])
    assert code == cli.EXIT_OK
    # identical quality values as the solve's own report
    solve_quality = [line for line in (solved_dir / "plan_quality.txt").read_text().splitlines()
                     if line.startswith("quality ")]
    eval_quality = [line for line in (out / "evaluated_quality.txt").read_text().splitlines()
                    if line.startswith("quality ")]
    assert solve_quality == eval_quality


def test_evaluate_dose_binary_uniform_dose_zero_hi(tmp_path, capsys):
    case = load_case(demo_case_path())
    dose = np.full(case.phantom.num_voxels, 50.0)
    plan = tmp_path / "uniform.bin"
    write_dose_volume(plan, dose, case.phantom.grid_dims)
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(out),
                     "--plan", str(plan)])
    assert code == cli.EXIT_OK
    text = (out / "evaluated_quality.txt").read_text()
    assert "quality ptv_hi [minimize]: 0.0\n" in text


def test_evaluate_corrupted_csv_exits_data_error(solved_dir, tmp_path, capsys):
    corrupted = tmp_path / "bad.csv"
    lines = (solved_dir / "plan_trajectories.csv").read_text().splitlines()
    lines[4] = "bixel,0,0,3,oops,1.0"
    corrupted.write_text("\n".join(lines) + "\n")
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(corrupted)])
    assert code == cli.EXIT_DATA_ERROR
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize("plan", [
    pytest.param("missing.csv", id="missing-csv"),
    pytest.param("missing.bin", id="missing-bin"),
    pytest.param("", id="directory"),
])
def test_evaluate_unreadable_plan_exits_data_error_naming_file(tmp_path, capsys, plan):
    path = tmp_path / plan
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(path)])
    assert code == cli.EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "data error: cannot read --plan: " in err and f"'{path}'" in err


@pytest.mark.parametrize("row, reported", [
    pytest.param("bixel,-1,0,0,0.0,0.0", "negative index in bixel (-1, 0, 0)", id="bixel-beam"),
    pytest.param("beam_on,-1,,,9.0,", "negative beam index -1", id="beam-on"),
    pytest.param("bixel,0,6,0,0.0,0.0", "out of bounds for axis 1", id="leaf-pair-too-large"),
])
def test_evaluate_out_of_range_trajectory_index_exits_data_error(solved_dir, tmp_path, capsys,
                                                                  row, reported):
    corrupted = tmp_path / "bad.csv"
    lines = (solved_dir / "plan_trajectories.csv").read_text().splitlines()
    lines.insert(4, row)  # every bixel stays covered, so only the index can be at fault
    corrupted.write_text("\n".join(lines) + "\n")
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(corrupted)])
    assert code == cli.EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "line 5" in err and reported in err


def _row_replaced(index, text):
    return lambda lines: lines[:index] + [text] + lines[index + 1:]


@pytest.mark.parametrize("edit, reported", [
    pytest.param(lambda lines: lines[:4] + lines[3:], "bixel (0, 0, 2) given twice",
                 id="bixel-twice"),
    pytest.param(lambda lines: lines + lines[-1:], "beam_on 2 given twice", id="beam-on-twice"),
    pytest.param(_row_replaced(3, "bixel,0,0,2,0.0,0.0,7.0"), "7 cells where the header has 6",
                 id="extra-cell"),
    pytest.param(_row_replaced(3, "bixel,0,0,2,0.0"), "5 cells where the header has 6",
                 id="missing-cell"),
    pytest.param(_row_replaced(3, "bixel,0,0,2,nan,0.0"), "non-finite time in nan, 0.0",
                 id="nan-l-time"),
    pytest.param(_row_replaced(3, "bixel,0,0,2,0.0,inf"), "non-finite time in 0.0, inf",
                 id="inf-r-time"),
    pytest.param(_row_replaced(-1, "beam_on,2,,,nan,"), "non-finite time in nan",
                 id="nan-beam-on"),
])
def test_evaluate_malformed_trajectory_record_exits_data_error(solved_dir, tmp_path, capsys,
                                                               edit, reported):
    lines = (solved_dir / "plan_trajectories.csv").read_text().splitlines()
    edited = edit(lines)
    corrupted = tmp_path / "bad.csv"
    corrupted.write_text("\n".join(edited) + "\n")
    code = cli.main(["evaluate", "--case", demo_case_path(), "--out", str(tmp_path / "o"),
                     "--plan", str(corrupted)])
    assert code == cli.EXIT_DATA_ERROR
    first_edited = next(i for i, (a, b) in enumerate(zip(edited, lines + [""])) if a != b)
    err = capsys.readouterr().err
    assert f"line {first_edited + 1}: {reported}" in err


def test_solve_violation_csv_numbers_parse_to_computed_values(solved_dir):
    case = load_case(demo_case_path())
    dose, _ = read_dose_volume(solved_dir / "plan_dose.bin")
    _, violations = evaluate_plan(case.phantom, dose, case.quality_indices, case.criteria)
    import csv as csvmod
    with open(solved_dir / "plan_violations.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == len(violations)
    for row, v in zip(rows, violations):
        for key in ("achieved_gy", "tail_gy", "bound_gy", "relative_violation"):
            assert float(row[key]) == getattr(v, key), (v.criterion, key)
        assert float(row["over_1pct"]) == v.over_1pct


def test_pareto_order_one_produces_three_plans(tmp_path):
    out = tmp_path / "pareto"
    code = cli.main(["pareto", "--case", demo_case_path(), "--out", str(out),
                     "--grid-order", "1"])
    assert code == cli.EXIT_OK
    table = (out / "pareto.csv").read_text().splitlines()
    assert len(table) == 1 + 3
    assert (out / "pareto_scatter.svg").exists()
    assert (out / "dvh_bands.svg").exists()
    assert (out / "hull_shift_report.csv").exists()
    svg = (out / "pareto_scatter.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") >= 3
    for i in range(3):
        assert (out / f"plan_{i:03d}" / "plan_dose.bin").exists()
    starts = [next(line for line in (out / f"plan_{i:03d}" / "plan_quality.txt").read_text()
                   .splitlines() if line.startswith("start: ")) for i in range(3)]
    assert starts[0] == "start: least-squares"
    assert all(s.startswith("start: restart from grid point 0 (iteration ") for s in starts[1:])


def test_pareto_records_nonconverged_entries(tmp_path):
    doc = demo_doc()
    doc["solver"]["max_iterations"] = 2  # starves every solve
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    code = cli.main(["pareto", "--case", str(starved), "--out", str(out), "--grid-order", "1"])
    assert code == cli.EXIT_SOLVER_FAILURE
    rows = (out / "pareto.csv").read_text().splitlines()
    assert len(rows) == 1 + 3
    assert all("iteration_limit" in row for row in rows[1:])
    assert not (out / "pareto_scatter.svg").exists()


def test_scatter_svg_renders_violating_plans_unfilled(tmp_path):
    from mtdplan import svgplot
    path = tmp_path / "scatter.svg"
    pts = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0], [0.5, 3.0, 2.0], [1.5, 1.5, 1.5]])
    svgplot.scatter3d_two_views(path, pts, ["a", "b", "c"],
                                ("minimize", "minimize", "minimize"),
                                filled=np.array([True, False, True, False]))
    svg = path.read_text()
    # two panels: 2 filled + 2 unfilled circles each, plus the best-value marker
    assert svg.count('fill="#1f77b4"') == 4
    assert svg.count('fill="none" stroke="#1f77b4"') == 4
    assert svg.count('stroke="#000000"') == 2


def test_pareto_csv_numeric_roundtrip(tmp_path):
    out = tmp_path / "pareto"
    code = cli.main(["pareto", "--case", demo_case_path(), "--out", str(out),
                     "--grid-order", "1"])
    assert code == cli.EXIT_OK
    import csv as csvmod
    with open(out / "pareto.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    case = load_case(demo_case_path())
    from mtdplan.mco import solve_single_weight
    plan = solve_single_weight(case, np.array([1.0, 0.0, 0.0]))
    row = rows[0]
    for i, spec in enumerate(case.quality_indices):
        assert float(row[f"quality_{spec.name}"]) == plan.quality[i]  # repr round-trips
