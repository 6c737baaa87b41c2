"""Planner benchmark: time to a certified plan, checked against HiGHS.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the planner is imported from its
``src/``.  Workloads (see ``benchmarks/README.md``): ``demo-pareto``,
``refined-solve`` and ``bound-verdicts``.  The run

1. writes the seeded case files and solves each distinct LP once with
   HiGHS, the oracle;
2. with ``--trace 0``, times set-up in several fresh interpreters;
3. runs the workload in a fresh interpreter with BLAS threads pinned to
   one (``worker.py``) for about ``--seconds`` seconds;
4. checks every plan against the oracle and prints the run manifest, one
   line per metric with its unit, and finally one JSON object.

With ``--trace 1`` the worker alternates untraced and traced units; the
JSON then holds the per-layer metrics, and the spans are written to
``.bench_out/`` in the checkout.  Exit code 2 means the run could not be
made (for instance no planner sources); an op that fails the oracle check
is counted, never fatal.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "plans_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "case.load_s": "s",
    "phantom.influence_s": "s",
    "phantom.influence_nnz": "count",
    "formulation.build_s": "s",
    "formulation.build_calls": "count",
    "formulation.a21_nnz": "count",
    "ipm.solve_s": "s",
    "ipm.iterations": "count",
    "ipm.s_per_iter": "s",
    "ipm.schur_order": "count",
    "ipm.newton_s": "s",
    "ipm.iterations.infeasible": "count",
    "highs.solve_s": "s",
    "ipm.highs_ratio": "ratio",
    "dmlc.dose_s": "s",
    "evaluation.evaluate_s": "s",
    "mco.analysis_s": "s",
    "io.write_s": "s",
    "io.bytes": "bytes",
    "case.self_s": "s",
    "phantom.self_s": "s",
    "formulation.self_s": "s",
    "ipm.self_s": "s",
    "unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class RunError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("MTD_CACHE_DIR", None)  # cold influence computation every time
    # Hash order steers when the cyclic collector runs, hence peak memory.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(args: list[str], root: str, deadline: float, capture: bool) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting " + " ".join(args[:2]))
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              cwd=root, env=child_env(root), timeout=remaining, text=True,
                              stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {args[0]} exceeded the time limit")
    if proc.returncode != 0:
        raise RunError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout or ""


def git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def manifest(args, root: str, plan: dict, cases: dict) -> dict:
    import dataclasses

    import numpy
    import scipy
    from mtdplan.phantom import influence_content_hash

    first = cases[plan["ops"][0]["case"]]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "case_hash": {os.path.basename(path): influence_content_hash(c.phantom, c.machine, c.kernel)
                      for path, c in cases.items()},
        "solver_settings": dataclasses.asdict(first.solver_settings()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(), "git_commit": git_commit(root),
    }


def check_plan(plan: dict, case_path: str, case, oracle: dict) -> tuple[str, str]:
    """Verdict of the oracle check: ``ok``, ``failed`` or ``false_claim``.

    An op fails when its status disagrees with HiGHS, a converged objective
    is off by more than the case's dose tolerance, or a converged plan's
    dose violates a hard bound by more than 1%.  ``false_claim`` marks the
    failures where the planner asserted something untrue (a converged or
    infeasible status, objective or plan that is wrong) rather than
    reporting that it failed.
    """
    from mtdplan.evaluation import evaluate_plan
    from mtdplan.fileio import read_dose_volume
    from workloads import lp_key

    ref = oracle.get(lp_key(case_path, plan["weights"]))
    status = plan["status"]
    if ref is None or ref["verdict"] == "unknown":
        return "failed", "no conclusive HiGHS reference"
    verdict = ref["verdict"]
    if status == "infeasible":
        if verdict != "infeasible":
            return "false_claim", "infeasible, HiGHS finds it feasible"
        return "ok", "infeasible, as HiGHS"
    if status != "converged":
        return "failed", f"{status}, HiGHS says {verdict}"
    if verdict != "feasible":
        return "false_claim", f"converged, HiGHS says {verdict}"
    tol = case.solver.dose_tolerance_gy
    if abs(plan["objective"] - ref["objective"]) > tol:
        return "false_claim", (f"objective {plan['objective']:.6f} Gy, HiGHS "
                               f"{ref['objective']:.6f} Gy (tolerance {tol} Gy)")
    if not os.path.isfile(plan["dose_path"]):
        return "false_claim", "converged but no dose volume written"
    dose, _ = read_dose_volume(plan["dose_path"])
    _, violations = evaluate_plan(case.phantom, dose, case.quality_indices, case.criteria)
    over = [v.criterion for v in violations if v.over_1pct]
    if over:
        return "false_claim", "hard bounds violated over 1%: " + ", ".join(over)
    return "ok", f"objective within {tol} Gy of HiGHS"


def unit_plans(units):
    for unit in units:
        for op in unit["ops"]:
            for plan in op["plans"]:
                yield unit, op, plan


def per_layer_metrics(result: dict, oracle: dict, verdict_of) -> tuple[dict, dict]:
    from tracing import ROOT_LAYER, layer_self_times

    traced = [u for u in result["units"] if u["traced"]]
    untraced = [u for u in result["units"] if not u["traced"]]
    n = len(traced)
    spans = result["spans"]

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def counts(name, key):
        return [s["counts"][key] for s in spans if s["name"] == name and "counts" in s]

    layers = layer_self_times(spans)
    traced_wall = sum(u["seconds"] for u in traced)
    attributed = sum(v for layer, v in layers.items() if layer != ROOT_LAYER)
    iterations = counts("ipm.solve", "iterations")
    ipm_solve = statistics.median(durations("ipm.solve"))
    highs = statistics.median(ref["seconds"] for ref in oracle.values())
    infeasible_iters = sum(plan.get("iterations", 0) for _, op, plan in unit_plans(traced)
                           if verdict_of(op, plan) == "infeasible")
    metrics = {
        "case.load_s": statistics.median(durations("case.load_case")),
        "phantom.influence_s": statistics.median(durations("phantom.dose_influence")),
        "phantom.influence_nnz": max(counts("phantom.dose_influence", "nnz")),
        "formulation.build_s": statistics.median(durations("formulation.build_weighted_instance")),
        "formulation.build_calls": len(durations("formulation.build_weighted_instance")) / n,
        "formulation.a21_nnz": max(counts("formulation.build_weighted_instance", "a21_nnz")),
        "ipm.solve_s": ipm_solve,
        "ipm.iterations": sum(iterations) / n,
        "ipm.s_per_iter": sum(durations("ipm.solve")) / sum(iterations),
        "ipm.schur_order": max(counts("ipm.solve", "schur_order")),
        "ipm.newton_s": result["newton_s"],
        "ipm.iterations.infeasible": infeasible_iters / n,
        "highs.solve_s": highs,
        "ipm.highs_ratio": ipm_solve / highs,
        "dmlc.dose_s": layers.get("dmlc", 0.0) / n,
        "evaluation.evaluate_s": layers.get("evaluation", 0.0) / n,
        "mco.analysis_s": layers.get("mco", 0.0) / n,
        "io.write_s": layers.get("io", 0.0) / n,
        "io.bytes": sum(u["bytes"] for u in traced) / n,
        "case.self_s": layers.get("case", 0.0) / n,
        "phantom.self_s": layers.get("phantom", 0.0) / n,
        "formulation.self_s": layers.get("formulation", 0.0) / n,
        "ipm.self_s": layers.get("ipm", 0.0) / n,
        "unattributed_s": (traced_wall - attributed) / n,
        "trace.spans": len(spans) / n,
        "trace.overhead_ratio": (statistics.median(u["seconds"] for u in traced)
                                 / statistics.median(u["seconds"] for u in untraced)),
    }
    report = {"layers_self_s_per_unit": {k: v / n for k, v in sorted(layers.items())},
              "traced_unit_s": [u["seconds"] for u in traced],
              "untraced_unit_s": [u["seconds"] for u in untraced]}
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = "1"
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mtdplan", "__init__.py")):
        print("error: run from the root of a planner checkout (no src/mtdplan here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = os.path.join(root, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        return run(args, root, work, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(work))


def run(args, root: str, work: str, deadline: float) -> int:
    import workloads
    from calibration import NOMINAL_S, Reference, scaled
    from mtdplan.case import load_case

    plan, oracle = workloads.prepare(args.workload, args.seed, os.path.join(work, "cases"))
    cases = {op["case"]: load_case(op["case"]) for op in plan["ops"]}
    info = manifest(args, root, plan, cases)

    setup_s = []
    if not args.trace:
        reference = Reference()
        reference.sample()
        for _ in range(SETUP_REPEATS):
            out = run_child(["setup", plan["ops"][0]["case"]], root, deadline, capture=True)
            setup_s.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
            reference.sample()

    plan.update(seconds=args.seconds, trace=args.trace, out_root=os.path.join(work, "out"))
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    run_child(["run", plan_path, result_path], root, deadline, capture=False)
    with open(result_path) as fh:
        result = json.load(fh)

    print(f"benchmark workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("manifest " + json.dumps(info, sort_keys=True))

    def verdict_of(op, plan_record):
        ref = oracle.get(workloads.lp_key(op["case"], plan_record["weights"]))
        return ref["verdict"] if ref else "unknown"

    attempted = failed = 0
    correct = True
    reported = set()
    for unit in result["units"]:
        for op, spec in zip(unit["ops"], plan["ops"]):
            # A command that died before solving counts its plans as failed.
            expected = len(spec["order"]) if spec["command"] == "pareto" else 1
            missing = expected - len(op["plans"])
            attempted += missing
            failed += missing
            if missing:
                print(f"op {op['label']}: {missing} plans never solved: {op.get('error')}")
    for _, op, plan_record in unit_plans(result["units"]):
        attempted += 1
        outcome, why = check_plan(plan_record, op["case"], cases[op["case"]], oracle)
        failed += outcome != "ok"
        correct &= outcome != "false_claim"
        key = workloads.lp_key(op["case"], plan_record["weights"])
        if key in reported and outcome == "ok":
            continue
        reported.add(key)
        ref = oracle.get(key, {})
        highs_obj = ref.get("objective")
        print(f"op {op['label']:<22} w={','.join(f'{w:.3f}' for w in plan_record['weights'])} "
              f"{plan_record['status']:<17} it={plan_record.get('iterations', '-'):>3} "
              f"obj={plan_record.get('objective', float('nan')):.5f} Gy | "
              f"HiGHS {ref.get('verdict', '-')} "
              + (f"{highs_obj:.5f} Gy " if highs_obj is not None else "")
              + f"| {outcome}: {why}")

    if args.trace:
        names = PER_LAYER
        metrics, report = per_layer_metrics(result, oracle, verdict_of)
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(root, ".bench_out", f"trace_{args.workload}_seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"manifest": info, "metrics": metrics, "report": report,
                       "spans": result["spans"]}, fh)
        for layer, seconds in report["layers_self_s_per_unit"].items():
            print(f"self time per unit  {layer:<12} {seconds:.4f} s")
        print(f"spans written to {os.path.relpath(trace_path, root)}")
    else:
        names = END_TO_END
        plans = [p for _, _, p in unit_plans(result["units"])]
        raw = {"setup_s": statistics.median(setup_s),
               "solve_s": statistics.median(p["solve_s"] for p in plans),
               "unit_s": sum(u["seconds"] for u in result["units"])}
        setup_ref = statistics.median(reference.samples)
        run_ref = statistics.median(result["reference_s"])
        metrics = {
            "setup_s": scaled(raw["setup_s"], setup_ref),
            "solve_s": scaled(raw["solve_s"], run_ref),
            "plans_per_s": len(plans) / scaled(raw["unit_s"], run_ref),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"unscaled setup_s={raw['setup_s']:.4f} solve_s={raw['solve_s']:.4f} "
              f"plans_per_s={len(plans) / raw['unit_s']:.4f}; reference kernel median "
              f"{setup_ref:.4f} s around set-up, {run_ref:.4f} s in the run "
              f"(nominal {NOMINAL_S} s)")
    for name, unit in names.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"ops {attempted} count")
    print(f"ops_failed {failed} count")
    print(result_line(correct, attempted, failed, metrics, names))
    return 0


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, names: dict) -> str:
    """The run's last output line: exactly the metrics in ``names``."""
    return json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                                   for name, unit in names.items()}})


if __name__ == "__main__":
    sys.exit(main())
