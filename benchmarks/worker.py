"""Runs the planner for one benchmark run, in a fresh interpreter.

    python3 worker.py setup <case.json>
        Time importing the planner, loading and voxelizing the case and
        computing its dose influence; print {"setup_s": ...}.

    python3 worker.py run <plan.json> <result.json>
        Repeat the plan's unit of work (its list of ``mtdplan`` commands)
        until the plan's seconds are spent, then write per-unit wall
        times, every plan's status, objective and solve time, and the
        peak resident memory to <result.json>.  With tracing on, units
        alternate untraced and traced and the spans are written too.

``run.py`` starts this script with BLAS threads pinned to one, a fixed
``PYTHONHASHSEED`` and the influence cache unset; the program sees only
the case files and arguments.
"""

import time

_T0 = time.perf_counter()  # setup time starts before the planner is imported

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import ROOT_LAYER, Tracer  # noqa: E402


def setup(case_path: str) -> None:
    from mtdplan import cli
    case = cli.load_case(case_path)
    case.dose_influence()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


class PlanProbe:
    """Times every ``solve_single_weight`` call and keeps the plan's verdict.

    This is the one wrapper present in untraced runs: it gives the
    per-plan solve time (weights to evaluated plan) and the statuses and
    objectives the oracle check needs.  With a ``reference`` it also times
    the machine-speed reference kernel after each plan, so that the
    samples spread over the run like the work does.
    """

    def __init__(self, original, reference=None):
        self.original = original
        self.reference = reference
        self.records: list[dict] = []

    def __call__(self, case, weights, settings=None):
        record = {"weights": [float(w) for w in weights]}
        self.records.append(record)
        start = time.perf_counter()
        try:
            plan = self.original(case, weights, settings)
        except Exception as exc:
            record.update(status="error", message=repr(exc))
            raise
        finally:
            record["solve_s"] = time.perf_counter() - start
            if self.reference:
                self.reference.sample()
        record.update(status=plan.status, objective=float(plan.objective_value),
                      iterations=int(plan.iterations))
        return plan


def _argv(op: dict, out: str) -> list[str]:
    if op["command"] == "pareto":
        return ["pareto", "--case", op["case"], "--grid-order", str(op["grid_order"]),
                "--workers", "1", "--out", out]
    return ["solve", "--case", op["case"], "--out", out]


def _dose_path(op: dict, out: str, index: int) -> str:
    if op["command"] == "pareto":
        return os.path.join(out, f"plan_{index:03d}", "plan_dose.bin")
    return os.path.join(out, "plan_dose.bin")


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ``VmHWM`` belongs to the address space made by exec; ``ru_maxrss``
    would also carry the parent's size at fork.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _newton_seconds(case_path: str) -> float:
    """``ipm.time_newton_solve`` at default arguments, unit diagonals."""
    import numpy as np
    from mtdplan import cli, ipm
    from mtdplan.formulation import build_weighted_instance
    case = cli.load_case(case_path)
    slots = case.criteria.num_slots
    lp = build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                 case.criteria, np.full(slots, 1.0 / slots), name=case.name)
    system = ipm.KKTSystem(a11=lp.a11, a12=lp.a12, a21=lp.a21, a22=lp.a22,
                           d1=np.ones(lp.n1), d2=np.ones(lp.n2), d3=np.ones(lp.m1),
                           d4=np.ones(lp.m2), num_zero_rows=lp.num_zero_rows)
    return ipm.time_newton_solve(system, np.ones(system.order))


def run(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    from mtdplan import cli, mco

    from calibration import Reference

    # Reference samples would show up inside traced spans: untraced runs only.
    reference = None if plan["trace"] else Reference()
    probe = PlanProbe(mco.solve_single_weight, reference)
    mco.solve_single_weight = cli.solve_single_weight = probe
    pareto = [op for op in plan["ops"] if op["command"] == "pareto"]
    if pareto:
        # The lattice stays the program's; the seed only reorders it.
        lattice, order = mco.weight_grid, pareto[0]["order"]
        mco.weight_grid = lambda k, n: lattice(k, n)[order]

    tracer = Tracer()
    units = []
    start = time.perf_counter()
    while True:
        index = len(units)
        traced = bool(plan["trace"]) and index % 2 == 1
        if traced:
            tracer.unit = index
            tracer.install()
        ops = []
        first_sample = len(reference.samples) if reference else 0
        if reference:
            reference.sample()
        unit_start = time.perf_counter()
        for j, op in enumerate(plan["ops"]):
            out = os.path.join(plan["out_root"], f"u{index:03d}_{j:02d}")
            first = len(probe.records)
            record = {"label": op["label"], "case": op["case"], "out": out}
            span = tracer.span("cli.main", ROOT_LAYER) if traced else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(io.StringIO()):
                try:
                    record["exit_code"] = cli.main(_argv(op, out))
                except Exception as exc:  # a failed op is counted, never fatal
                    record["error"] = repr(exc)
            record["plans"] = probe.records[first:]
            for i, p in enumerate(record["plans"]):
                p["dose_path"] = _dose_path(op, out, i)
            ops.append(record)
        seconds = time.perf_counter() - unit_start
        if traced:
            tracer.uninstall()
        unit = {"index": index, "traced": traced, "seconds": seconds, "ops": ops,
                "bytes": sum(_tree_bytes(op["out"]) for op in ops if os.path.isdir(op["out"]))}
        if reference:  # leave out the samples taken between plans
            unit["seconds"] -= sum(reference.samples[first_sample + 1:])
        if not units:
            # Later units would add cyclic garbage whose collection timing, not
            # the work, sets the high-water mark.
            peak_rss_mb = _peak_rss_mb()
        units.append(unit)
        kinds = {u["traced"] for u in units}
        covered = len(kinds) == 2 or not plan["trace"]
        if covered and time.perf_counter() - start + seconds > plan["seconds"]:
            break

    result = {"units": units, "peak_rss_mb": peak_rss_mb}
    if reference:
        result["reference_s"] = reference.samples
    if plan["trace"]:
        result["spans"] = tracer.spans
        result["newton_s"] = _newton_seconds(plan["ops"][0]["case"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
