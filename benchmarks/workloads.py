"""Seeded inputs and the HiGHS oracle for the planner benchmark.

Every workload is derived from the bundled ``demo:prostate_demo`` case.
``prepare`` writes the case files a run hands to the program, plus the
run plan the worker executes, and solves every distinct LP once with
HiGHS so the worker's plans can be checked afterwards.  The same seed
always gives byte-identical case files and the same plan.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from scipy.optimize import linprog

from mtdplan import mco
from mtdplan.case import case_from_dict, load_case, read_case_text
from mtdplan.formulation import build_weighted_instance

DEMO = "demo:prostate_demo"
WORKLOADS = ("demo-pareto", "refined-solve", "bound-verdicts")

GRID_ORDER = 4

# 2.5 mm voxels over the demo's 120 x 120 x 60 mm extent: 8x the voxels.
# At the demo's 3 mm kernel sigma the 10 mm leaf rows leave dose ripples
# that make every refinement below 4 mm infeasible; 5 mm smooths them out.
REFINED_GRID = [48, 48, 24]
REFINED_VOXEL_MM = [2.5, 2.5, 2.5]
REFINED_SIGMA_MM = 5.0

# bound-verdicts: each round holds the demo's own bounds, this many drawn
# sets of each HiGHS verdict, and one plainly contradictory set.  Fixing the
# verdict mix keeps a round's work comparable across seeds.
DRAWN_FEASIBLE = 12
DRAWN_INFEASIBLE = 1
MAX_DRAWS = 200
TIGHTEN_GY = (-1.5, 2.5)
CONTRADICTORY = ("ptv_dav50_floor", "hard_lower", 66.0)


def demo_doc() -> dict:
    return json.loads(read_case_text(DEMO))


def refined_doc() -> dict:
    doc = demo_doc()
    doc["name"] = "prostate_demo_refined"
    doc["phantom"]["grid_dims"] = list(REFINED_GRID)
    doc["phantom"]["voxel_size_mm"] = list(REFINED_VOXEL_MM)
    doc["kernel"]["lateral_sigma_mm"] = REFINED_SIGMA_MM
    return doc


def contradictory_doc() -> dict:
    doc = demo_doc()
    doc["name"] = "prostate_demo_floor66"
    name, key, value = CONTRADICTORY
    next(c for c in doc["criteria"] if c["name"] == name)[key] = value
    return doc


def draw_bound_set(rng: np.random.Generator, index: int) -> dict:
    """The demo with every hard bound moved by U(-1.5, +2.5) Gy, tightening.

    An upper bound moves down and a lower bound up by the drawn amount; a
    moved bound never crosses the criterion's utopian level.
    """
    doc = demo_doc()
    doc["name"] = f"prostate_demo_draw{index:03d}"
    for criterion in doc["criteria"]:
        shift = float(rng.uniform(*TIGHTEN_GY))
        if "hard_upper" in criterion:
            moved = criterion["hard_upper"] - shift
            criterion["hard_upper"] = round(max(moved, criterion.get("utopian_lower", 0.0)), 3)
        if "hard_lower" in criterion:
            moved = criterion["hard_lower"] + shift
            criterion["hard_lower"] = round(min(moved, criterion.get("utopian_upper", np.inf)), 3)
    return doc


def case_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def write_case(directory: str, doc: dict) -> str:
    path = os.path.join(directory, f"{doc['name']}.json")
    with open(path, "wb") as fh:
        fh.write(case_bytes(doc))
    return path


def balanced_weights(num_slots: int) -> np.ndarray:
    """The weights ``mtdplan solve`` uses when none are given."""
    return np.full(num_slots, 1.0 / num_slots)


def lp_key(case_path: str, weights) -> str:
    """Identifier of one weighted-sum LP: its case file and weight vector."""
    return os.path.basename(case_path) + "|" + ",".join(f"{float(w):.12g}" for w in weights)


def highs_reference(case, weights) -> dict:
    """Solve the weighted-sum LP with HiGHS and return its verdict.

    The verdict is ``feasible`` (with the optimal objective), ``infeasible``,
    or ``unknown`` when HiGHS stops for any other reason.
    """
    lp = build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                 case.criteria, weights, name=case.name)
    bounds = [(float(lo), float(up) if np.isfinite(up) else None)
              for lo, up in zip(lp.lower, lp.upper)]
    a_ub = (-lp.matrix()).tocsc()
    start = time.perf_counter()
    res = linprog(c=lp.objective_vector, A_ub=a_ub, b_ub=-lp.rhs(), bounds=bounds, method="highs")
    seconds = time.perf_counter() - start
    verdict = {0: "feasible", 2: "infeasible"}.get(res.status, "unknown")
    return {"verdict": verdict, "objective": float(res.fun) if res.status == 0 else None,
            "highs_status": int(res.status), "message": str(res.message), "seconds": seconds}


def prepare(workload: str, seed: int, directory: str) -> tuple[dict, dict]:
    """Write the workload's case files into ``directory``.

    Returns ``(plan, oracle)``: the plan lists the ops of one unit of work
    (the worker repeats units until its time is up), and the oracle maps
    each distinct LP's :func:`lp_key` to its HiGHS reference.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    oracle: dict[str, dict] = {}
    ops: list[dict] = []

    def add_solve(doc: dict, label: str, ref: dict | None = None) -> None:
        path = write_case(directory, doc)
        case = load_case(path)
        weights = balanced_weights(case.criteria.num_slots)
        oracle[lp_key(path, weights)] = ref or highs_reference(case, weights)
        ops.append({"command": "solve", "case": path, "label": label})

    if workload == "demo-pareto":
        path = write_case(directory, demo_doc())
        case = load_case(path)
        grid = mco.weight_grid(case.criteria.num_slots, GRID_ORDER)
        for weights in grid:
            oracle[lp_key(path, weights)] = highs_reference(case, weights)
        # The seed picks the order in which the lattice points are solved.
        order = np.random.default_rng(seed).permutation(grid.shape[0])
        ops.append({"command": "pareto", "case": path, "label": "demo",
                    "grid_order": GRID_ORDER, "order": [int(i) for i in order]})
    elif workload == "refined-solve":
        add_solve(refined_doc(), "refined")
    else:
        add_solve(demo_doc(), "demo")
        wanted = {"feasible": DRAWN_FEASIBLE, "infeasible": DRAWN_INFEASIBLE}
        picked: dict[str, list] = {"feasible": [], "infeasible": []}
        rng = np.random.default_rng(seed)
        k = 0
        while any(len(picked[v]) < n for v, n in wanted.items()):
            if k == MAX_DRAWS:
                raise RuntimeError(f"seed {seed}: {MAX_DRAWS} draws did not fill the verdict mix")
            doc = draw_bound_set(rng, k)
            case = case_from_dict(doc)
            ref = highs_reference(case, balanced_weights(case.criteria.num_slots))
            # Draws HiGHS cannot settle are skipped: nothing could check them.
            if len(picked.get(ref["verdict"], ())) < wanted.get(ref["verdict"], 0):
                picked[ref["verdict"]].append((doc, f"draw{k:03d}-{ref['verdict']}", ref))
            k += 1
        for doc, label, ref in picked["feasible"] + picked["infeasible"]:
            add_solve(doc, label, ref)
        add_solve(contradictory_doc(), "floor66")
    return {"workload": workload, "seed": seed, "ops": ops}, oracle
