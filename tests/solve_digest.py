"""Print one line per solve of a fixed set of LPs, to compare two versions of the solver.

The set is every ``random_block_instance`` seed 0-399, the 64 demo
bound sets ``draw_bound_set`` draws (seeds 1, 2, 3 and 302, draws 0-15
each), solved at balanced weights with the case's settings, seeds
0-39 again with ``max_iterations=8``, most of which end at the iteration
limit, whose iterate the history and restart leave out, and the demo
refined to 8x the voxels at the six weights of its grid-order-2 sweep,
each solved from the least-squares point of one ``PreparedLP``.  Each line
holds the label, status, iteration count, a digest of the history, the
solution (x, y, z, w, slack) and the restart iterate, and the message.
A change meant to keep every iterate shows the same output as its
parent:

    PYTHONPATH=<parent checkout>/src python tests/solve_digest.py > parent.txt
    PYTHONPATH=src python tests/solve_digest.py > change.txt
    diff parent.txt change.txt

The ``mtdplan`` on ``PYTHONPATH`` is the one measured; the instances come
from this checkout's ``tests/helpers.py`` and ``benchmarks/workloads.py``.
Not a test: the file name keeps pytest from collecting it.
"""

import hashlib
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "benchmarks")]

from mtdplan import ipm, mco  # noqa: E402
from mtdplan.case import case_from_dict  # noqa: E402

from helpers import balanced_lp, demo_variant, random_block_instance  # noqa: E402
from workloads import draw_bound_set  # noqa: E402

RANDOM_SEEDS = range(400)
DRAW_SEEDS = (1, 2, 3, 302)
DRAWS_PER_SEED = 16
LIMITED_SEEDS = range(40)
LIMITED_ITERATIONS = 8
REFINED_GRID_ORDER = 2


def digest(result: ipm.SolveResult) -> str:
    """SHA-256 of the history's fields, the solution's bytes and the restart iterate."""
    h = hashlib.sha256()
    for rec in result.history:
        h.update(np.array([rec.iteration, rec.primal_residual, rec.dual_residual, rec.gap_gy,
                           rec.mu, rec.step_primal, rec.step_dual, rec.sigma,
                           rec.regularized], dtype=float).tobytes())
    for array in (result.x, result.dual.y, result.dual.z, result.dual.w, result.slack):
        h.update(array.tobytes())
    h.update(np.array([result.objective, result.gap_gy, result.primal_residual,
                       result.dual_residual]).tobytes())
    restart = result.restart
    if restart is not None:
        h.update(np.array([restart.iteration, restart.mu]).tobytes())
        for array in (restart.x, restart.s, restart.y, restart.z, restart.w):
            h.update(array.tobytes())
    return h.hexdigest()[:16]


def line(label: str, result: ipm.SolveResult) -> str:
    return f"{label} {result.status} {result.iterations} {digest(result)} {result.message}"


def main() -> None:
    for seed in RANDOM_SEEDS:
        *_, lp = random_block_instance(seed)
        print(line(f"random{seed:03d}", ipm.solve(lp, ipm.SolverSettings())), flush=True)
    for seed in DRAW_SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(DRAWS_PER_SEED):
            case = case_from_dict(draw_bound_set(rng, index))
            result = ipm.solve(balanced_lp(case), case.solver_settings())
            print(line(f"seed{seed}-draw{index:03d}", result), flush=True)
    for seed in LIMITED_SEEDS:
        *_, lp = random_block_instance(seed)
        result = ipm.solve(lp, ipm.SolverSettings(max_iterations=LIMITED_ITERATIONS))
        print(line(f"limit{LIMITED_ITERATIONS}-random{seed:03d}", result), flush=True)
    case = demo_variant("refined")
    prepared = mco.prepared_instance(case)
    for index, weights in enumerate(mco.weight_grid(case.criteria.num_slots, REFINED_GRID_ORDER)):
        result = ipm.solve(prepared.lp.reweighted(weights), case.solver_settings(),
                           prepared=prepared)
        print(line(f"refined-grid{REFINED_GRID_ORDER}-point{index}", result), flush=True)


if __name__ == "__main__":
    main()
