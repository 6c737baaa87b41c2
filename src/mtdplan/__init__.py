"""Mean-tail-dose multicriteria plan optimization for sliding-window DMLC delivery.

The package models radiotherapy planning goals as upper/lower
mean-tail-dose objectives with hard and utopian dose bounds, couples
them to linear sliding-window deliverability constraints, expands each
weighted-sum instance into a block-partitioned linear program and solves
it with a structure-exploiting primal-dual interior point method whose
stopping rule is a duality gap expressed directly in dose.
"""

import os

# One BLAS/OpenMP thread unless the caller set a count: a threaded BLAS may split and
# sum a product in another order, so the plans would depend on the machine's core count.
# This holds only if numpy is not loaded yet; a program that imported numpy first keeps
# the BLAS pool it started with.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .case import Case, case_from_dict, demo_case_path, load_case
from .dmlc import (Trajectories, build_deliverability_constraints, dose_from_trajectories,
                   fluence_from_trajectories, sweep_time_lower_bound, validate_trajectories)
from .errors import CaseError, DataError, FormulationError, MtdplanError, PhantomError
from .evaluation import (QualityIndexSpec, dose_at_volume, dvh_curve, evaluate_plan,
                         homogeneity_index, lower_mean_tail_dose, upper_mean_tail_dose)
from .formulation import (BlockLP, Criterion, CriterionSet, build_weighted_instance,
                          partition_report, scalarized_objective_value)
from .ipm import (KKTSystem, SolverSettings, SolveResult, duality_gap_in_dose,
                  invert_voxelwise_quadrant, schur_solve, solve)
from .mco import (ParetoSet, Plan, generate_pareto_set, hull_and_shift_report,
                  nondominated_subset, solve_single_weight, weight_grid)
from .phantom import (DoseInfluence, KernelParams, MachineModel, Phantom, PhantomSpec, ROI,
                      RoiShapeSpec, RoiSpec, build_phantom, compute_dose_influence,
                      roi_weight_vector)

__version__ = "0.1.0"
