"""Multi-task optimization with tracked task affinity and selective group updates."""

from .affinity import (AffinityTracker, group_shared_affinity, group_update_affinity,
                       inter_task_affinity, two_step_affinity)
from .analysis import SuiteReport, TaskResult, delta_m, run_property_suite, summarize_run
from .benchmarks import (QuadraticSpec, RegressionSuiteSpec, gen_quadratic_suite,
                         gen_regression_suite, load_csv_dataset, triad_spec)
from .grouping import GroupPartition, make_partition, partition_tasks, shuffle_order
from .models import (Batch, ParamPartition, QuadraticModel, TaskSuite,
                     build_shared_trunk, restore, snapshot)
from .optim import (Adam, NumericAbort, PlainSGD, RunLog, StepReport, TrainConfig,
                    joint_step, selective_group_step, train)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
