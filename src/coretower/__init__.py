"""Exact t-core tower combinatorics with q-series verification tools."""

from .partitions import (
    EMPTY,
    Partition,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    make_partition,
    partition_count,
)
from .series import (
    IntSeries,
    OrderMismatchError,
    add,
    div,
    divisor_sum_series,
    euler_product,
    mul,
    negate,
    partition_series,
    pochhammer_inf,
    q_derivative,
    series_one,
    series_zero,
    substitute_power,
    truncate,
)
from .tower import (
    CoreTower,
    core_tower,
    defect,
    is_generalized_core,
    is_t_core,
    pre_tower_row,
    reconstruct,
    row_size,
    t_core,
    t_quotient,
    tower_row_sizes,
)
from .genfun import (
    VerificationReport,
    check_congruence,
    check_recursion,
    compare_series,
    core_size_totals,
    defect_series,
    defect_series_brute,
    generalized_core_series,
    generalized_core_series_brute,
    monotonicity_check,
    regular_partition_series,
    row_weight_series,
    row_weight_series_brute,
    telescoped_row_weight_check,
)
from .asymptotics import (
    AsymptoticSample,
    DefectPrediction,
    defect_predict,
    defect_samples,
    eisenstein_transform_residual,
    eta_growth_ratio,
    hardy_ramanujan_estimate,
    samples_to_csv,
    transfer,
)

__version__ = "0.1.0"
