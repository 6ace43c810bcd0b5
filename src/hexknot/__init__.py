"""hexknot: uniform sampling and knot classification of equilateral hexagons.

The library parametrises unit-edge hexagons by three diagonal lengths
and three folding angles, samples that space uniformly, classifies each
hexagon as unknot or one of four trefoil components, and estimates the
knotting probability against the closed-form bound (14 - 3*pi)/192.
"""

from .geom import (
    EPS_CONTACT,
    crossing_signs,
    segment_distances,
    triple_product,
)
from .action_angle import (
    build_hexagon,
    extract_action_angle,
    is_embedded,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
)
from .invariants import (
    KNOT_CLASS_LABELS,
    KnotClass,
    classify,
    classify_batch,
    curl,
    disk_counts,
)
from .trefoil_predicates import (
    class_masks,
    filter_clauses,
    nine_functions,
)
from .measure import (
    BoundViolatedError,
    EstimationReport,
    VolumeEstimate,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volumes,
    repeat_estimates,
)

__version__ = "0.1.0"
