"""hexknot: uniform sampling and knot classification of equilateral hexagons.

The library parametrises unit-edge hexagons by three diagonal lengths
and three folding angles, samples that space uniformly, classifies each
hexagon as unknot or one of four trefoil components, and estimates the
knotting probability against the closed-form bound (14 - 3*pi)/192.
"""

from .geom import (
    DEGENERATE,
    EPS_AREA,
    EPS_CONTACT,
    EPS_EDGE,
    EPS_PLANE,
    crossing_signs,
    segment_distances,
    triple_product,
)
from .action_angle import (
    DegenerateFrameError,
    NotInteriorError,
    build_hexagon,
    extract_action_angle,
    in_moment_polytope,
    is_embedded,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
    triangle_area_scale,
)
from .invariants import (
    KNOT_CLASS_LABELS,
    JointChiralityCurl,
    KnotClass,
    classify,
    classify_batch,
    curl,
    disk_crossings,
    joint_chirality_curl,
    reverse,
    shift,
)
from .trefoil_predicates import (
    FilterReport,
    NineFunctions,
    class_masks,
    window_filters,
    nine_functions,
)
from .measure import (
    BoundReport,
    BoundViolatedError,
    EstimationReport,
    NoSamplesError,
    UnknownRegionError,
    VolumeEstimate,
    VolumeTable,
    analytic_volumes,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volume,
    repeat_estimates,
)

__version__ = "0.1.0"
