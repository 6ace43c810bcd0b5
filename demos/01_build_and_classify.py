"""Build hexagons from diagonal/angle coordinates and classify them.

A unit-edge hexagon is determined, up to rigid motion, by the lengths
of the three diagonals v1v3, v3v5, v5v1 and the folding angles around
them (pi = flat). This script walks through the construction, the
crossing-count invariants, and the five knot classes.
"""

import numpy as np

from hexknot import (
    KnotClass,
    KNOT_CLASS_LABELS,
    build_hexagon,
    classify,
    curl,
    disk_counts,
    extract_action_angle,
    is_embedded,
)
from hexknot.invariants import TREFOIL_PAIRS

# The flat regular hexagon: equal diagonals sqrt(3), all angles pi.
d = np.array([np.sqrt(3.0)] * 3)
theta = np.array([np.pi] * 3)
flat = build_hexagon(d, theta)
print("regular hexagon vertices:")
print(np.round(flat, 6))
print("edge lengths:", np.round(np.linalg.norm(np.roll(flat, -1, axis=0) - flat, axis=1), 12))
print("embedded:", bool(is_embedded(flat)), " curl:", int(curl(flat)))
print("class:", KNOT_CLASS_LABELS[classify(flat)])
print()

# Folding the first apex out of plane gives a nontrivial curl but the
# hexagon stays unknotted: a single fold cannot knot it.
bent = build_hexagon(d, np.array([np.pi / 2, np.pi, np.pi]))
print("one fold: curl =", int(curl(bent)), " class:", KNOT_CLASS_LABELS[classify(bent)])
print()

# A right-handed trefoil with positive curl. Each of the three disks
# spanned by alternating vertex triples is pierced once, positively.
d = np.array([1.1015096720772592, 1.0768930543734929, 0.35248056822414475])
theta = np.array([1.6901028398766105, 0.38533348057545025, 0.32012685222521037])
knot = build_hexagon(d, theta)
print("trefoil witness:")
counts, _ = disk_counts(knot)
for i, count in zip((2, 4, 6), counts[0]):
    print(f"  signed crossings through disk {i}: {count}")
print("joint invariant:", TREFOIL_PAIRS[classify(knot)])
print("class:", KNOT_CLASS_LABELS[classify(knot)])
print()

# Mirroring through the central plane (theta -> 2*pi - theta) flips
# both chirality and curl.
mirror = build_hexagon(d, 2.0 * np.pi - theta)
print("mirror image class:", KNOT_CLASS_LABELS[classify(mirror)])

# Coordinates round-trip through the construction.
d2, t2 = extract_action_angle(knot)
print("round trip error:", float(np.abs(d2 - d).max()), float(np.abs(t2 - theta).max()))
