"""Shared fixtures: frozen witnesses and brute-force geometric oracles.

The oracles here recompute crossings by solving the intersection
equations directly (np.linalg.solve), independent of the signed-volume
predicates in the package.
"""

import numpy as np
import pytest

# One frozen coordinate tuple per trefoil class, mined by seeded search
# and pinned; tests assert the full pipeline reproduces the class.
WITNESSES = {
    "trefoil_R+": (
        (1.1015096720772592, 1.0768930543734929, 0.35248056822414475),
        (1.6901028398766105, 0.38533348057545025, 0.32012685222521037),
    ),
    "trefoil_R-": (
        (0.52891942790458102, 0.21713068848430517, 0.51976316488104746),
        (4.657248763433973, 5.9414777182207947, 6.0745712323477283),
    ),
    "trefoil_L+": (
        (0.79275239049130297, 0.76204198015042723, 0.90200005243780224),
        (0.35643926500835776, 0.046256564107848758, 2.0745622781239152),
    ),
    "trefoil_L-": (
        (0.83316769086218012, 0.8635740595910868, 0.59463637352185805),
        (5.0476875399711076, 6.2075131568167921, 5.3983493188789486),
    ),
}

REGULAR_DIAGONALS = (np.sqrt(3.0), np.sqrt(3.0), np.sqrt(3.0))
REGULAR_ANGLES = (np.pi, np.pi, np.pi)


def solve_crossing(p, q, a, b, c):
    """Segment-triangle crossing by direct linear solve.

    Returns (sign, margin): sign is +1/-1 when the open segment crosses
    the open triangle (sign of direction against the (a,b,c) normal),
    0 otherwise; margin is the smallest distance of the solution from
    any decision boundary in parameter space (use it to skip cases too
    close to call).
    """
    p, q, a, b, c = (np.asarray(x, dtype=float) for x in (p, q, a, b, c))
    m = np.column_stack([q - p, a - b, a - c])
    try:
        t, u, v = np.linalg.solve(m, a - p)
    except np.linalg.LinAlgError:
        return 0, 0.0
    margin = min(t, 1.0 - t, u, v, 1.0 - u - v)
    if 0.0 < t < 1.0 and u > 0.0 and v > 0.0 and u + v < 1.0:
        n = np.cross(b - a, c - a)
        return (1 if np.dot(q - p, n) > 0.0 else -1), margin
    return 0, margin


def brute_force_disk_count(vertices, i):
    """Signed crossings through disk (v_{i-1}, v_i, v_{i+1}) by checking
    all six hexagon edges with the linear-solve oracle.

    Edges touching the disk's vertices produce boundary solutions whose
    margin is only float noise; the margin guard drops those, leaving
    the genuinely transversal crossings.
    """
    v = np.asarray(vertices, dtype=float)
    rows = {2: (0, 1, 2), 4: (2, 3, 4), 6: (4, 5, 0)}[i]
    a, b, c = v[rows[0]], v[rows[1]], v[rows[2]]
    total = 0
    for j in range(6):
        sign, margin = solve_crossing(v[j], v[(j + 1) % 6], a, b, c)
        if margin > 1e-9:
            total += sign
    return total


def random_rotation(rng):
    """Haar-ish random rotation matrix from a QR decomposition."""
    m, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(m) < 0:
        m[:, 0] = -m[:, 0]
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
