"""Shared fixtures: frozen witnesses, brute-force geometric oracles and
reference arcs of the predicate set.

The oracles here recompute crossings by solving the intersection
equations directly (np.linalg.solve), and segment distances, crossing
signs and the curl exactly in rationals, independent of the kernels in
the package.
"""

from fractions import Fraction

import numpy as np
import pytest

from hexknot.action_angle import NON_ADJACENT_EDGE_PAIRS, build_hexagon, vertex_components
from hexknot.geom import segment_distances
from hexknot.invariants import TREFOIL_PAIRS, classify_batch
from hexknot.trefoil_predicates import class_masks, nine_functions

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


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _sub(u, v):
    return [x - y for x, y in zip(u, v)]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _sign(x):
    return (x > 0) - (x < 0)


def exact_sq_distance(p1, q1, p2, q2):
    """Squared distance of the closed segments [p1,q1] and [p2,q2] of
    Fraction points: the minimum over [0,1]^2 of the convex quadratic
    g(s, t) = |r + s*d1 - t*d2|^2. That is its interior critical point
    when the point lies in the square, else the least of the four clamped
    edge minima, which cover the corners."""
    d1, d2, r = _sub(q1, p1), _sub(q2, p2), _sub(p1, p2)
    a, b, e = _dot(d1, d1), _dot(d1, d2), _dot(d2, d2)
    c, f, rr = _dot(d1, r), _dot(d2, r), _dot(r, r)

    def g(s, t):
        return rr + 2 * s * c - 2 * t * f + s * s * a - 2 * s * t * b + t * t * e

    denom = a * e - b * b
    if denom > 0:
        s, t = (b * f - c * e) / denom, (a * f - b * c) / denom
        if 0 <= s <= 1 and 0 <= t <= 1:
            return g(s, t)

    def clamp(x):
        return min(max(x, 0), 1)

    return min([g(s, clamp((f + s * b) / e) if e else 0) for s in (0, 1)]
               + [g(clamp((t * b - c) / a) if a else 0, t) for t in (0, 1)])


def exact_triple_sign(a, b, c):
    """Sign of the triple product (a x b) . c of Fraction vectors."""
    return _sign(_dot(_cross(a, b), c))


def exact_crossing(p, q, a, b, c):
    """Crossing of edge p -> q through the open disk (a, b, c), exactly:
    +1 or -1 as (q - p) . n with n = (b - a) x (c - a), 0 for none, None
    where a deciding sign is an exact zero (degenerate).

    The edge crosses when p and q lie strictly on opposite sides of the
    disk's plane and the orientations (p, q, a, b), (p, q, b, c) and
    (p, q, c, a) share one strict sign."""
    n = _cross(_sub(b, a), _sub(c, a))
    sides = _sign(_dot(_sub(p, a), n)) * _sign(_dot(_sub(q, a), n))
    if sides >= 0:
        return 0 if sides > 0 else None
    turns = {exact_triple_sign(_sub(q, p), _sub(x, p), _sub(y, p))
             for x, y in ((a, b), (b, c), (c, a))}
    if 0 in turns:
        return None
    return _sign(_dot(_sub(q, p), n)) if len(turns) == 1 else 0


def exact_near_disk(p, q, a, b, c, edge_tol, plane_tol):
    """True where the crossing test of edge p -> q against disk (a, b, c)
    is within tolerance, exactly on Fraction points: the closed edge comes
    within edge_tol of a side of the disk, or an endpoint lies within
    plane_tol of the disk's plane with its foot in the closed disk."""
    sides = ((a, b), (b, c), (c, a))
    if any(exact_sq_distance(p, q, x, y) <= Fraction(edge_tol) ** 2 for x, y in sides):
        return True
    n = _cross(_sub(b, a), _sub(c, a))
    return any(_dot(_sub(e, a), n) ** 2 <= Fraction(plane_tol) ** 2 * _dot(n, n)
               and all(exact_triple_sign(_sub(x, e), _sub(y, e), n) >= 0 for x, y in sides)
               for e in (p, q))


def exact_class(vertices):
    """(embedded, chirality, curl) of one hexagon's float vertices, in
    rationals: embedded when every non-adjacent edge pair lies a positive
    exact distance apart; chirality the product of the signed crossing
    counts through disks (v_k, v_k+1, v_k+2), k = 0, 2, 4 (0-based), over
    the edges disjoint from each disk: 0 if a disk whose tests are all
    decided counts 0 (that factor decides the product, as a clean disk-2
    zero decides classify_batch's unknot), else None if one of those
    tests is degenerate; curl the sign of (v3 - v1) x (v5 - v1) . (v2 - v1).

    Exact on the float vertices, not on the real hexagon they round."""
    w = [[Fraction(float(x)) for x in row] for row in np.asarray(vertices, dtype=float)]
    edge = [(w[j], w[(j + 1) % 6]) for j in range(6)]
    embedded = all(exact_sq_distance(*edge[i], *edge[j]) > 0
                   for i in range(6) for j in range(i + 2, 6) if (i, j) != (0, 5))
    curl = exact_triple_sign(_sub(w[2], w[0]), _sub(w[4], w[0]), _sub(w[1], w[0]))
    counts = []
    for k in (0, 2, 4):
        disk = (w[k], w[k + 1], w[(k + 2) % 6])
        signs = [exact_crossing(*edge[j], *disk) for j in ((k + 3) % 6, (k + 4) % 6)]
        counts.append(None if None in signs else sum(signs))
    if 0 in counts:
        return embedded, 0, curl
    return embedded, None if None in counts else counts[0] * counts[1] * counts[2], curl


def theta1_pieces(d, th):
    """Reference arcs along theta_1 of (n, 3) coordinate lanes.

    Starts from the lanes whose three angles lie on one side of pi, the
    curl's, and whose g1 and h1 have the curl's sign; those two and f1
    do not read theta_1. Each of f2, g2, h2, f3, g3 and h3 is A + B cos
    t + C sin t in t = theta_1, and nine_functions at t = 0, pi/2 and pi
    gives A, B and C. Its roots are phi +- arccos(-A/R), with R = hypot(B,
    C) and phi = atan2(C, B). The roots inside the curl's half-circle,
    sorted together with its two ends, cut it into pieces, and the sign
    of every function is constant on each piece.

    Returns (lane, lo, hi): each piece's lane index into d and th and
    its ends, in lane order and then in increasing theta_1, so that
    neighbouring pieces of one lane share an end.
    """
    below = np.all((th > 0.0) & (th < np.pi), axis=-1)
    above = np.all((th > np.pi) & (th < 2.0 * np.pi), axis=-1)
    curl = np.where(below, 1.0, np.where(above, -1.0, 0.0))
    _, g1, h1 = nine_functions(d, th)[:3]
    lane = np.flatnonzero((curl * g1 > 0.0) & (curl * h1 > 0.0))
    d, th, curl = d[lane], th[lane], curl[lane]

    def at(t):
        return np.array(nine_functions(d, np.column_stack([np.full(len(lane), t), th[:, 1:]]))[3:])

    f0, f90, f180 = at(0.0), at(0.5 * np.pi), at(np.pi)
    a, b = 0.5 * (f0 + f180), 0.5 * (f0 - f180)
    c = f90 - a
    with np.errstate(divide="ignore", invalid="ignore"):  # no root where |A| > R
        half = np.arccos(-a / np.hypot(b, c))
    phi = np.arctan2(c, b)
    roots = np.concatenate([phi + half, phi - half]) % (2.0 * np.pi)
    start = np.where(curl > 0.0, 0.0, np.pi)
    inside = (roots > start) & (roots < start + np.pi)
    cuts = np.sort(np.vstack([np.where(inside, roots, np.nan), start, start + np.pi]).T, axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    rows, cols = np.nonzero(hi > lo)  # NaN (no root) compares False
    return lane[rows], lo[rows, cols], hi[rows, cols]


def at_theta1(d, th, lane, t):
    """The lanes' coordinates with theta_1 replaced by t."""
    moved = th[lane].copy()
    moved[:, 0] = t
    return d[lane], moved


def pair_endpoints(vertices):
    """Per non-adjacent pair (i, j), the component-first endpoints
    (v_i, v_i+1, v_j, v_j+1) of its two edges."""
    w = vertex_components(vertices)
    return [(w[i], w[(i + 1) % 6], w[j], w[(j + 1) % 6]) for i, j in NON_ADJACENT_EDGE_PAIRS]


def reference_distances(vertices):
    """(9, n) closed-segment distances of every non-adjacent edge pair."""
    return np.stack([segment_distances(*ends) for ends in pair_endpoints(vertices)])


def certify_theta1_pieces(d, th):
    """Check the predicate set along theta_1 against the geometry.

    Each piece of theta1_pieces gets the class of class_masks at its
    midpoint (0 where no mask holds) and the class of classify_batch.
    Where class_masks switches between counted and uncounted across an
    end shared by two pieces, the hexagon at that end is returned too:
    its closest non-adjacent edges are the contact that lets the knot
    type change there. Returns a dict of the pieces' lane, ends and
    midpoint, their predicted and geometric class, and the closest edge
    gap at each switching end.
    """
    d, th = (np.asarray(x, dtype=float) for x in (d, th))
    lane, lo, hi = theta1_pieces(d, th)
    mid = 0.5 * (lo + hi)
    masks = class_masks(*at_theta1(d, th, lane, mid))
    predicted = np.zeros(len(lane), dtype=np.int8)
    for cls in TREFOIL_PAIRS:
        predicted[masks[cls]] = int(cls)
    counted = predicted != 0
    switch = np.flatnonzero((lane[1:] == lane[:-1]) & (counted[1:] != counted[:-1]))
    ends = at_theta1(d, th, lane[switch], hi[switch])
    return {
        "lane": lane, "lo": lo, "hi": hi, "mid": mid, "predicted": predicted,
        "oracle": classify_batch(build_hexagon(*at_theta1(d, th, lane, mid))),
        "gaps": reference_distances(build_hexagon(*ends)).min(axis=0),
    }


# Vertex relabellings of a hexagon for the automorphism tests
# (criterion 6 and TestAutomorphisms).
_SHIFT = (1, 2, 3, 4, 5, 0)
_REVERSE = (0, 5, 4, 3, 2, 1)


def shift(vertices):
    """Root shift: (v1,...,v6) -> (v2,...,v6,v1)."""
    v = np.asarray(vertices, dtype=float)
    return v[..., _SHIFT, :]


def reverse(vertices):
    """Orientation reversal: (v1,...,v6) -> (v1,v6,v5,v4,v3,v2)."""
    v = np.asarray(vertices, dtype=float)
    return v[..., _REVERSE, :]


def random_rotation(rng):
    """Haar-ish random rotation matrix from a QR decomposition."""
    m, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(m) < 0:
        m[:, 0] = -m[:, 0]
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
