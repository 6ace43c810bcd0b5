"""Criterion 4's finding as frozen coordinates, certified exactly.

Each witness is a lane that oracle mode counted as a necessity
violation on the sample stream of its time: a genuine trefoil of its
class that passes the class predicate but fails the window filters.
The coordinates are stored here, so the finding does not depend on the
sample stream. The exact oracle (conftest.exact_class) decides each
class in rationals on the float vertices, independent of the kernels.
"""

import numpy as np
import pytest

from hexknot.action_angle import build_hexagon
from hexknot.invariants import KNOT_CLASS_LABELS, TREFOIL_PAIRS, KnotClass, classify_batch
from hexknot.measure import CHUNK_SIZE, sample_coordinate_stream
from hexknot.trefoil_predicates import class_masks, filter_clauses, passes_window_filters
from hexknot.geom import EPS_CONTACT
from conftest import WITNESSES, at_theta1, certify_theta1_pieces, exact_class
from test_golden import STREAM_CHUNK0_SHA256

# (class, diagonals, angles) of every necessity violator, as round-trip
# float literals.
NECESSITY_WITNESSES = (
    # estimate_knotting_probability(10**6, 5, "oracle"): chunk 12, lane 60,930
    ("trefoil_L-", (0.9095652479842813, 0.9183782454434855, 0.7166877547171171),
     (4.3907626082979485, 6.198172692819595, 6.231554106994214)),
    # estimate_knotting_probability(10**7, 9, "oracle"), in stream order
    ("trefoil_L+", (1.045031416005294, 0.762799007248613, 1.3203246365109944),
     (0.500738981281625, 0.3158175653246428, 0.06048701469785815)),
    ("trefoil_R-", (0.5045414703776627, 1.1171072297935691, 0.9776181196893832),
     (5.675703224581971, 6.142759635236313, 5.263645562328432)),
    ("trefoil_R+", (1.2032593606248703, 0.44730059752230167, 1.1150247549842498),
     (0.47043918885294245, 0.4653562171451109, 1.0712668529663887)),
    ("trefoil_R-", (0.710510986520037, 0.052309389111900195, 0.7135306950762808),
     (4.975736867315415, 6.012427780878629, 5.951261729268864)),
    ("trefoil_L-", (0.8093896243559817, 0.4359678641550824, 0.805197857739834),
     (6.113711695430972, 6.0585678741943445, 4.5803974524330515)),
    ("trefoil_R+", (0.8862705764260492, 0.9047561154708144, 0.14027529889672752),
     (0.40407863785058173, 0.10944108559573704, 0.06186626329896254)),
    ("trefoil_R+", (0.5165389898718578, 0.9586687038253972, 1.1307761539504955),
     (0.4283848719160064, 0.8378510091924184, 0.050187744835708085)),
    ("trefoil_L-", (1.5787218170305848, 0.9669862268218323, 1.2477556733741924),
     (5.963247658601312, 5.766225311644382, 5.559504631250726)),
    ("trefoil_R+", (1.2122056489383022, 1.2871174636751201, 0.3791414563416098),
     (1.0455625247682006, 0.3335811633750094, 0.4257927779324043)),
    ("trefoil_R+", (1.0046111157821322, 1.1373656164535109, 0.49665066719882267),
     (0.8450535417546697, 0.07126895159550056, 0.3417749161279426)),
    ("trefoil_R+", (0.701134572159678, 0.7047462060657694, 0.15245243424962363),
     (1.6961637369152025, 0.7469358694892784, 0.028908291577891654)),
    ("trefoil_L-", (0.6677011920259501, 0.8983388500413374, 0.9084966361587248),
     (6.1695417572553035, 4.564087695081904, 6.147087718266933)),
    ("trefoil_R-", (1.123918168697183, 0.9967733783021389, 0.4955590021175531),
     (6.159948138471798, 5.406163169833797, 5.8550659321599605)),
    ("trefoil_R+", (0.7142646951815605, 0.38382335481362184, 0.6959228346032731),
     (0.012134174908538478, 0.00291795171993514, 1.786127358056949)),
    ("trefoil_L-", (1.4128764414547594, 0.5466662656053671, 1.2498116807695712),
     (5.9519389243091645, 5.676842751722427, 5.298452911500266)),
    ("trefoil_R-", (0.7799046180874856, 0.77949527458127, 0.30169593078896373),
     (6.176787508591694, 4.135889840362447, 6.218884295304809)),
    ("trefoil_L+", (0.5467189009198281, 0.13842570346162453, 0.5493323852880925),
     (1.6979698688903608, 0.09715041970507704, 0.37119081151896505)),
    ("trefoil_L-", (0.9946184931737649, 1.0981575909086188, 0.39559187717771493),
     (5.269137969371978, 6.044704111467751, 5.820455894228645)),
    ("trefoil_L-", (1.2654561993611446, 0.17536156159106775, 1.228561102013844),
     (6.016042220712314, 5.848830795902043, 5.189904351477826)),
    ("trefoil_L-", (1.3372337707819082, 0.5115842317342707, 1.1528280381578142),
     (6.032849531375088, 5.528767114451136, 5.224017604644718)),
    ("trefoil_R+", (0.8521160952581783, 0.2466905387184657, 0.8515396532378334),
     (0.7487170044832289, 0.17220818483940836, 1.6418210781148732)),
    ("trefoil_R-", (1.6621852045083345, 1.2808199217371485, 0.9445061081077306),
     (6.077126800991356, 5.88332229235142, 6.008542953201952)),
    ("trefoil_L+", (0.796441467943297, 0.7929248387684971, 0.2973093519264345),
     (0.3112878630134285, 1.8722726817092716, 0.04719670765843039)),
    ("trefoil_L-", (0.5041471198859624, 0.9548399089964241, 0.9560831782031942),
     (6.276236704681272, 4.015341053661712, 5.981841527820086)),
    ("trefoil_R+", (1.152684970412344, 1.3828929799264915, 0.6937526296033365),
     (0.3404693447415621, 0.0847233414160159, 0.15731987172032408)),
    ("trefoil_R+", (0.4816999923840506, 0.48472648941734087, 0.03576440867617525),
     (1.149441755389071, 0.3842651203944682, 0.1754716093407248)),
    ("trefoil_R-", (0.6279940879852175, 0.296580514252037, 0.6359506452744954),
     (4.384239366780949, 6.238951478772692, 6.272465989322623)),
)

# Every witness passes the first three filter clauses of its curl sign
# and fails dominant_diagonal_window.
WITNESS_CLAUSES = {"curl_window": True, "angle_sums": True, "distinct_diagonals": True,
                   "dominant_diagonal_window": False}


def _exact_matches_classify(d, th):
    """The KnotClass of (d, th), after asserting that the exact oracle
    finds an embedded trefoil there, of classify_batch's class, and the
    mirror class at the mirrored angles."""
    v = build_hexagon(d, th)
    embedded, chirality, curl_sign = exact_class(v)
    assert embedded and chirality in (1, -1) and curl_sign in (1, -1)
    cls = KnotClass(classify_batch(v[None])[0])
    assert TREFOIL_PAIRS[cls] == (chirality, curl_sign)
    assert exact_class(build_hexagon(d, 2.0 * np.pi - np.asarray(th))) == \
        (True, -chirality, -curl_sign)
    return cls


@pytest.mark.parametrize("label, d, th", NECESSITY_WITNESSES)
def test_necessity_witness(label, d, th):
    cls = _exact_matches_classify(d, th)
    assert KNOT_CLASS_LABELS[cls] == label
    curl_sign = TREFOIL_PAIRS[cls][1]
    assert class_masks(d, th)[cls]
    assert not passes_window_filters(d, th)[curl_sign]
    clauses = filter_clauses(d, th)[curl_sign]
    assert {name: bool(value) for name, value in clauses.items()} == WITNESS_CLAUSES


def test_witness_arcs_are_bounded_by_contacts():
    # The theta_1 arcs of the witnesses, certified as in
    # test_trefoil_predicates.TestArcCertificate: each piece has the
    # predicted class, and every end where the predicate switches is a
    # self-contact. Most trefoil pieces lie outside the window set W, so
    # the knotted set outside W is bounded by contacts, not by W.
    labels, d, th = zip(*NECESSITY_WITNESSES)
    d, th = np.array(d), np.array(th)
    arcs = certify_theta1_pieces(d, th)
    assert np.array_equal(arcs["predicted"], arcs["oracle"])
    assert arcs["gaps"].max() <= EPS_CONTACT
    # each witness's own theta_1 lies in a piece of its class
    own = (arcs["lo"] < th[arcs["lane"], 0]) & (th[arcs["lane"], 0] < arcs["hi"])
    assert np.array_equal(arcs["lane"][own], np.arange(len(labels)))
    assert [KNOT_CLASS_LABELS[c] for c in arcs["predicted"][own]] == list(labels)
    trefoil = np.flatnonzero(arcs["predicted"])
    lane, mid = arcs["lane"][trefoil], arcs["mid"][trefoil]
    windows = passes_window_filters(*at_theta1(d, th, lane, mid))
    curl_sign = np.array([TREFOIL_PAIRS[c][1] for c in arcs["predicted"][trefoil]])
    outside = ~np.where(curl_sign > 0, windows[1], windows[-1])
    assert 0 < outside.sum() < len(trefoil)


@pytest.mark.parametrize("label", sorted(WITNESSES))
def test_class_witness_is_certified_exactly(label):
    d, th = WITNESSES[label]
    cls = _exact_matches_classify(d, th)
    assert KNOT_CLASS_LABELS[cls] == label
    assert class_masks(d, th)[cls] and passes_window_filters(d, th)[TREFOIL_PAIRS[cls][1]]


def test_exact_class_agrees_on_stream_lanes():
    d, th = next(sample_coordinate_stream(3, 300))
    v = build_hexagon(d, th)
    codes = classify_batch(v)
    for lane, code in enumerate(codes):
        embedded, chirality, curl_sign = exact_class(v[lane])
        if code == KnotClass.UNKNOT:
            assert embedded and chirality == 0
        else:
            assert TREFOIL_PAIRS[KnotClass(code)] == (chirality, curl_sign)


@pytest.mark.parametrize("seed", sorted(STREAM_CHUNK0_SHA256))
def test_exact_class_agrees_on_pinned_chunk_trefoils(seed):
    # every trefoil lane of the chunk-0 streams test_golden pins, and the
    # first 1,000 unknot lanes of seed 1
    v = build_hexagon(*next(sample_coordinate_stream(seed, CHUNK_SIZE)))
    codes = classify_batch(v)
    trefoils = np.nonzero(np.isin(codes, list(TREFOIL_PAIRS)))[0]
    assert len(trefoils) > 0
    for lane in trefoils:
        embedded, chirality, curl_sign = exact_class(v[lane])
        assert embedded and TREFOIL_PAIRS[KnotClass(codes[lane])] == (chirality, curl_sign)
    if seed == 1:
        for lane in np.nonzero(codes == KnotClass.UNKNOT)[0][:1000]:
            embedded, chirality, _ = exact_class(v[lane])
            assert embedded and chirality == 0, lane
