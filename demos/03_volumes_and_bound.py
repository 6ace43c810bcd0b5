"""Verify the closed-form volume constants behind the knotting bound.

The bound multiplies polytope-region fractions (how often one diagonal
dominates, and whether the central triangle is obtuse at it) by torus
window fractions (where the folding angles must land). Each constant
has a closed form; Monte Carlo confirms them all.
"""

from hexknot import mc_region_volume
from hexknot.measure import CLOSED_FORMS, POSITIVE_CURL_BOUND, REGIONS

N = 2_000_000
print("closed forms:")
for name, value in CLOSED_FORMS.items():
    print(f"  {name:18s} = {value:.12f}")
print(f"  expected positive-curl bound = {POSITIVE_CURL_BOUND:.12f}")
print()

print(f"{'region':22s} {'analytic':>12s} {'monte carlo':>12s} {'z':>6s}")
for region in REGIONS:
    est = mc_region_volume(region, N, seed=99, workers=2)
    print(f"{region:22s} {est.analytic:12.6f} {est.value:12.6f} {est.z_score():6.2f}")
print()
print(f"upper bound (14 - 3*pi)/192 = {CLOSED_FORMS['upper_bound']:.12f}")
print(f"1/42                        = {1 / 42:.12f}")
print("note: the closed-form bound is numerically larger than 1/42.")
