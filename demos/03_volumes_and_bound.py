"""Verify the closed-form volume constants behind the knotting bound.

The bound multiplies polytope-region fractions (how often one diagonal
dominates, and whether the central triangle is obtuse at it) by torus
window fractions (where the folding angles must land). Each constant
has a closed form; Monte Carlo confirms them all.
"""

from hexknot import mc_region_volumes
from hexknot.measure import CLOSED_FORMS, ONE_OVER_42, POSITIVE_CURL_BOUND, UPPER_BOUND

N = 2_000_000
print("closed forms:")
for name, value in CLOSED_FORMS.items():
    print(f"  {name:18s} = {value:.12f}")
print(f"  expected positive-curl bound = {POSITIVE_CURL_BOUND:.12f}")
print()

print(f"{'region':22s} {'analytic':>12s} {'monte carlo':>12s} {'z':>6s}")
for region, est in mc_region_volumes(N, seed=99, workers=2).items():
    print(f"{region:22s} {est.analytic:12.6f} {est.value:12.6f} {est.z_score():6.2f}")
print()
print(f"upper bound (14 - 3*pi)/192 = {UPPER_BOUND:.12f}")
print(f"1/42                        = {ONE_OVER_42:.12f}")
print("note: the closed-form bound is numerically larger than 1/42.")
