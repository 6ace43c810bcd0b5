"""Estimate the probability that a random unit-edge hexagon is knotted.

Sampling diagonal triples uniformly from the moment polytope and angles
uniformly from the torus induces the uniform measure on hexagon space,
so knot-class frequencies are honest probabilities. Two estimators run
over the same sample stream: the fast closed-form predicate counter and
the full geometric classifier.
"""

from hexknot import compare_bound, estimate_knotting_probability

N = 1_000_000
SEED = 2024

pred = estimate_knotting_probability(N, seed=SEED, mode="predicate", workers=2)
print(f"predicate mode, {N} samples ({pred.wall_time_seconds:.1f}s):")
print(f"  right-handed positive-curl fraction: {pred.fraction_R_plus:.3e}")
print(f"  knotting probability:                {pred.fraction_total:.3e}")
print(f"  95% CI: [{pred.ci95[0]:.3e}, {pred.ci95[1]:.3e}]")
print()

orac = estimate_knotting_probability(N, seed=SEED, mode="oracle", workers=2)
print(f"oracle mode, {N} samples ({orac.wall_time_seconds:.1f}s):")
for label, count in orac.hits.items():
    print(f"  {label:12s} {count}")
print(f"  knotting probability: {orac.fraction_total:.3e}")
print(f"  predicate/oracle agreement rate: {orac.agreement['agreement_rate']:.4f}")
print()

bound = compare_bound(pred)
print(f"closed-form upper bound: {bound.upper_bound:.10f}")
print(f"estimate below bound:    {bound.orderings['estimate_lt_upper_bound']}")
