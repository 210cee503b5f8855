"""Reconstructing the pushforward formulas from special test families.

The pushforward of each tautological class is determined by how it meets
three cheap one-parameter families of pointed stable curves:

* the tails family (genus-0 base with elliptic tails): all three classes
  push to zero there, forcing g-3 linear relations;
* the pencil families (a point moving on a fixed two-component curve):
  one degree equation per splitting type h;
* the bridge family (moving genus-2 curve with a fixed general tail):
  its base has Picard rank 3, so the comparison happens modulo the
  classical genus-2 relation 10*lambda = delta_0 + 2*delta_1.

Every pushforward is N times an N-free class (N the Castelnuovo count),
so the known bridge classes and pencil degrees are stated per N, and
the system is solved per N.  Stacking all of these gives an exact
linear system with a unique solution -- which, times N, must agree,
coefficient for coefficient, with the closed-form pushforwards.  This
script spells that out at (g, r, d) = (10, 4, 12).

Run:  python demos/reconstruction_walkthrough.py
"""

from bnslopes.families import bridge_pushforward, pencil_degree, pullbacks, reconstruct, relation_multiple
from bnslopes.tautpush import DivisorClass, GrdParams, push, push_b, rho

g, r, d = 10, 4, 12
params = GrdParams(g, r, d)
N = params.N
print(f"Triple {params}: rho = {rho(g, r, d)}, N = {N}, xi = {params.xi}")

print()
print("Closed-form pushforward of b:")
dc = push_b(params)
print(f"  {dc}")

print()
print("What the test families see (the known values are stated per N):")
bridge, tails, degrees = pullbacks(dc)
per_N = bridge_pushforward(params)[1]
known = DivisorClass.from_coefficients(N * x for x in per_N.coefficients())
print(f"  bridge pullback:   {bridge}")
print(f"  known bridge class: {known} = N x ({per_N})")
mu = relation_multiple(bridge, known)
print(f"  they differ by {mu} x (10λ - δ0 - 2δ1) -- equal in the rank-3 quotient")
print(f"  tails pullback vanishes: {not any(tails)}")
print("  pencil degrees vs the known values:")
for h in (1, 2, 5, 9):
    per_N = pencil_degree(params, h)[1]
    print(f"    h={h}: {degrees[h - 1]} (known: N x {per_N} = {N * per_N})")

print()
print("Now forget the closed form and solve the linear system:")
for which in "abc":
    got = reconstruct(g, r, d, which)
    match = "matches" if got == push(which, params) else "DIFFERS FROM"
    print(f"  reconstructed pushforward of {which} {match} the closed form "
          f"(lambda-coefficient {got.lam})")
