"""Tour of the exact Schubert-calculus engine.

Classical counts, the Pieri (vertical-strip) rule, and the closed form
for integrals of powers of the special cycle zeta, cross-checked against
brute-force expansion.

Run:  python demos/schubert_playground.py
"""

from bnslopes.schubert import (
    GrassmannianSpec,
    brute_zeta_integral,
    integral,
    make_index,
    pieri_ek,
    schubert_class,
    zeta,
    zeta_power_integral,
)
from bnslopes.tautpush import castelnuovo_N

print("How many lines in P^3 meet four general lines?")
g13 = GrassmannianSpec(1, 3)
b0 = make_index(g13, (0, 0))
print(f"  closed form: integral(zeta^4) = {zeta_power_integral(g13, b0, 4)}")
print(f"  brute force: {brute_zeta_integral(g13, b0, 4)}")

print()
print("Pieri rule in action on G(2, P^6):")
g26 = GrassmannianSpec(2, 6)
z = zeta(g26)
print(f"  zeta = {z}")
for k in (1, 2, 3):
    print(f"  zeta * e_{k} = {pieri_ek(z, k)}")

print()
print("Powers of zeta, expanded step by step:")
c = schubert_class(g26, (0, 0, 0))
for power in range(1, 7):
    c = pieri_ek(c, g26.r)
    print(f"  zeta^{power} = {c}")
print(f"  integral(zeta^6) = {integral(c)}  "
      f"(= number of nets of conics through a general genus-6 curve's data: "
      f"N(6,2,6) = {castelnuovo_N(6, 2, 6)})")

print()
print("Castelnuovo numbers as Grassmannian integrals (N = integral of zeta^g):")
for g, r, d in ((4, 1, 3), (6, 2, 6), (8, 3, 9), (10, 4, 12)):
    spec = GrassmannianSpec(r, d)
    idx = make_index(spec, (0,) * (r + 1))
    closed = zeta_power_integral(spec, idx, g)
    print(f"  (g,r,d)=({g},{r},{d}): N = {castelnuovo_N(g, r, d)} = "
          f"closed {closed} = brute {brute_zeta_integral(spec, idx, g)}")
