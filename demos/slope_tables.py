"""Tour of the divisor-slope pipeline.

Builds the Gieseker-Petri and syzygy slope tables over small parameter
grids, checks them against their closed forms, and walks through the two
headline data points: the genus-10 quadric divisor of slope 7 and the
genus-21 divisor whose slope 2459/377 dips below the bound 6 + 12/(g+1).

Run:  python demos/slope_tables.py
"""

from bnslopes.divisors import FamilyParams, gp_slope_closed, slope_bound, slope_report, syzygy_combo
from bnslopes.tautpush import GrdParams, TautCombo, push_combo


def show(report):
    extra = "" if report.extra is None else f" extra={report.extra}"
    verdict = "BELOW the bound" if report.below_bound else "not below"
    print(
        f"  {report.family}(r={report.r}, s={report.s}{extra}): "
        f"g={report.g}, d={report.d}, N={report.N}, "
        f"slope={report.slope} (~{float(report.slope):.5f}), "
        f"bound={report.bound} -> {verdict}"
    )


print("Gieseker-Petri slopes over 1 <= r <= s <= 3")
print("(slope is symmetric under r <-> s, so only half the grid is shown)")
for r in range(1, 4):
    for s in range(r, 4):
        rep = slope_report(FamilyParams.gp(r, s))
        assert rep.slope == gp_slope_closed(r, s)
        show(rep)

print()
print("Syzygy slopes for i in {0, 1, 3}, s in {1, 2}")
for i in (0, 1, 3):
    for s in (1, 2):
        show(slope_report(FamilyParams.syzygy(i, s)))

print()
print("The genus-10 story, by hand:")
combo = syzygy_combo(0, 1)
print(f"  quadric condition as a tautological combination: {combo}")
dc = push_combo(combo, GrdParams(10, 4, 12))
print(f"  pushforward: lambda-coefficient {dc.lam} = 7N, delta_0 {dc.delta[0]} = -N")
print(f"  slope 7 vs bound {slope_bound(10)} (~{float(slope_bound(10)):.4f}): "
      f"below -- the classical genus-10 counterexample, recovered mechanically")

print()
print("The genus-21 story:")
params = GrdParams(21, 6, 24)
dc = push_combo(TautCombo.of(2, -1, -8, 1), params)
s = -dc.lam / dc.delta[0]
bound = slope_bound(21)
print(f"  N = {params.N} linear series on the general curve")
print(f"  class (x N): {dc.lam / params.N}*lambda {dc.delta[0] / params.N}*delta_0")
print(f"  slope {s} (~{float(s):.6f}) < bound {bound} (~{float(bound):.6f})")
assert s < bound
print("  => an effective divisor of slope below 6 + 12/(g+1) exists in genus 21")
