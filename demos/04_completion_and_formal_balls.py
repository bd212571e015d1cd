"""Directional Cauchy behaviour, completeness certificates, covers, and
the formal-ball order on a finite asymmetric space."""

from fractions import Fraction

from qconn import (
    EventuallyPeriodicSeq,
    WeightedDigraph,
    enn,
    formal_ball_poset,
    forward_limits,
    from_digraph,
    is_left_k_cauchy,
    precompact_report,
    smyth_report,
)
from qconn.dot import hasse_dot

g = WeightedDigraph(
    vertices=("a", "b", "c"),
    edges=(
        ("a", "b", enn(0)),   # a reaches b for free
        ("b", "a", enn(0)),   # and back: a zero cycle
        ("b", "c", enn(1)),
    ),
)
d = from_digraph(g)
print("distance matrix:")
for i in range(3):
    print("  ", [str(d.d(i, j)) for j in range(3)])

print("\n== directional Cauchy sequences ==")
alternating = EventuallyPeriodicSeq(preperiod=(2,), period=(0, 1))
print("alternate a,b after visiting c:",
      "Cauchy" if is_left_k_cauchy(d, alternating) else "not Cauchy")
print("forward limits:", sorted(forward_limits(d, alternating)))
drifting = EventuallyPeriodicSeq(preperiod=(), period=(1, 2))
print("alternate b,c:",
      "Cauchy" if is_left_k_cauchy(d, drifting) else "not Cauchy",
      "(the return distance c -> b is infinite)")

print("\n== completeness certificate ==")
report = smyth_report(d)
for cls in report["classes"]:
    print("  zero-cycle class", cls["class"], "has forward limits",
          cls["forward_limits"])

print("\n== covers at shrinking resolution ==")
cover = precompact_report(d, [Fraction(1, 2), Fraction(1), Fraction(2)])
for entry in cover["covers"]:
    print(f"  eps={entry['eps']}: centers {entry['centers']} (size {entry['size']})")

print("\n== formal balls ==")
poset = formal_ball_poset(d, [Fraction(0), Fraction(1), Fraction(2)])
print("(x,r) refines (y,s) when d(x,y) <= r - s; cover edges of the order:")
for a, b in poset.hasse_edges():
    print("  ", poset.describe(a), "->", poset.describe(b))
print("\nDOT rendering:\n")
print(hasse_dot(poset))
