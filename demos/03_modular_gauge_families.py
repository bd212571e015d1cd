"""Scale-indexed gauge families and what they induce.

A finite weighted-atom modular with a positive-part integrand produces an
asymmetric family w_lambda(f, g) = rho((g - f)/lambda).  From it we read
off unit-level distances, scale-indexed balls and entourage relations,
and the bitopology of all-scale zero sets.  A kinked integrand gives
gauges alpha + beta/lambda on lambda-pieces, held exactly.
"""

from fractions import Fraction

from qconn import (
    OrliczSpec,
    ScaleGauge,
    conjugate_family,
    entourages,
    from_orlicz,
    luxemburg_gauge,
    modular_balls,
    modular_bitop,
    symmetrize_family,
    validate_family,
)
from qconn.modular import ABSOLUTE_VALUE, POSITIVE_PART, PiecewiseConvex, QuasiModularFamily


def coeff(g):
    """c of a homogeneous gauge c/lambda, read off its one piece (0, c)."""
    alpha, beta = g.pieces[0]
    return "inf" if alpha is None else str(beta)


print("== a two-atom modular with positive-part integrand ==")
spec = OrliczSpec(
    atoms=(("w0", Fraction(1)), ("w1", Fraction(1))),
    phi=(POSITIVE_PART, POSITIVE_PART),
    functions=((Fraction(0), Fraction(0)),      # f
               (Fraction(2), Fraction(-1)),     # g
               (Fraction(1), Fraction(1))),     # h
    scaling=("homogeneous",),
)
fam = from_orlicz(spec)
print("gauge kinds are homogeneous c/lambda; coefficient matrix:")
for i in range(3):
    print("  ", [coeff(fam.gauge(i, j)) for j in range(3)])

grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
print("axioms on the validation grid:", validate_family(fam, grid).ok)

d = luxemburg_gauge(fam)
print("\nunit-level (threshold) distances d+(x,y) = inf{l : w_l(x,y) <= 1}:")
for i in range(3):
    print("  ", [str(d.d(i, j)) for j in range(3)])

print("\nballs at lambda=1, eps=3/2 around f:")
fwd, bwd = modular_balls(fam, 0, Fraction(1), Fraction(3, 2))
print("  forward ", sorted(fwd), " (g is excluded: w_1(f,g) = 2)")
print("  backward", sorted(bwd), " (g is included: w_1(g,f) = 1)")

E, Einv = entourages(fam, Fraction(3, 2), Fraction(1))
print("entourage at r=3/2, lambda=1:", sorted(E))

print("\n== symmetrization ==")
sym = symmetrize_family(fam)
print("symmetrized coefficients:")
for i in range(3):
    print("  ", [coeff(sym.gauge(i, j)) for j in range(3)])

print("\n== a kinked integrand: slopes 1 and 3, break at 1, atom weight 1/2 ==")
kinked = from_orlicz(OrliczSpec(
    atoms=(("w0", Fraction(1, 2)),),
    phi=(PiecewiseConvex(pos_breaks=(Fraction(1),), pos_slopes=(Fraction(1), Fraction(3))),),
    functions=((Fraction(0),), (Fraction(2),)),
    scaling=("homogeneous",),
))
g = kinked.gauge(0, 1)
ends = ["0", *map(str, g.breakpoints), "inf"]
print(f"w(f,g) is {g.kind}, exact on each lambda-piece:")
for t, (alpha, beta) in enumerate(g.pieces):
    print(f"  {'[('[t == 0]}{ends[t]}, {ends[t + 1]}): {alpha} + {beta}/lambda")
print("w_1(f,g) =", g(Fraction(1)), " w_3(f,g) =", g(Fraction(3)))
print("axioms on the validation grid:", validate_family(kinked, grid).ok)
print("threshold distance d+(f,g) =", luxemburg_gauge(kinked).d(0, 1),
      "(first piece to reach 1: lambda >= beta/(1 - alpha))")

print("\n== an even integrand erases direction ==")
even = from_orlicz(OrliczSpec(
    atoms=(("w0", Fraction(1)), ("w1", Fraction(1))),
    phi=(ABSOLUTE_VALUE, ABSOLUTE_VALUE),
    functions=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-1))),
    scaling=("homogeneous",),
))
print("w(f,g) coeff:", coeff(even.gauge(0, 1)), " w(g,f) coeff:", coeff(even.gauge(1, 0)))

print("\n== step gauges and the induced bitopology ==")
fam2 = QuasiModularFamily(
    points=("p", "q"),
    gauges=(
        (ScaleGauge.constant(0), ScaleGauge.constant(0)),
        (ScaleGauge.step([3], [2, Fraction(1, 2)]), ScaleGauge.constant(0)),
    ),
)
print("axioms:", validate_family(fam2, grid).ok)
b = modular_bitop(fam2)
print("forward zero-set neighborhoods :",
      [sorted(b.forward.min_nbhd(x)) for x in range(2)])
print("backward zero-set neighborhoods:",
      [sorted(b.backward.min_nbhd(x)) for x in range(2)])
dd = luxemburg_gauge(fam2)
print("threshold distances:", [[str(dd.d(i, j)) for j in range(2)] for i in range(2)])
print("(conjugating twice is the identity:",
      conjugate_family(conjugate_family(fam2)).gauges == fam2.gauges, ")")
