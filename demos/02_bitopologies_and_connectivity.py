"""Directional connectivity on finite bitopological spaces.

Two three-point spaces drive the story.  The first has an indiscrete
forward topology and a backward topology splitting {0,1} from {2}: it
cannot be separated by a forward-open and a backward-open set even though
its join topology falls apart.  The second realizes the same phenomenon
with nontrivial topologies on both sides.
"""

from qconn import (
    antisym_certificate,
    antisym_components,
    combined_digraph,
    is_antisym_connected,
    is_locally_antisym_connected,
    is_T0,
    join,
    subspace,
    symmetric_components,
)
from qconn.bitopology import AlexandrovTopology, BitopSpace
from qconn.dot import components_dot
from qconn.relations import indices_of


def describe(b, name):
    print(f"\n== {name} ==")
    print("forward  minimal neighborhoods:",
          [sorted(b.forward.min_nbhd(x)) for x in range(b.n)])
    print("backward minimal neighborhoods:",
          [sorted(b.backward.min_nbhd(x)) for x in range(b.n)])
    j = join(b)
    print("join minimal neighborhoods    :",
          [sorted(j.min_nbhd(x)) for x in range(b.n)])
    print("combined digraph arcs:",
          [(x, y) for x, row in enumerate(combined_digraph(b))
           for y in indices_of(row) if x != y])
    print("inseparable (antisymmetrically connected):", is_antisym_connected(b))
    cert = antisym_certificate(b)
    if cert is not None:
        print("separation certificate: A =", sorted(cert.A), " B =", sorted(cert.B))
    print("symmetric components   :", symmetric_components(b))
    print("antisymmetric components:", antisym_components(b))
    print("T0 in the join sense   :", is_T0(b))
    for status in is_locally_antisym_connected(b):
        print(f"  point {b.points[status.point]}: locally connected via "
              f"join neighborhood {list(status.witness)}")


points = ("0", "1", "2")
strictness = BitopSpace(
    forward=AlexandrovTopology(points=points, nbhd=(0b111, 0b111, 0b111)),
    backward=AlexandrovTopology(points=points, nbhd=(0b011, 0b011, 0b100)),
)
describe(strictness, "indiscrete forward vs splitting backward")

print("\nThe antisymmetric component swallows both symmetric components:")
print("no forward-open set other than the whole space exists, so no")
print("separation can start, while the join topology sees {0,1} | {2}.")

trace = subspace(strictness, [0, 1])
print("\ntrace on {0,1}: forward neighborhoods",
      [sorted(trace.forward.min_nbhd(x)) for x in range(2)],
      "(both traces indiscrete)")

cycle = BitopSpace(
    forward=AlexandrovTopology(points=("a", "b", "c"), nbhd=(0b011, 0b010, 0b111)),
    backward=AlexandrovTopology(points=("a", "b", "c"), nbhd=(0b001, 0b010, 0b110)),
)
describe(cycle, "cycle-connected space with disconnected join")

print("\nDiscrete-vs-discrete pair for contrast:")
t = AlexandrovTopology(points=("x", "y"), nbhd=(0b01, 0b10))
flat = BitopSpace(forward=t, backward=t)
describe(flat, "two isolated points")

print("\nDOT rendering of the first space (clusters = antisym components):\n")
print(components_dot(strictness))
