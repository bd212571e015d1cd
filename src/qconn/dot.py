"""DOT (graphviz) renderings of component structure and formal-ball order."""

from __future__ import annotations

from .bitopology import BitopSpace
from .completion import FormalBallPoset
from .connectivity import combined_digraph
from .relations import indices_of, masks_to_partition, scc_masks


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def components_dot(b: BitopSpace) -> str:
    """Antisymmetric components as clusters, combined-digraph arcs as
    edges (self-arcs omitted for readability)."""
    rows = combined_digraph(b)
    lines = ["digraph components {", "  rankdir=LR;"]
    for c, block in enumerate(masks_to_partition(scc_masks(rows))):
        lines.append(f"  subgraph cluster_{c} {{")
        lines.append(f"    label={_quote('component ' + str(c))};")
        for p in block:
            lines.append(f"    n{p} [label={_quote(b.points[p])}];")
        lines.append("  }")
    for x, row in enumerate(rows):
        lines.extend(f"  n{x} -> n{y};" for y in indices_of(row & ~(1 << x)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_dot(poset: FormalBallPoset) -> str:
    """Hasse diagram of the formal-ball preorder quotient."""
    lines = ["digraph formal_balls {", "  rankdir=BT;"]
    for a in range(len(poset.le_rows)):
        lines.append(f"  b{a} [label={_quote(poset.describe(a))}];")
    for a, b in poset.hasse_edges():
        lines.append(f"  b{a} -> b{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
