"""Seeded input generators.

Every generator takes a `random.Random` and returns the document text the
program parses (graph edge lists, rotation systems), so the program under
test only ever sees generated text.  `rng_for` derives an independent,
process-stable stream from a string label (string seeds go through SHA-512,
so they do not depend on hash randomization).
"""

from __future__ import annotations

import random

from recolor.planar import random_triangulation


def rng_for(*label) -> random.Random:
    return random.Random(":".join(str(part) for part in label))


def regular_graph_text(n: int, degree: int, rng: random.Random) -> str:
    """A uniformly random simple `degree`-regular graph on n vertices, as an
    edge-list document.

    Configuration model: pair up n*degree stubs at random and resample until
    the pairing has no loop and no repeated edge.  The expected number of
    tries is about exp((degree^2 - 1) / 4), independent of n (43 at degree 4).
    Fixing the degree sequence keeps path and cycle counts, which set the
    witness-enumeration cost, far steadier across seeds than a graph whose
    edge count varies.
    """
    if n * degree % 2 or degree >= n:
        raise ValueError(f"no simple {degree}-regular graph on {n} vertices")
    stubs = [v for v in range(1, n + 1) for _ in range(degree)]
    while True:
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(a != b for a, b in edges):
            break
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{a} {b}" for a, b in sorted(edges))
    return "\n".join(lines) + "\n"


def triangulation_text(n: int, rng: random.Random) -> str:
    """A random stacked triangulation on n vertices, as a rotation document."""
    return random_triangulation(n, rng).to_text()
