"""Shared brute-force oracles for the test suite, and its per-test time
bound.

The oracles deliberately avoid the library's enumeration and census code
paths: faces come from scanning all vertex subsets, and the expected sphere
profiles are written straight from the closed-form case splits.
"""

import signal
from itertools import combinations

import pytest

from gridmorse import (Graph, build_graph, homology, independence_complex,
                       plain)

TEST_SECONDS = 120  # per test; the slowest takes about 6 s


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs past TEST_SECONDS with a TimeoutError naming
    the bound, so a stalled loop shows as a named failure.  Where the
    platform has no setitimer (Windows) tests run unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("test ran past its %d s bound" % TEST_SECONDS)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def brute_faces(g):
    """All independent sets of g via the 2^n subset scan, as frozensets of
    vertex indices.  Only usable for small graphs."""
    n = len(g)
    assert n <= 20, "brute oracle limited to 20 vertices"
    faces = set()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if all(v not in g.adjsets[u] for u, v in combinations(combo, 2)):
                faces.add(frozenset(combo))
    return faces


def brute_f_vector(g):
    counts = {}
    for f in brute_faces(g):
        counts[len(f)] = counts.get(len(f), 0) + 1
    return tuple(counts.get(s, 0) for s in range(max(counts) + 1))


def star_profile(m, n):
    """Critical cells of the extended star: none when n = 3k, a single cell
    of dimension mk when n = 3k+1, of dimension m(k+1)-1 when n = 3k+2."""
    k, r = divmod(n, 3)
    if r == 0:
        return {}
    if r == 1:
        return {m * k: 1}
    return {m * (k + 1) - 1: 1}


def theta_profile(m, n):
    """Critical cells of the theta graph: one cell of dimension mk when
    n = 3k or 3k+1, cells in dimensions mk+1 and m(k+1)-1 when n = 3k+2
    (a single dimension counted twice when those coincide)."""
    k, r = divmod(n, 3)
    if r in (0, 1):
        return {m * k: 1}
    out = {}
    for d in (m * k + 1, m * (k + 1) - 1):
        out[d] = out.get(d, 0) + 1
    return out


def members(mask):
    """The vertex indices of a bitmask, as a frozenset."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def random_graph(size, density, rng):
    """A graph on vertices v1..v<size> in which each pair is an edge when
    rng.random() < density, drawn pair by pair in lex order."""
    verts = [plain(i) for i in range(1, size + 1)]
    return Graph(verts, [(verts[x], verts[y]) for x in range(size)
                         for y in range(x + 1, size) if rng.random() < density])


def complete_multipartite(*sizes):
    """Parts of the given sizes, every two vertices of different parts
    adjacent: K7 is seven parts of one, K5,5 two parts of five."""
    parts, i = [], 1
    for size in sizes:
        parts.append([plain(j) for j in range(i, i + size)])
        i += size
    return Graph([v for part in parts for v in part],
                 [(u, v) for a, pa in enumerate(parts) for pb in parts[a + 1:]
                  for u in pa for v in pb])


def ind_complex(family, **kw):
    return independence_complex(build_graph(family, **kw))


def unbuilt(*args):
    """Stands in for the face builder where a capacity check must refuse
    before any face is built."""
    raise AssertionError("faces were built before the cap refused them")


def groups(report):
    """What both homology routes must agree on: every dimension's Betti
    number and torsion, and the Euler characteristic."""
    return report.betti, report.torsion, report.euler


def largest_reach(monkeypatch, g):
    """The size of the largest reach R of the Morse flow that
    morse_homology grows on g, read by wrapping _gradient_reach."""
    sizes = [0]
    grow = homology._gradient_reach

    def counted(*args):
        reach = grow(*args)
        sizes.append(len(reach))
        return reach

    with monkeypatch.context() as patch:
        patch.setattr(homology, "_gradient_reach", counted)
        homology.morse_homology(g)
    return max(sizes)
