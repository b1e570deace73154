"""Seeded random Latin squares and their Latin-square graphs.

Squares are sampled with the Jacobson-Matthews Markov chain (J. Combin.
Des. 4 (1996) 405-437), whose stationary distribution is uniform over all
Latin squares of the given order. The graph of an order-n square has the
n^2 cells as vertices, two cells adjacent when they share a row, a column
or a symbol; it is strongly regular with parameters (n^2, 3(n-1), n, 6).
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from srginv import Graph, SrgParams, check_srg, write_graph6

Square = tuple[tuple[int, ...], ...]


class JacobsonMatthews:
    """The Jacobson-Matthews walk on the incidence cube of an order-n square.

    ``cube[r][c][s]`` is 1 when cell (r, c) holds symbol s. An improper
    state has exactly one entry equal to -1; ``square()`` is only called
    in a proper state.
    """

    def __init__(self, n: int, rng: random.Random):
        if n < 2:
            raise ValueError(f"order must be >= 2, got {n}")
        self.n = n
        self.rng = rng
        self.cube = [[[int((r + c) % n == s) for s in range(n)] for c in range(n)] for r in range(n)]
        self.improper: tuple[int, int, int] | None = None

    def _ones(self, r, c, s, axis):
        # positions along one axis through (r, c, s) holding a 1
        cube, n = self.cube, self.n
        if axis == 0:
            return [x for x in range(n) if cube[x][c][s] == 1]
        if axis == 1:
            return [y for y in range(n) if cube[r][y][s] == 1]
        return [z for z in range(n) if cube[r][c][z] == 1]

    def step(self) -> None:
        cube, n, rng = self.cube, self.n, self.rng
        if self.improper is None:
            while True:
                r, c, s = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if cube[r][c][s] == 0:
                    break
            r1 = self._ones(r, c, s, 0)[0]
            c1 = self._ones(r, c, s, 1)[0]
            s1 = self._ones(r, c, s, 2)[0]
        else:
            r, c, s = self.improper
            r1 = rng.choice(self._ones(r, c, s, 0))
            c1 = rng.choice(self._ones(r, c, s, 1))
            s1 = rng.choice(self._ones(r, c, s, 2))
        cube[r][c][s] += 1
        cube[r][c1][s1] += 1
        cube[r1][c][s1] += 1
        cube[r1][c1][s] += 1
        cube[r][c][s1] -= 1
        cube[r][c1][s] -= 1
        cube[r1][c][s] -= 1
        cube[r1][c1][s1] -= 1
        self.improper = (r1, c1, s1) if cube[r1][c1][s1] < 0 else None

    def walk(self, steps: int) -> Square:
        """Take at least ``steps`` steps, then on to the next proper state."""
        for _ in range(steps):
            self.step()
        while self.improper is not None:
            self.step()
        return self.square()

    def square(self) -> Square:
        n, cube = self.n, self.cube
        return tuple(
            tuple(next(s for s in range(n) if cube[r][c][s] == 1) for c in range(n))
            for r in range(n)
        )


def is_latin(sq: Square) -> bool:
    n = len(sq)
    symbols = set(range(n))
    return all(set(row) == symbols for row in sq) and all(
        {sq[r][c] for r in range(n)} == symbols for c in range(n)
    )


def random_paratope(sq: Square, rng: random.Random) -> Square:
    """A random member of the main class of ``sq``: rows, columns and
    symbols permuted, then the three roles permuted. Its Latin-square graph
    is isomorphic to that of ``sq``."""
    n = len(sq)
    perms = [rng.sample(range(n), n) for _ in range(3)]
    roles = rng.sample(range(3), 3)
    out = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            t = (perms[0][r], perms[1][c], perms[2][sq[r][c]])
            x, y, z = (t[k] for k in roles)
            out[x][y] = z
    return tuple(map(tuple, out))


def latin_square_graph(sq: Square) -> Graph:
    """Cells as vertices, adjacent when they share a row, column or symbol."""
    n = len(sq)
    lines: dict[tuple[int, int], int] = {}
    for r in range(n):
        for c in range(n):
            bit = 1 << (r * n + c)
            for key in ((0, r), (1, c), (2, sq[r][c])):
                lines[key] = lines.get(key, 0) | bit
    rows = []
    for r in range(n):
        for c in range(n):
            row = lines[(0, r)] | lines[(1, c)] | lines[(2, sq[r][c])]
            rows.append(row & ~(1 << (r * n + c)))
    return Graph(n * n, rows)


def triangle_profile(g: Graph) -> tuple[int, ...]:
    """Sorted per-vertex trace of (A|N_a)^3, the first ladder stage's
    invariant, computed here with plain int64 products."""
    a = g.dense().astype(np.int64)
    nb = np.array([g.neighborhood(v) for v in range(g.v)])
    sub = a[nb[:, :, None], nb[:, None, :]]
    closed = np.einsum("vij,vji->v", sub @ sub, sub)
    return tuple(sorted(int(x) for x in closed))


def latin_params(n: int) -> SrgParams:
    return SrgParams(n * n, 3 * (n - 1), n, 6)


def checked_graph(sq: Square) -> Graph:
    """The Latin-square graph of ``sq``, checked to be srg(n^2, 3(n-1), n, 6)."""
    if not is_latin(sq):
        raise AssertionError(f"not a Latin square: {sq}")
    g = latin_square_graph(sq)
    want, got = latin_params(len(sq)), check_srg(g)
    if got != want:
        raise AssertionError(f"Latin-square graph has parameters {got}, expected {want}")
    return g


def latin_graphs(
    n: int, count: int, seed: int, *, paratopes: bool = False, distinct: bool = False
) -> tuple[list[Graph], list[tuple[int, int]]]:
    """Seeded Latin-square graphs in shuffled order, plus the index pairs
    known to be isomorphic by construction.

    With ``paratopes`` every square is joined by a random paratope of
    itself, so every graph has an isomorphic partner and runs the whole
    ladder. With ``distinct`` a square is skipped when its graph repeats an
    earlier triangle profile, so the first ladder stage separates every
    graph. Either way the ladder does the same work for every seed.
    """
    rng = random.Random(seed)
    walk = JacobsonMatthews(n, random.Random(rng.randrange(2**32)))
    walk.walk(10 * n**3)
    squares: list[Square] = []
    graphs: list[Graph] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(20 * count):
        if len(squares) == count:
            break
        sq = walk.walk(n**2)
        g = checked_graph(sq)
        if distinct:
            profile = triangle_profile(g)
            if profile in seen:
                continue
            seen.add(profile)
        squares.append(sq)
        graphs.append(g)
    else:
        raise RuntimeError(f"found only {len(squares)} of {count} squares")
    tagged = [(g, i) for i, g in enumerate(graphs)]
    if paratopes:
        tagged += [(checked_graph(random_paratope(sq, rng)), i) for i, sq in enumerate(squares)]
    rng.shuffle(tagged)
    first: dict[int, int] = {}
    pairs = []
    for pos, (_, origin) in enumerate(tagged):
        if origin in first:
            pairs.append((first[origin], pos))
        else:
            first[origin] = pos
    return [g for g, _ in tagged], pairs


def write_workload(graphs: list[Graph], path: Path) -> Path:
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    return path
