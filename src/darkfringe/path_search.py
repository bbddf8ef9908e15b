"""Plan paths over the unit grid that avoid invalid boundaries.

A plan is a spanning tree rooted at one origin: every reached unit stores its
parent unit and the one move (U, D, L or R) that enters it from there, so a
unit's path is the chain of moves from the origin down to it and a plan takes
O(s1*s2) memory. The per-unit move strings of the `row,col,moves` CSV, of
`replay` and of the tests are derived from the tree, once, on demand.

The product strategy is a column relay: first vertical runs inside the origin
column, then a sweep outward column by column where each new column is entered
through valid horizontal edges from units already reached and filled in by
vertical runs that stop at invalid vertical boundaries. The sweep never
returns to an earlier column, so a pocket whose only opening points away from
the origin along the sweep axis defeats it; rerunning on the transposed grid
(matrix_a and matrix_b swapped and transposed, coordinates flipped) turns that
opening sideways and recovers almost all such units, and any leftovers can be
retried from additional origins the plan already reaches. A retry grafts each
unit it adds under that unit's parent in the retry pass, which the plan
already holds or which the same pass grafts too.

A plain breadth-first search over valid edges lives alongside as a correctness
oracle only; it is not the planner.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary_logic import InvalidBoundaryMaps

MOVES = {"U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1)}
_TRANSPOSE_MOVE = str.maketrans("UDLR", "LRUD")


@dataclass(eq=False)
class PathPlan:
    """Spanning tree of paths from a single origin.

    parent[r, c] is the flat index (row * s2 + col) of the unit that a path to
    (r, c) arrives from, -1 at the origin and at UNREACHABLE units. move[r][c]
    is the move that enters (r, c) from its parent: "" at the origin, None
    for UNREACHABLE. provenance names the pass that reached each unit.
    """

    origin: tuple[int, int]
    parent: np.ndarray
    move: list[list[str | None]]
    provenance: list[list[str | None]]

    @property
    def shape(self) -> tuple[int, int]:
        return self.parent.shape

    def reachable_mask(self) -> np.ndarray:
        mask = self.parent >= 0
        mask[self.origin] = True
        return mask

    def order(self) -> np.ndarray:
        """Flat indices of the reachable units, every parent before its children."""
        parent = self.parent.ravel()
        root = parent < 0
        anc = np.where(root, np.arange(parent.size), parent)
        depth = (~root).astype(np.intp)
        # pointer jumping: depth[u] counts the moves from anc[u] down to u
        while not np.array_equal(anc, anc[anc]):
            depth += depth[anc]
            anc = anc[anc]
        reach = np.flatnonzero(self.reachable_mask())
        return reach[np.argsort(depth[reach], kind="stable")]

    @cached_property
    def paths(self) -> list[list[str | None]]:
        """Move string from the origin per unit, None for UNREACHABLE.

        Derived from the tree on first access and kept, so the plan must not
        change afterwards.
        """
        s1, s2 = self.shape
        parent = self.parent.ravel().tolist()
        move = [mv for row in self.move for mv in row]
        flat: list[str | None] = [None] * (s1 * s2)
        for u in self.order().tolist():
            flat[u] = "" if parent[u] < 0 else flat[parent[u]] + move[u]
        return [flat[r * s2:(r + 1) * s2] for r in range(s1)]


def _plan(origin, parent: list[int], move: list[str | None],
          prov: list[str | None], s2: int) -> PathPlan:
    """PathPlan from flat row-major per-unit lists."""
    rows = range(0, len(move), s2)
    return PathPlan(origin=(int(origin[0]), int(origin[1])),
                    parent=np.array(parent, dtype=np.intp).reshape(-1, s2),
                    move=[move[i:i + s2] for i in rows],
                    provenance=[prov[i:i + s2] for i in rows])


@dataclass(frozen=True)
class BlockingStats:
    sigma: float
    trials: int
    single_pass_block_rate: float
    retry_block_rate: float


def horizontal_edge_valid(invalid: InvalidBoundaryMaps, r: int, c_left: int) -> bool:
    return not invalid.matrix_a[r, c_left]


def vertical_edge_valid(invalid: InvalidBoundaryMaps, r_upper: int, c: int) -> bool:
    return not invalid.matrix_b[r_upper, c]


def plan_paths(invalid: InvalidBoundaryMaps, origin: tuple[int, int]) -> PathPlan:
    """Single column-relay pass from one origin.

    Stage 1 fills the origin column by vertical runs. The sweep then moves
    outward one column at a time (right, then left), entering each column
    through valid horizontal edges from reached units of the previous column
    and extending vertically to every row the entries' segments cover. The
    origin column alone has swept neighbors on both sides, so its leftover
    segments are re-entered from them, and the outward sweeps are repeated
    until nothing new is reached (a relay through the origin column can
    unlock further columns). The sweep direction is never reversed anywhere
    else: a pocket whose only valid opening faces away from the origin stays
    UNREACHABLE (a value, not an error).
    """
    s1, s2 = invalid.s1, invalid.s2
    r0, c0 = origin
    if not (0 <= r0 < s1 and 0 <= c0 < s2):
        raise ValueError(f"origin {origin} outside {s1} x {s2} grid")
    parent = [-1] * (s1 * s2)
    move: list[str | None] = [None] * (s1 * s2)
    # segment id per row of each column: rows of one segment are mutually
    # reachable by vertical moves
    segments = np.vstack([np.zeros((1, s2), dtype=int),
                          np.cumsum(invalid.matrix_b, axis=0)]).T.tolist()
    h_valid = (~invalid.matrix_a).tolist()

    def fill_column(c: int, entries: list[tuple[int, int, str]]) -> bool:
        """Reach the unreached rows of column c from candidate entries.

        Each entry (row, parent, move) enters column c at `row` by `move` from
        flat unit `parent`. A target takes the nearest entry within its
        vertical segment (ties go to the smaller row, then to the earlier
        entry in the list) and hangs under its neighbor toward that entry.
        Two sweeps find the nearest entry above and below every row.
        """
        if not entries:
            return False
        seg = segments[c]
        first: dict[int, tuple[int, int, str]] = {}
        for entry in entries:
            first.setdefault(entry[0], entry)
        above: list[int | None] = [None] * s1
        nearest = None
        for r in range(s1):
            if r and seg[r] != seg[r - 1]:
                nearest = None
            if r in first:
                nearest = r
            above[r] = nearest
        changed = False
        below = None
        for r in range(s1 - 1, -1, -1):
            if r + 1 < s1 and seg[r] != seg[r + 1]:
                below = None
            if r in first:
                below = r
            u = r * s2 + c
            if move[u] is not None:
                continue
            a = above[r]
            if a is None and below is None:
                continue
            if below is None or (a is not None and r - a <= below - r):
                e = a
            else:
                e = below
            if e == r:
                _, parent[u], move[u] = first[r]
            elif e < r:
                parent[u], move[u] = u - s2, "D"
            else:
                parent[u], move[u] = u + s2, "U"
            changed = True
        return changed

    def crossings(c_from: int, c_to: int, mv: str) -> list[tuple[int, int, str]]:
        c_left = min(c_from, c_to)
        return [(r, r * s2 + c_from, mv) for r in range(s1)
                if move[r * s2 + c_from] is not None and h_valid[r][c_left]]

    fill_column(c0, [(r0, -1, "")])
    while True:
        changed = False
        for direction, mv in ((1, "R"), (-1, "L")):
            c = c0 + direction
            while 0 <= c < s2:
                changed |= fill_column(c, crossings(c - direction, c, mv))
                c += direction
        reentry = []
        if c0 + 1 < s2:
            reentry += crossings(c0 + 1, c0, "L")
        if c0 - 1 >= 0:
            reentry += crossings(c0 - 1, c0, "R")
        changed |= fill_column(c0, reentry)
        if not changed:
            break
    prov = [None if mv is None else "primary" for mv in move]
    return _plan(origin, parent, move, prov, s2)


def transpose_invalid(invalid: InvalidBoundaryMaps) -> InvalidBoundaryMaps:
    """Swap and transpose the two matrices; unit (r, c) maps to (c, r)."""
    return InvalidBoundaryMaps(matrix_a=invalid.matrix_b.T.copy(),
                               matrix_b=invalid.matrix_a.T.copy())


def plan_with_retry(invalid: InvalidBoundaryMaps,
                    origins: list[tuple[int, int]]) -> PathPlan:
    """Column-relay plan with the transpose-exchange retry and extra origins.

    Runs :func:`plan_paths` from the first origin, replans the leftovers on
    the transposed grid, and finally retries remaining gaps from the other
    origins that the plan already reaches, so every path still starts at the
    first origin. Each unit a retry adds keeps its parent and move from the
    retry pass (transposed back). Units no pass can reach stay UNREACHABLE.
    """
    if not origins:
        raise ValueError("need at least one origin")
    s1, s2 = invalid.s1, invalid.s2
    primary = plan_paths(invalid, origins[0])
    parent = primary.parent.ravel().tolist()
    move = [mv for row in primary.move for mv in row]
    prov = [label for row in primary.provenance for label in row]
    transposed = None

    def graft(sub: PathPlan, label: str, transpose: bool) -> None:
        for u in range(s1 * s2):
            if move[u] is not None:
                continue
            r, c = divmod(u, s2)
            if transpose:
                mv = sub.move[c][r]
                if mv is None:
                    continue
                pc, pr = divmod(int(sub.parent[c, r]), s1)
                parent[u], move[u] = pr * s2 + pc, mv.translate(_TRANSPOSE_MOVE)
            else:
                mv = sub.move[r][c]
                if mv is None:
                    continue
                parent[u], move[u] = int(sub.parent[r, c]), mv
            prov[u] = label

    if None in move:
        transposed = transpose_invalid(invalid)
        r0, c0 = origins[0]
        graft(plan_paths(transposed, (c0, r0)), "transpose", transpose=True)

    for k, (rk, ck) in enumerate(origins[1:], start=2):
        if None not in move:
            break
        if move[rk * s2 + ck] is None:
            continue   # this origin is itself unreached; cannot graft through it
        graft(plan_paths(invalid, (rk, ck)), f"origin{k}", transpose=False)
        if transposed is None:
            transposed = transpose_invalid(invalid)
        graft(plan_paths(transposed, (ck, rk)), f"origin{k}+transpose",
              transpose=True)
    return _plan(origins[0], parent, move, prov, s2)


def replay(plan: PathPlan, r: int, c: int,
           invalid: InvalidBoundaryMaps | None = None) -> tuple[int, int]:
    """Walk the stored path for unit (r, c) from the plan origin.

    Returns the landing unit; raises if the path leaves the grid or, when
    `invalid` is given, crosses a flagged boundary. Used by tests to check
    plan soundness.
    """
    path = plan.paths[r][c]
    if path is None:
        raise ValueError(f"unit {(r, c)} is unreachable")
    rr, cc = plan.origin
    s1, s2 = plan.shape
    for mv in path:
        dr, dc = MOVES[mv]
        nr, nc = rr + dr, cc + dc
        if not (0 <= nr < s1 and 0 <= nc < s2):
            raise ValueError(f"path for {(r, c)} leaves the grid at {(nr, nc)}")
        if invalid is not None:
            if dr == 0:
                ok = horizontal_edge_valid(invalid, rr, min(cc, nc))
            else:
                ok = vertical_edge_valid(invalid, min(rr, nr), cc)
            if not ok:
                raise ValueError(f"path for {(r, c)} crosses an invalid boundary")
        rr, cc = nr, nc
    return rr, cc


def reachable_bfs(invalid: InvalidBoundaryMaps, origin: tuple[int, int]) -> np.ndarray:
    """Ground-truth reachability over valid edges (oracle, not the planner)."""
    s1, s2 = invalid.s1, invalid.s2
    seen = np.zeros((s1, s2), dtype=bool)
    r0, c0 = origin
    seen[r0, c0] = True
    queue = deque([(r0, c0)])
    while queue:
        r, c = queue.popleft()
        if r > 0 and not seen[r - 1, c] and vertical_edge_valid(invalid, r - 1, c):
            seen[r - 1, c] = True
            queue.append((r - 1, c))
        if r + 1 < s1 and not seen[r + 1, c] and vertical_edge_valid(invalid, r, c):
            seen[r + 1, c] = True
            queue.append((r + 1, c))
        if c > 0 and not seen[r, c - 1] and horizontal_edge_valid(invalid, r, c - 1):
            seen[r, c - 1] = True
            queue.append((r, c - 1))
        if c + 1 < s2 and not seen[r, c + 1] and horizontal_edge_valid(invalid, r, c):
            seen[r, c + 1] = True
            queue.append((r, c + 1))
    return seen


def random_invalid_maps(s1: int, s2: int, sigma: float,
                        rng: np.random.Generator) -> InvalidBoundaryMaps:
    """Each boundary independently invalid with probability sigma."""
    return InvalidBoundaryMaps(
        matrix_a=rng.random((s1, s2 - 1)) < sigma,
        matrix_b=rng.random((s1 - 1, s2)) < sigma)


def blocking_montecarlo(grid: tuple[int, int], sigmas, trials: int, seed: int,
                        origin: tuple[int, int] = (0, 0)) -> list[BlockingStats]:
    """Estimate how often the planner misses units that are actually connected.

    For each sigma, random invalid maps are drawn; a unit counts as blocked
    when breadth-first search proves it connected to the origin but the plan
    leaves it UNREACHABLE (true enclosures are dead ends, not blocking). The
    reported rate is the blocked fraction of all oracle-connected units
    pooled over the trials, i.e. the per-path blocking probability, for the
    single pass and for the transpose retry. Per-trial seeds derive from the
    batch seed, so results do not depend on evaluation order.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for meaningful rates")
    s1, s2 = grid
    out = []
    for si, sigma in enumerate(sigmas):
        single_blocked = 0
        retry_blocked = 0
        connected_total = 0
        for t in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(si, t)))
            invalid = random_invalid_maps(s1, s2, sigma, rng)
            connected = reachable_bfs(invalid, origin)
            connected_total += int(connected.sum())
            single = plan_paths(invalid, origin).reachable_mask()
            missed = connected & ~single
            if missed.any():
                single_blocked += int(missed.sum())
                retry = plan_with_retry(invalid, [origin]).reachable_mask()
                retry_blocked += int((connected & ~retry).sum())
        out.append(BlockingStats(sigma=float(sigma), trials=trials,
                                 single_pass_block_rate=single_blocked / connected_total,
                                 retry_block_rate=retry_blocked / connected_total))
    return out
