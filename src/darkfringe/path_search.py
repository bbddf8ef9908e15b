"""Plan paths over the unit grid that avoid invalid boundaries.

A plan is a spanning tree rooted at one origin, stored as its parent grid
(O(s1*s2) memory): the move (U, D, L or R) that enters a unit is its offset
from its parent, and its path is the chain of moves from the origin down to
it. The move strings of `replay`, the tests and the benchmark's counters are
derived from the grid once, on demand; the pipeline never builds them.

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


@dataclass(eq=False)
class PathPlan:
    """Spanning tree of paths from a single origin, as its parent grid.

    parent[r, c] is the flat index (row * s2 + col) of the unit that a path to
    (r, c) arrives from, one step away; -1 at the origin and at UNREACHABLE
    units. provenance names the pass that reached each unit (None for
    UNREACHABLE).
    """

    origin: tuple[int, int]
    parent: np.ndarray
    provenance: list[list[str | None]]

    @property
    def shape(self) -> tuple[int, int]:
        return self.parent.shape

    def reachable_mask(self) -> np.ndarray:
        mask = self.parent >= 0
        mask[self.origin] = True
        return mask

    def moves(self) -> np.ndarray:
        """Per unit, the move (U, D, L or R) that enters it from its parent:
        the parent's offset. "" at the origin and at UNREACHABLE units."""
        s2 = self.shape[1]
        step = np.arange(self.parent.size).reshape(self.shape) - self.parent
        step[self.parent < 0] = 0
        # vertical first: on a one-column grid a step of 1 is a move down
        return np.select([step == s2, step == -s2, step == 1, step == -1],
                         ["D", "U", "R", "L"], "")

    def order(self) -> np.ndarray:
        """Flat indices of the reachable units, every parent before its
        children if every parent chain reaches the origin. Pointer jumping
        runs enough rounds for a chain through every unit, so a cycle ends it too."""
        parent = self.parent.ravel()
        root = parent < 0
        anc = np.where(root, np.arange(parent.size), parent)
        depth = (~root).astype(np.intp)
        # depth[u] counts the moves from anc[u] down to u
        for _ in range(parent.size.bit_length()):
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
        move = self.moves().ravel().tolist()
        flat: list[str | None] = [None] * (s1 * s2)
        for u in self.order().tolist():
            flat[u] = "" if parent[u] < 0 else flat[parent[u]] + move[u]
        return [flat[r * s2:(r + 1) * s2] for r in range(s1)]


@dataclass(frozen=True)
class BlockingStats:
    sigma: float
    trials: int
    single_pass_block_rate: float
    retry_block_rate: float


def edge_valid(invalid: InvalidBoundaryMaps, r: int, c: int, nr: int, nc: int) -> bool:
    """Whether the boundary between adjacent units (r, c) and (nr, nc) is valid."""
    if r == nr:
        return not invalid.matrix_a[r, min(c, nc)]
    return not invalid.matrix_b[min(r, nr), c]


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
    reached = [False] * (s1 * s2)
    # segment id per row of each column: rows of one segment are mutually
    # reachable by vertical moves
    segments = np.vstack([np.zeros((1, s2), dtype=int),
                          np.cumsum(invalid.matrix_b, axis=0)]).T.tolist()
    h_valid = (~invalid.matrix_a).tolist()

    def fill_column(c: int, entries: list[tuple[int, int]]) -> bool:
        """Reach the unreached rows of column c from candidate entries.

        Each entry (row, parent) enters column c at `row` from flat unit
        `parent`. A target takes the nearest entry within its vertical
        segment (ties go to the smaller row, then to the earlier entry in the
        list) and hangs under its neighbor toward that entry. Two sweeps find
        the nearest entry above and below every row.
        """
        if not entries:
            return False
        seg = segments[c]
        first = dict(reversed(entries))   # row -> parent of its earliest entry
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
            if reached[u]:
                continue
            a = above[r]
            if a is None and below is None:
                continue
            e = a if below is None or (a is not None and r - a <= below - r) else below
            parent[u] = first[r] if e == r else (u - s2 if e < r else u + s2)
            reached[u] = True
            changed = True
        return changed

    def crossings(c_from: int, c_to: int) -> list[tuple[int, int]]:
        c_left = min(c_from, c_to)
        return [(r, r * s2 + c_from) for r in range(s1)
                if reached[r * s2 + c_from] and h_valid[r][c_left]]

    fill_column(c0, [(r0, -1)])
    while True:
        changed = False
        for direction in (1, -1):
            c = c0 + direction
            while 0 <= c < s2:
                changed |= fill_column(c, crossings(c - direction, c))
                c += direction
        reentry = [e for c in (c0 + 1, c0 - 1) if 0 <= c < s2 for e in crossings(c, c0)]
        changed |= fill_column(c0, reentry)
        if not changed:
            break
    return PathPlan(origin=(int(r0), int(c0)), parent=np.reshape(parent, (s1, s2)),
                    provenance=np.where(reached, "primary", None).reshape(s1, s2).tolist())


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
    first origin. Each unit a retry adds keeps its parent from the retry pass
    (transposed back). Units no pass can reach stay UNREACHABLE.
    """
    if not origins:
        raise ValueError("need at least one origin")
    s1, s2 = invalid.s1, invalid.s2
    primary = plan_paths(invalid, origins[0])
    parent = primary.parent.ravel()
    reached = primary.reachable_mask().ravel()
    prov = np.array(primary.provenance, dtype=object).ravel()
    transposed = transpose_invalid(invalid)

    def graft(sub: PathPlan, label: str, transpose: bool) -> None:
        units = np.flatnonzero(sub.reachable_mask())
        parents = sub.parent.ravel()[units]
        if transpose:
            # unit q of the s2 x s1 transposed grid is unit (q % s1, q // s1) here
            units = (units % s1) * s2 + units // s1
            parents = (parents % s1) * s2 + parents // s1
        new = ~reached[units]
        units = units[new]
        parent[units] = parents[new]
        reached[units] = True
        prov[units] = label

    if not reached.all():
        r0, c0 = origins[0]
        graft(plan_paths(transposed, (c0, r0)), "transpose", transpose=True)

    for k, (rk, ck) in enumerate(origins[1:], start=2):
        if reached.all():
            break
        if not reached[rk * s2 + ck]:
            continue   # this origin is itself unreached; cannot graft through it
        graft(plan_paths(invalid, (rk, ck)), f"origin{k}", transpose=False)
        graft(plan_paths(transposed, (ck, rk)), f"origin{k}+transpose",
              transpose=True)
    return PathPlan(origin=primary.origin, parent=parent.reshape(s1, s2),
                    provenance=prov.reshape(s1, s2).tolist())


def replay(plan: PathPlan, r: int, c: int,
           invalid: InvalidBoundaryMaps | None = None) -> tuple[int, int]:
    """Walk the path the plan derives for unit (r, c) from its origin.

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
        if invalid is not None and not edge_valid(invalid, rr, cc, nr, nc):
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
        for dr, dc in MOVES.values():
            nr, nc = r + dr, c + dc
            if (0 <= nr < s1 and 0 <= nc < s2 and not seen[nr, nc]
                    and edge_valid(invalid, r, c, nr, nc)):
                seen[nr, nc] = True
                queue.append((nr, nc))
    return seen


def random_invalid_maps(s1: int, s2: int, sigma: float,
                        rng: np.random.Generator) -> InvalidBoundaryMaps:
    """Each boundary independently invalid with probability sigma."""
    return InvalidBoundaryMaps(
        matrix_a=rng.random((s1, s2 - 1)) < sigma,
        matrix_b=rng.random((s1 - 1, s2)) < sigma)


def blocking_montecarlo(grid: tuple[int, int], sigmas, trials: int,
                        seed: int) -> list[BlockingStats]:
    """Estimate how often the planner misses units that are actually connected.

    For each sigma, random invalid maps are drawn; a unit counts as blocked
    when breadth-first search proves it connected to unit (0, 0) but the plan
    leaves it UNREACHABLE (true enclosures are dead ends, not blocking). The
    reported rate is the blocked fraction of all oracle-connected units
    pooled over the trials, i.e. the per-path blocking probability, for the
    single pass and for the transpose retry. Per-trial seeds derive from the
    batch seed, so results do not depend on evaluation order. Each sigma is
    a probability: an empty list, or a sigma outside [0, 1] or NaN, is a
    ValueError.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for meaningful rates")
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("need at least one sigma")
    for sigma in sigmas:
        if not 0 <= sigma <= 1:
            raise ValueError(f"sigma must be in [0, 1], got {sigma}")
    s1, s2 = grid
    origin = (0, 0)
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
