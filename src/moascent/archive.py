"""Non-dominated policy archives and frontier quality metrics.

Maintains the set of mutually non-dominated evaluated policies, computes
the exact hypervolume dominated relative to a fixed reference point
(2 and 3 objectives), the sparsity of the frontier approximation, and the
JSON export schema for frontiers.

The trainer commits each generation's snapshots in one batch insert,
which builds an entry (and so copies a snapshot) only for the rows it
takes: the archive never copies a snapshot it rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .config import _is_int, _is_real

__all__ = [
    "FRONTIER_SCHEMA_VERSION",
    "NETWORK_DTYPE",
    "NonDominatedSet",
    "PolicyEntry",
    "frontier_document",
    "frontier_entries",
    "hypervolume",
    "parse_frontier",
    "sparsity",
]

#: Provenance labels an archive entry may carry.
POLICY_SOURCES = ("warmup", "pareto_ascent", "paft_pair", "paft_extreme")

FRONTIER_SCHEMA_VERSION = 2

# The dtype of the trainer's policies, critics, optimizer state and
# workspace, and so of every snapshot an entry holds and of the checkpoint
# store. GAE, the gradient set the min-norm solve takes and the objectives
# stay float64.
NETWORK_DTYPE = np.float32


@dataclass(frozen=True)
class PolicyEntry:
    """An evaluated policy snapshot: reference, objective vector, provenance, parameters.

    ``params`` and ``critic_params`` are read-only ``NETWORK_DTYPE`` copies
    of the snapshot, so a snapshot lives exactly as long as some entry holds
    it, in the dtype the networks train in and the checkpoint store holds.
    """

    params_ref: str
    objectives: np.ndarray
    generation: int
    source: str
    params: np.ndarray = field(compare=False, repr=False)
    critic_params: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        objectives = np.asarray(self.objectives, dtype=float)
        if objectives.ndim != 1 or objectives.size == 0:
            raise ValueError(f"objectives must be a 1-D vector, got shape {objectives.shape}")
        if not np.all(np.isfinite(objectives)):
            raise ValueError(f"objectives must be finite, got {objectives!r}")
        if self.source not in POLICY_SOURCES:
            raise ValueError(f"unknown source {self.source!r}, expected one of {POLICY_SOURCES}")
        object.__setattr__(self, "objectives", objectives)
        for name in ("params", "critic_params"):
            snapshot = np.array(getattr(self, name), dtype=NETWORK_DTYPE)
            snapshot.flags.writeable = False
            object.__setattr__(self, name, snapshot)


@dataclass
class NonDominatedSet:
    """Mutually non-dominated collection of :class:`PolicyEntry`.

    Candidates dominated by a member are rejected; accepted candidates
    evict every member they dominate. Exact duplicates of an existing
    objective vector are rejected (the earlier entry wins). ``insert_many``
    offers a batch of rows in one pass; ``insert`` is its one-row call, and
    construction offers the given entries to an empty set through it, in
    order.
    """

    entries: list[PolicyEntry] = field(default_factory=list)
    # (n, m) objective vectors of ``entries``, row for row.
    _objectives: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offered, self.entries, self._objectives = self.entries, [], np.empty((0, 0))
        if offered:
            self.insert_many([e.objectives for e in offered], offered.__getitem__)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def objectives_matrix(self) -> np.ndarray:
        """Stacked (n, m) objective vectors of the current members."""
        return self._objectives.copy()

    def insert(self, entry: PolicyEntry) -> bool:
        """Offer ``entry`` to the set; returns True when it was accepted."""
        return bool(self.insert_many(entry.objectives[None], lambda _: entry)[0])

    def insert_many(self, objectives, build) -> np.ndarray:
        """Offer ``(k, m)`` objective rows in order; returns their k accepted flags.

        Flags, members and member order are those of k ``insert`` calls, one
        row at a time. ``build(j)`` makes the entry of row ``j`` (whose
        objectives are that row) and is called in row order for the accepted
        rows only, so a rejected row never becomes an entry. Every row is
        checked to be finite and of the set's width before anything changes.
        """
        C = np.asarray(objectives, dtype=float)
        if C.ndim != 2 or C.shape[1] == 0:
            raise ValueError(f"objectives must be (k, m) rows, got shape {C.shape}")
        P = self._objectives
        n, (k, m) = len(P), C.shape
        if n and m != P.shape[1]:
            raise ValueError(f"objective length mismatch: row 0 has {m}, set has {P.shape[1]}")
        finite = np.isfinite(C).all(axis=1)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ValueError(f"objectives must be finite, row {j} is {C[j]!r}")
        # Row j is taken when no earlier offer (a member or an earlier row,
        # taken or not) is >= it everywhere, and evicts each earlier offer it
        # is >= everywhere and differs from: whatever an evicted offer
        # covered, its evictor covers too, so this is the one-at-a-time
        # outcome. Over the offers i before row j, covers[j, i] says offer i
        # is >= row j everywhere and covered[j, i] that row j is >= offer i.
        Q = np.concatenate([P, C]) if n else C
        covers = np.arange(n + k) < np.arange(n, n + k)[:, None]
        covered = covers.copy()
        column = np.empty((k, n + k), dtype=bool)
        for c in range(m):
            covers &= np.greater_equal(Q[:, c], C[:, c, None], out=column)
            covered &= np.less_equal(Q[:, c], C[:, c, None], out=column)
        taken = ~covers.any(axis=1)
        if not taken.any():
            return taken
        covered &= ~covers
        keep = ~covered.any(axis=0)
        keep[n:] &= taken
        built = [build(j) if t else None for j, t in enumerate(taken.tolist())]
        self.entries = list(compress(self.entries + built, keep))
        self._objectives = Q[keep]
        return taken


def _hv2(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    # Area of the union of boxes [z, p], points in descending x (ties in
    # descending y): each point adds the horizontal slab above the best y
    # seen so far.
    prev_best = np.maximum.accumulate(np.concatenate(([z[1]], y[:-1])))
    slabs = np.clip(y - prev_best, 0.0, None)
    return float(slabs @ (x - z[0]))


def _hv3(points: np.ndarray, z: np.ndarray) -> float:
    # Slice along the third objective and sweep each slab in 2-D. The points
    # come in _hv2's order, and a level's active points keep it.
    x, y, h = points.T.copy()
    levels = np.sort(h)
    levels = levels[np.concatenate(([True], levels[1:] != levels[:-1]))][::-1]
    volume = 0.0
    for k, level in enumerate(levels):
        lower = levels[k + 1] if k + 1 < len(levels) else z[2]
        active = h >= level
        volume += _hv2(x[active], y[active], z[:2]) * (level - lower)
    return float(volume)


def hypervolume(points, z) -> float:
    """Exact Lebesgue measure of the union of boxes ``[z, p]``.

    Supports 2 and 3 objectives. Every point must dominate the reference
    point ``z``; anything else is an invariant violation and raises.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size not in (2, 3):
        raise ValueError(f"reference point must have 2 or 3 components, got shape {z.shape}")
    P = np.asarray(list(points), dtype=float)
    if P.size == 0:
        return 0.0
    if P.ndim != 2 or P.shape[1] != z.size:
        raise ValueError(f"points must be (n, {z.size}), got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("points have non-finite entries")
    bad = ~(np.all(P >= z, axis=1) & np.any(P > z, axis=1))
    if np.any(bad):
        raise ValueError(
            f"point {P[np.argmax(bad)]} does not dominate the reference point {z}"
        )
    # One stable sort in _hv2's order: a subset masked from it is in its order too.
    P = P[np.lexsort((-P[:, 1], -P[:, 0]))]
    if z.size == 2:
        return _hv2(P[:, 0], P[:, 1], z)
    return _hv3(P, z)


def sparsity(points) -> float | None:
    """Mean squared gap of per-objective sorted value lists.

    Duplicated points are collapsed first: one lexicographic sort, keeping
    each row that differs from the one before (0.0 and -0.0 are equal).
    With fewer than two distinct points the quantity is undefined and None
    is returned (a singleton frontier is not "perfectly dense"). Every
    point must be finite.
    """
    P = np.asarray(list(points), dtype=float)
    if P.size == 0:
        return None
    if P.ndim != 2:
        raise ValueError(f"points must be a 2-D collection, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("points have non-finite entries")
    P = P[np.lexsort(P.T)]
    P = P[np.concatenate(([True], np.any(P[1:] != P[:-1], axis=1)))]
    n = P.shape[0]
    if n <= 1:
        return None
    total = 0.0
    for i in range(P.shape[1]):
        gaps = np.diff(np.sort(P[:, i]))
        total += float(gaps @ gaps)
    return total / (n - 1)


def frontier_entries(ndset) -> list[PolicyEntry]:
    """The members in frontier document order: ascending objective vectors."""
    return sorted(ndset, key=lambda e: e.objectives.tolist())


def frontier_document(ndset, experiment_id: str, reference_point) -> dict:
    """Build the versioned frontier export document.

    Each entry names its snapshot by ``params_ref``; row k of a run's
    checkpoint store holds the parameters of ``entries[k]``.
    """
    reference_point = np.asarray(reference_point, dtype=float)
    entries = [
        {
            "objectives": [float(v) for v in e.objectives],
            "generation": int(e.generation),
            "source": e.source,
            "params_ref": e.params_ref,
        }
        for e in frontier_entries(ndset)
    ]
    m = int(reference_point.size)
    return {
        "schema_version": FRONTIER_SCHEMA_VERSION,
        "experiment_id": experiment_id,
        "m": m,
        "reference_point": [float(v) for v in reference_point],
        "entries": entries,
    }


def _real_list(value, m: int) -> bool:
    return isinstance(value, list) and len(value) == m and all(_is_real(v) for v in value)


def parse_frontier(doc: dict) -> tuple[dict, np.ndarray]:
    """Validate a frontier document; return (doc, stacked objective matrix)."""
    if not isinstance(doc, dict):
        raise ValueError("frontier document must be a mapping")
    version = doc.get("schema_version")
    if version != FRONTIER_SCHEMA_VERSION:
        raise ValueError(f"unsupported frontier schema_version: {version!r} (this version reads "
                         f"{FRONTIER_SCHEMA_VERSION}; version 1 kept one JSON checkpoint per entry)")
    for key in ("experiment_id", "m", "reference_point", "entries"):
        if key not in doc:
            raise ValueError(f"frontier document missing field {key!r}")
    m = doc["m"]
    if not _is_int(m) or m < 2:
        raise ValueError(f"frontier field 'm' must be an integer >= 2, got {m!r}")
    if not _real_list(doc["reference_point"], m):
        raise ValueError(f"frontier field 'reference_point' must be a list of m={m} finite numbers")
    if not isinstance(doc["entries"], list):
        raise ValueError("frontier field 'entries' must be a list")
    rows = []
    for entry in doc["entries"]:
        if not isinstance(entry, dict):
            raise ValueError(f"frontier entry must be a mapping, got {entry!r}")
        for key in ("objectives", "generation", "source", "params_ref"):
            if key not in entry:
                raise ValueError(f"frontier entry missing field {key!r}")
        if not _is_int(entry["generation"]) or entry["generation"] < 0:
            raise ValueError(f"frontier entry field 'generation' must be an integer >= 0, "
                             f"got {entry['generation']!r}")
        if entry["source"] not in POLICY_SOURCES:
            raise ValueError(f"frontier entry field 'source' must be one of {POLICY_SOURCES}, "
                             f"got {entry['source']!r}")
        if not isinstance(entry["params_ref"], str):
            raise ValueError(
                f"frontier entry field 'params_ref' must be a string, got {entry['params_ref']!r}")
        if not _real_list(entry["objectives"], m):
            raise ValueError(
                f"frontier entry field 'objectives' must be a list of m={m} finite numbers")
        rows.append([float(v) for v in entry["objectives"]])
    objectives = np.asarray(rows, dtype=float) if rows else np.empty((0, m))
    return doc, objectives
