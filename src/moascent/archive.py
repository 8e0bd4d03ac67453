"""Non-dominated policy archives and frontier quality metrics.

Maintains the set of mutually non-dominated evaluated policies, computes
the exact hypervolume dominated relative to a fixed reference point
(2 and 3 objectives), the sparsity of the frontier approximation, and the
JSON export schema for frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FRONTIER_SCHEMA_VERSION",
    "NonDominatedSet",
    "PolicyEntry",
    "frontier_document",
    "hypervolume",
    "parse_frontier",
    "sparsity",
]

#: Provenance labels an archive entry may carry.
POLICY_SOURCES = ("warmup", "pareto_ascent", "paft_pair", "paft_extreme")

FRONTIER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PolicyEntry:
    """An evaluated policy snapshot: reference, objective vector, provenance, parameters.

    ``params`` and ``critic_params`` are read-only copies of the snapshot,
    so a snapshot lives exactly as long as some entry holds it.
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
            snapshot = np.array(getattr(self, name), dtype=float)
            snapshot.flags.writeable = False
            object.__setattr__(self, name, snapshot)


@dataclass
class NonDominatedSet:
    """Mutually non-dominated collection of :class:`PolicyEntry`.

    Candidates dominated by a member are rejected; accepted candidates
    evict every member they dominate. Exact duplicates of an existing
    objective vector are rejected (the earlier entry wins).
    """

    entries: list[PolicyEntry] = field(default_factory=list)
    # (n, m) objective vectors of ``entries``, row for row.
    _objectives: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._objectives = np.stack([e.objectives for e in self.entries]) if self.entries \
            else np.empty((0, 0))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def objectives_matrix(self) -> np.ndarray:
        """Stacked (n, m) objective vectors of the current members."""
        return self._objectives.copy()

    def insert(self, entry: PolicyEntry) -> bool:
        """Offer ``entry`` to the set; returns True when it was accepted."""
        c = entry.objectives
        if not self.entries:
            self.entries.append(entry)
            self._objectives = c[None].copy()
            return True
        P = self._objectives
        if c.shape[0] != P.shape[1]:
            raise ValueError(
                f"objective length mismatch: entry has {c.shape[0]}, set has {P.shape[1]}"
            )
        if bool(np.any(np.all(P == c, axis=1))):
            return False  # duplicate objective vector: keep the earlier entry
        ge = P >= c
        if bool(np.any(np.all(ge, axis=1) & np.any(P > c, axis=1))):
            return False  # dominated by a member
        dominated_members = np.all(c >= P, axis=1) & np.any(c > P, axis=1)
        if np.any(dominated_members):
            self.entries = [e for e, dead in zip(self.entries, dominated_members) if not dead]
            P = P[~dominated_members]
        self.entries.append(entry)
        self._objectives = np.concatenate([P, c[None]])
        return True


def _hv2(points: np.ndarray, z: np.ndarray) -> float:
    # Area of the union of boxes [z, p]: sweep in descending x, each point
    # adds the horizontal slab above the best y seen so far.
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    x = points[order, 0]
    y = points[order, 1]
    prev_best = np.maximum.accumulate(np.concatenate(([z[1]], y[:-1])))
    slabs = np.clip(y - prev_best, 0.0, None)
    return float(slabs @ (x - z[0]))


def _hv3(points: np.ndarray, z: np.ndarray) -> float:
    # Slice along the third objective and sweep each slab in 2-D.
    levels = np.unique(points[:, 2])[::-1]
    volume = 0.0
    for k, level in enumerate(levels):
        lower = levels[k + 1] if k + 1 < len(levels) else z[2]
        thickness = level - lower
        if thickness == 0.0:
            continue
        active = points[points[:, 2] >= level][:, :2]
        volume += _hv2(active, z[:2]) * thickness
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
    if z.size == 2:
        return _hv2(P, z)
    return _hv3(P, z)


def sparsity(points) -> float | None:
    """Mean squared gap of per-objective sorted value lists.

    Duplicated points are collapsed first. With fewer than two distinct
    points the quantity is undefined and None is returned (a singleton
    frontier is not "perfectly dense").
    """
    P = np.asarray(list(points), dtype=float)
    if P.size == 0:
        return None
    if P.ndim != 2:
        raise ValueError(f"points must be a 2-D collection, got shape {P.shape}")
    P = np.unique(P, axis=0)
    n = P.shape[0]
    if n <= 1:
        return None
    total = 0.0
    for i in range(P.shape[1]):
        gaps = np.diff(np.sort(P[:, i]))
        total += float(gaps @ gaps)
    return total / (n - 1)


def frontier_document(
    ndset: NonDominatedSet,
    experiment_id: str,
    reference_point,
    checkpoint_names: dict[str, str],
) -> dict:
    """Build the versioned frontier export document.

    ``checkpoint_names`` maps each member's ``params_ref`` to the path of
    its serialized checkpoint (relative to the run directory).
    """
    reference_point = np.asarray(reference_point, dtype=float)
    entries = []
    for e in ndset:
        entries.append(
            {
                "objectives": [float(v) for v in e.objectives],
                "generation": int(e.generation),
                "source": e.source,
                "checkpoint": checkpoint_names[e.params_ref],
            }
        )
    entries.sort(key=lambda d: tuple(d["objectives"]))
    m = int(reference_point.size)
    return {
        "schema_version": FRONTIER_SCHEMA_VERSION,
        "experiment_id": experiment_id,
        "m": m,
        "reference_point": [float(v) for v in reference_point],
        "entries": entries,
    }


def parse_frontier(doc: dict) -> tuple[dict, np.ndarray]:
    """Validate a frontier document; return (doc, stacked objective matrix)."""
    if not isinstance(doc, dict):
        raise ValueError("frontier document must be a mapping")
    version = doc.get("schema_version")
    if version != FRONTIER_SCHEMA_VERSION:
        raise ValueError(f"unsupported frontier schema_version: {version!r}")
    for key in ("experiment_id", "m", "reference_point", "entries"):
        if key not in doc:
            raise ValueError(f"frontier document missing field {key!r}")
    m = int(doc["m"])
    if not isinstance(doc["reference_point"], list) or len(doc["reference_point"]) != m:
        raise ValueError(f"frontier field 'reference_point' must be a list of m={m} numbers")
    if not isinstance(doc["entries"], list):
        raise ValueError("frontier field 'entries' must be a list")
    rows = []
    for entry in doc["entries"]:
        if not isinstance(entry, dict):
            raise ValueError(f"frontier entry must be a mapping, got {entry!r}")
        for key in ("objectives", "generation", "source", "checkpoint"):
            if key not in entry:
                raise ValueError(f"frontier entry missing field {key!r}")
        if not isinstance(entry["objectives"], list) or len(entry["objectives"]) != m:
            raise ValueError(f"frontier entry field 'objectives' must be a list of m={m} numbers")
        rows.append([float(v) for v in entry["objectives"]])
    objectives = np.asarray(rows, dtype=float) if rows else np.empty((0, m))
    return doc, objectives
