"""Pareto analysis over DSE results.

The flexibility/efficiency trade-off of Figure 2 reappears at design time
as a multi-objective choice (latency vs area vs energy); the DSE reports
present the non-dominated set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from .explorer import DsePoint

#: An objective: (metric key, "min" or "max").
Objective = Tuple[str, str]


def _values(point: DsePoint, objectives: Sequence[Objective]) -> List[float]:
    out = []
    for key, direction in objectives:
        value = float(point.metrics[key])
        out.append(value if direction == "min" else -value)
    return out


def dominates(a: DsePoint, b: DsePoint, objectives: Sequence[Objective]) -> bool:
    """True if ``a`` is at least as good as ``b`` everywhere and better somewhere."""
    va, vb = _values(a, objectives), _values(b, objectives)
    return all(x <= y for x, y in zip(va, vb)) and any(x < y for x, y in zip(va, vb))


def pareto_front(
    points: Sequence[DsePoint], objectives: Sequence[Objective]
) -> List[DsePoint]:
    """The non-dominated subset, in input order.

    Validates objective directions (only ``"min"``/``"max"``) and skips
    failed points.
    """
    for key, direction in objectives:
        if direction not in ("min", "max"):
            raise ValueError(f"objective {key!r}: direction must be 'min' or 'max'")
    ok = [p for p in points if p.ok]
    front: List[DsePoint] = []
    for candidate in ok:
        if not any(dominates(other, candidate, objectives) for other in ok):
            front.append(candidate)
    return front


def crossover_point(
    points: Sequence[DsePoint],
    axis: str,
    metric: str,
    series_key: str,
    series_a: object,
    series_b: object,
) -> Dict[str, object]:
    """Locate where series ``a`` stops beating series ``b`` along ``axis``.

    Both series must be sampled at the same axis values.  Returns the first
    axis value where ``a``'s metric exceeds ``b``'s (or None if it never
    does) plus the two curves — the "where do crossovers fall" shape the
    experiment write-ups record.
    """
    curve_a = {
        p.params[axis]: float(p.metrics[metric])
        for p in points
        if p.ok and p.params.get(series_key) == series_a
    }
    curve_b = {
        p.params[axis]: float(p.metrics[metric])
        for p in points
        if p.ok and p.params.get(series_key) == series_b
    }
    shared = sorted(set(curve_a) & set(curve_b), key=lambda v: (str(type(v)), v))
    crossover = None
    for x in shared:
        if curve_a[x] > curve_b[x]:
            crossover = x
            break
    return {"axis_values": shared, "curve_a": curve_a, "curve_b": curve_b, "crossover": crossover}
