"""Waveform tracing.

:class:`VcdTracer` writes a minimal Value Change Dump file for the signals
registered with it, mirroring ``sc_trace``.  :class:`TimelineRecorder`
collects (time, label, payload) rows in memory for the utilization/timeline
reports used by the experiment harness.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

from .signal import Signal
from .simtime import SimTime


class VcdTracer:
    """Records signal changes and serializes them as a VCD document.

    Values are written as integers (scalar for 1-bit booleans, vector
    otherwise).  Times are in the VCD header's timescale of 1 ps.
    """

    _ID_ALPHABET = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def __init__(self, design_name: str = "repro") -> None:
        self.design_name = design_name
        self._signals: List[Tuple[Signal, str, int, str]] = []  # (sig, name, width, id)
        self._changes: List[Tuple[int, str, object, int]] = []  # (time_ps, id, value, width)

    def trace(self, signal: Signal, name: Optional[str] = None, width: int = 1) -> None:
        """Register ``signal``; subsequent committed changes are recorded."""
        ident = self._make_id(len(self._signals))
        label = name or signal.name
        self._signals.append((signal, label, width, ident))
        # Record the initial value at time zero.
        self._changes.append((0, ident, signal.read(), width))
        signal.on_update(
            lambda t, v, ident=ident, width=width: self._changes.append(
                (int(t.to_ps()), ident, v, width)
            )
        )

    @classmethod
    def _make_id(cls, index: int) -> str:
        chars = []
        index += 1
        while index:
            index, rem = divmod(index - 1, len(cls._ID_ALPHABET))
            chars.append(cls._ID_ALPHABET[rem])
        return "".join(chars)

    @property
    def change_count(self) -> int:
        """Number of recorded value changes (including initial values)."""
        return len(self._changes)

    def dumps(self) -> str:
        """The VCD document as a string."""
        out = io.StringIO()
        out.write(f"$date reproduction run $end\n")
        out.write(f"$version repro VcdTracer $end\n")
        out.write("$timescale 1ps $end\n")
        out.write(f"$scope module {self.design_name} $end\n")
        for _sig, label, width, ident in self._signals:
            safe = label.replace(" ", "_")
            out.write(f"$var wire {width} {ident} {safe} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        current_time = None
        for time_ps, ident, value, width in sorted(self._changes, key=lambda c: c[0]):
            if time_ps != current_time:
                out.write(f"#{time_ps}\n")
                current_time = time_ps
            out.write(self._format_change(ident, value, width))
        return out.getvalue()

    @staticmethod
    def _format_change(ident: str, value: object, width: int) -> str:
        # Mask to the declared width: VCD has no sign, so negative values
        # are emitted as two's complement (``f"{iv:b}"`` would produce an
        # illegal ``b-101`` token that waveform viewers reject).
        iv = int(value) & ((1 << width) - 1)  # type: ignore[arg-type]
        if width == 1:
            return f"{1 if iv else 0}{ident}\n"
        return f"b{iv:b} {ident}\n"

    def dump(self, path: str) -> None:
        """Write the VCD document to ``path``."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.dumps())


class TimelineRecorder:
    """Collects labelled intervals for activity/utilization reports.

    Used by the DRCF instrumentation and the bus monitor to produce the
    per-context activity timelines reported by the experiment harness.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[int, int, str, str]] = []  # (start_fs, end_fs, track, label)

    def record(self, start: SimTime, end: SimTime, track: str, label: str) -> None:
        """Record one interval on ``track``."""
        if end < start:
            raise ValueError("interval end precedes start")
        self._rows.append((start.femtoseconds, end.femtoseconds, track, label))

    def record_repeated(
        self, start_fs: int, duration_fs: int, period_fs: int, count: int, track: str, label: str
    ) -> None:
        """Record ``count`` intervals of ``duration_fs`` on ``track``, the
        ``i``-th starting at ``start_fs + i * period_fs``."""
        self._rows += [
            (start_fs + i * period_fs, start_fs + i * period_fs + duration_fs, track, label)
            for i in range(count)
        ]

    @property
    def rows(self) -> List[Tuple[SimTime, SimTime, str, str]]:
        """All intervals, sorted by start time."""
        return [
            (SimTime.from_fs(s), SimTime.from_fs(e), track, label)
            for s, e, track, label in sorted(self._rows)
        ]

    def track_busy_time(self, track: str) -> SimTime:
        """Total busy time on ``track``, with overlapping intervals merged.

        Overlaps are common (e.g. pipelined bus transactions on one
        master's track); naively summing lengths would double-count the
        shared span and report utilizations above 100%.
        """
        intervals = sorted((s, e) for s, e, t, _ in self._rows if t == track)
        total = 0
        merged_end = None
        for s, e in intervals:
            if merged_end is None or s > merged_end:
                total += e - s
                merged_end = e
            elif e > merged_end:
                total += e - merged_end
                merged_end = e
        return SimTime.from_fs(total)

    def to_csv(self) -> str:
        """The intervals as CSV text (start_ns, end_ns, track, label)."""
        lines = ["start_ns,end_ns,track,label"]
        for start, end, track, label in self.rows:
            lines.append(f"{start.to_ns()},{end.to_ns()},{track},{label}")
        return "\n".join(lines) + "\n"

    def render_ascii(self, width: int = 72) -> str:
        """A human-readable fixed-width rendering of the timeline."""
        if not self._rows:
            return "(empty timeline)"
        t_max = max(e for _, e, _, _ in self._rows) or 1
        tracks: Dict[str, List[Tuple[int, int, str]]] = {}
        for s, e, track, label in sorted(self._rows):
            tracks.setdefault(track, []).append((s, e, label))
        lines = []
        for track, intervals in tracks.items():
            row = [" "] * width
            for s, e, label in intervals:
                a = min(width - 1, int(s / t_max * width))
                b = min(width, max(a + 1, int(e / t_max * width)))
                mark = label[0] if label else "#"
                for i in range(a, b):
                    row[i] = mark
            lines.append(f"{track:>18} |{''.join(row)}|")
        return "\n".join(lines)
