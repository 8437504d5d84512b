"""Simulation time.

SystemC represents time as an integer multiple of a global resolution; we do
the same with a fixed resolution of one femtosecond.  :class:`SimTime` is an
immutable value type with exact integer arithmetic, so long simulations never
accumulate floating-point drift and event ordering is fully deterministic.

Construction helpers mirror the ``sc_time`` units::

    from repro.kernel import ns, us

    t = ns(10)            # 10 nanoseconds
    t2 = t + us(1)        # exact arithmetic
    t2.to_ns()            # 1010.0
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Union

#: Number of femtoseconds per unit, keyed by unit name.
_UNIT_FS = {
    "fs": 1,
    "ps": 10**3,
    "ns": 10**6,
    "us": 10**9,
    "ms": 10**12,
    "s": 10**15,
}


@total_ordering
class SimTime:
    """An exact, immutable point/duration on the simulation time axis.

    Internally an integer count of femtoseconds.  Supports addition,
    subtraction, scaling by integers/floats (rounded to the resolution),
    division, and total ordering.  Durations and absolute times share this
    type, as in SystemC.
    """

    __slots__ = ("_fs",)

    def __init__(self, value: Union[int, float], unit: str = "fs") -> None:
        try:
            scale = _UNIT_FS[unit]
        except KeyError:
            raise ValueError(f"unknown time unit {unit!r}; expected one of {sorted(_UNIT_FS)}") from None
        fs = value * scale
        self._fs = int(round(fs))
        if self._fs < 0:
            raise ValueError(f"negative time not allowed: {value} {unit}")

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_fs(cls, fs: int) -> "SimTime":
        """Build a :class:`SimTime` directly from an integer femtosecond count."""
        t = cls.__new__(cls)
        if fs < 0:
            raise ValueError(f"negative time not allowed: {fs} fs")
        t._fs = int(fs)
        return t

    # -- accessors ---------------------------------------------------------
    @property
    def femtoseconds(self) -> int:
        """The exact integer femtosecond count."""
        return self._fs

    def to_fs(self) -> int:
        return self._fs

    def to_ps(self) -> float:
        return self._fs / _UNIT_FS["ps"]

    def to_ns(self) -> float:
        return self._fs / _UNIT_FS["ns"]

    def to_us(self) -> float:
        return self._fs / _UNIT_FS["us"]

    def to_ms(self) -> float:
        return self._fs / _UNIT_FS["ms"]

    def to_seconds(self) -> float:
        return self._fs / _UNIT_FS["s"]

    def is_zero(self) -> bool:
        return self._fs == 0

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        return SimTime.from_fs(self._fs + other._fs)

    def __sub__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        if other._fs > self._fs:
            raise ValueError("SimTime subtraction would be negative")
        return SimTime.from_fs(self._fs - other._fs)

    def __mul__(self, factor: Union[int, float]) -> "SimTime":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return SimTime.from_fs(int(round(self._fs * factor)))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["SimTime", int, float]):
        if isinstance(other, SimTime):
            if other._fs == 0:
                raise ZeroDivisionError("division by zero SimTime")
            return self._fs / other._fs
        if isinstance(other, (int, float)):
            return SimTime.from_fs(int(round(self._fs / other)))
        return NotImplemented

    def __floordiv__(self, other: "SimTime") -> int:
        if not isinstance(other, SimTime):
            return NotImplemented
        if other._fs == 0:
            raise ZeroDivisionError("division by zero SimTime")
        return self._fs // other._fs

    def __mod__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        if other._fs == 0:
            raise ZeroDivisionError("modulo by zero SimTime")
        return SimTime.from_fs(self._fs % other._fs)

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimTime) and self._fs == other._fs

    def __lt__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs < other._fs

    def __hash__(self) -> int:
        return hash(("SimTime", self._fs))

    def __bool__(self) -> bool:
        return self._fs != 0

    # -- formatting ------------------------------------------------------------
    def __repr__(self) -> str:
        return f"SimTime({self._fs} fs)"

    def __str__(self) -> str:
        fs = self._fs
        for unit in ("s", "ms", "us", "ns", "ps"):
            scale = _UNIT_FS[unit]
            if fs >= scale and fs % scale == 0:
                return f"{fs // scale} {unit}"
        if fs >= _UNIT_FS["ns"]:
            return f"{fs / _UNIT_FS['ns']:.3f} ns"
        return f"{fs} fs"


#: The zero duration; also the simulation start time.
ZERO_TIME = SimTime.from_fs(0)


def fs(value: Union[int, float]) -> SimTime:
    """``value`` femtoseconds as a :class:`SimTime`."""
    return SimTime(value, "fs")


def ps(value: Union[int, float]) -> SimTime:
    """``value`` picoseconds as a :class:`SimTime`."""
    return SimTime(value, "ps")


def ns(value: Union[int, float]) -> SimTime:
    """``value`` nanoseconds as a :class:`SimTime`."""
    return SimTime(value, "ns")


def us(value: Union[int, float]) -> SimTime:
    """``value`` microseconds as a :class:`SimTime`."""
    return SimTime(value, "us")


def ms(value: Union[int, float]) -> SimTime:
    """``value`` milliseconds as a :class:`SimTime`."""
    return SimTime(value, "ms")


def sec(value: Union[int, float]) -> SimTime:
    """``value`` seconds as a :class:`SimTime`."""
    return SimTime(value, "s")


@lru_cache(maxsize=None)
def cycles_to_time(n_cycles: int, frequency_hz: float) -> SimTime:
    """Duration of ``n_cycles`` clock cycles at ``frequency_hz``.

    Rounds to the femtosecond resolution; used throughout the timing models
    to convert cycle-count estimates into kernel time.  Memoized: the
    models ask for a few cycle counts at a few fixed clocks over and over,
    and a :class:`SimTime` is immutable, so a repeated call returns the
    same object.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    if n_cycles < 0:
        raise ValueError("cycle count must be non-negative")
    return SimTime.from_fs(int(round(n_cycles * 1e15 / frequency_hz)))
