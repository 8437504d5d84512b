"""Fixed-width hardware datatypes (the ``sc_uint``/``sc_int`` analogue).

:class:`BitVector` models an N-bit unsigned register with wrapping modular
arithmetic, bit and slice access, concatenation, and a two's-complement
signed view, for models that want ``sc_uint`` semantics.  The shipped
accelerator models compute on plain ints; the FIR model clamps its
outputs with :func:`saturate_signed`.
"""

from __future__ import annotations

from typing import Union


class BitVector:
    """An immutable N-bit unsigned integer with hardware semantics.

    Arithmetic wraps modulo ``2**width`` and returns a :class:`BitVector`
    of the same width as the left operand (SystemC's ``sc_uint`` behaviour
    for same-width operands).  Comparison and hashing follow the unsigned
    value *and* the width.
    """

    __slots__ = ("width", "_value")

    def __init__(self, value: Union[int, "BitVector"], width: int) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if isinstance(value, BitVector):
            value = value._value
        self.width = width
        self._value = value & ((1 << width) - 1)

    # -- views -----------------------------------------------------------
    @property
    def unsigned(self) -> int:
        """The value interpreted as an unsigned integer."""
        return self._value

    @property
    def signed(self) -> int:
        """The value interpreted as two's-complement signed."""
        sign_bit = 1 << (self.width - 1)
        return self._value - (1 << self.width) if self._value & sign_bit else self._value

    @classmethod
    def from_signed(cls, value: int, width: int) -> "BitVector":
        """Encode a (possibly negative) integer as two's complement."""
        return cls(value, width)

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    # -- bit access --------------------------------------------------------
    def __getitem__(self, key: Union[int, slice]) -> "BitVector":
        if isinstance(key, int):
            idx = self._norm_index(key)
            return BitVector((self._value >> idx) & 1, 1)
        if isinstance(key, slice):
            if key.step is not None:
                raise ValueError("BitVector slices do not support a step")
            # Verilog-style [high:low] inclusive range on bit indices.
            high = self.width - 1 if key.start is None else key.start
            low = 0 if key.stop is None else key.stop
            if high < low:
                raise ValueError(f"slice [{high}:{low}] has high < low")
            self._norm_index(high)
            self._norm_index(low)
            n = high - low + 1
            return BitVector((self._value >> low) & ((1 << n) - 1), n)
        raise TypeError(f"invalid index {key!r}")

    def _norm_index(self, idx: int) -> int:
        if idx < 0:
            idx += self.width
        if not 0 <= idx < self.width:
            raise IndexError(f"bit index {idx} out of range for width {self.width}")
        return idx

    def set_bit(self, idx: int, value: int) -> "BitVector":
        """A copy with bit ``idx`` set to ``value`` (0/1)."""
        idx = self._norm_index(idx)
        if value:
            return BitVector(self._value | (1 << idx), self.width)
        return BitVector(self._value & ~(1 << idx), self.width)

    def concat(self, other: "BitVector") -> "BitVector":
        """``{self, other}`` — self becomes the high bits."""
        return BitVector((self._value << other.width) | other._value, self.width + other.width)

    def resize(self, width: int) -> "BitVector":
        """Zero-extend or truncate to ``width`` bits."""
        return BitVector(self._value, width)

    def resize_signed(self, width: int) -> "BitVector":
        """Sign-extend or truncate to ``width`` bits."""
        return BitVector.from_signed(self.signed, width)

    def popcount(self) -> int:
        """Number of set bits."""
        return bin(self._value).count("1")

    def reversed_bits(self) -> "BitVector":
        """Bit-reversed copy (used by the FFT address generator)."""
        v = 0
        x = self._value
        for _ in range(self.width):
            v = (v << 1) | (x & 1)
            x >>= 1
        return BitVector(v, self.width)

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other: Union[int, "BitVector"]) -> int:
        if isinstance(other, BitVector):
            return other._value
        if isinstance(other, int):
            return other
        return NotImplemented  # type: ignore[return-value]

    def _wrap(self, value: int) -> "BitVector":
        return BitVector(value, self.width)

    def __add__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(self._value + rhs)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(self._value - rhs)

    def __rsub__(self, other):
        lhs = self._coerce(other)
        return NotImplemented if lhs is NotImplemented else self._wrap(lhs - self._value)

    def __mul__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(self._value * rhs)

    __rmul__ = __mul__

    def __and__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(self._value & rhs)

    __rand__ = __and__

    def __or__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(self._value | rhs)

    __ror__ = __or__

    def __xor__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._wrap(self._value ^ rhs)

    __rxor__ = __xor__

    def __invert__(self) -> "BitVector":
        return self._wrap(~self._value)

    def __lshift__(self, n: int) -> "BitVector":
        return self._wrap(self._value << n)

    def __rshift__(self, n: int) -> "BitVector":
        return self._wrap(self._value >> n)

    def __neg__(self) -> "BitVector":
        return self._wrap(-self._value)

    # -- comparison ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitVector):
            return self.width == other.width and self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._value < rhs

    def __le__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._value <= rhs

    def __gt__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._value > rhs

    def __ge__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is NotImplemented else self._value >= rhs

    def __hash__(self) -> int:
        return hash((self.width, self._value))

    def __repr__(self) -> str:
        return f"BitVector(0x{self._value:0{(self.width + 3) // 4}x}, width={self.width})"


def uint(value: int, width: int) -> BitVector:
    """Shorthand constructor for an unsigned :class:`BitVector`."""
    return BitVector(value, width)


def sint(value: int, width: int) -> BitVector:
    """Shorthand constructor encoding a signed integer in two's complement."""
    return BitVector.from_signed(value, width)


def saturate_signed(value: int, width: int) -> int:
    """Clamp ``value`` into the signed N-bit range (DSP-style saturation)."""
    hi = (1 << (width - 1)) - 1
    lo = -(1 << (width - 1))
    return max(lo, min(hi, value))
