"""The fault injector: arms :class:`~repro.faults.models.FaultSpec` s and
implements the hook surface the core layer exposes for them.

Injection is **non-invasive**: the injector attaches to an elaborated
design by setting two hook attributes —

* ``Drcf.fault_hook`` → :meth:`FaultInjector.fetch_delay` (stuck ports)
  and :meth:`FaultInjector.filter_bitstream` (truncated transfers) act on
  configuration fetches;
* ``Memory.fault_hook`` → :meth:`FaultInjector.on_memory_read` corrupts
  burst reads in flight (transient bus errors), and
  :meth:`FaultInjector.passes_reads_unchanged` tells the memory when it
  has nothing left to corrupt;

plus one daemon process that pokes timed configuration-memory upsets
(``bitflip``) at their injection instants.  Nothing in the design is
subclassed or monkey-patched, and a disarmed design pays a single
``is None`` test per hook site.

All randomness (which bits flip, garbage words, which burst word is hit)
comes from one seeded :class:`random.Random`, so a campaign trial is
reproduced exactly by its seed.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List, Optional, Sequence

from ..kernel import SimTime, SimulationError, ns, us
from .models import FaultSpec


class FaultInjector:
    """Arms fault specs and applies them through the core-layer hooks.

    Usage::

        injector = FaultInjector(seed=7)
        injector.arm(FaultSpec("truncate", "fft", at_ns=5_000.0))
        injector.attach(sim, design, info)   # before sim.run()
        sim.run()
        injector.detach()                    # after the last read

    ``events`` records every applied fault as ``(t_ns, description)`` in
    application order — the audit trail campaigns put in their reports.
    """

    def __init__(self, seed: int = 1) -> None:
        self.rng = random.Random(seed)
        self.specs: List[FaultSpec] = []
        #: ``(sim_ns, description)`` log of every fault actually applied.
        self.events: List[tuple] = []
        self._sim = None
        self._drcf = None
        self._memory = None
        #: One-shot consumption state: spec index -> remaining applications.
        self._remaining: Dict[int, int] = {}
        #: ``bus_transient`` applications left over all specs.
        self._transients_left = 0
        self._attached = False

    # -- arming / attaching -------------------------------------------------
    def arm(self, spec: FaultSpec) -> None:
        """Register a fault for injection (before :meth:`attach`)."""
        if self._attached:
            raise SimulationError("arm() must be called before attach()")
        index = len(self.specs)
        self.specs.append(spec)
        self._remaining[index] = spec.n_bursts if spec.kind == "bus_transient" else 1
        if spec.kind == "bus_transient":
            self._transients_left += spec.n_bursts

    def attach(self, sim, design, info) -> None:
        """Hook an elaborated design (SoC template ``info`` address map).

        Sets the two fault-hook attributes and spawns the timed-upset
        daemon when any ``bitflip`` is armed.  Safe to call with no specs
        armed (the hooks then never fire).
        """
        if self._attached:
            raise SimulationError("injector already attached")
        self._attached = True
        self._sim = sim
        drcf = self._drcf = design[info.drcf_name]
        memory = self._memory = design[info.config_memory_name]
        known = {c.name for c in drcf.contexts}
        for spec in self.specs:
            if spec.target not in known:
                raise SimulationError(
                    f"fault targets unknown context {spec.target!r}; "
                    f"contexts: {sorted(known)}"
                )
        drcf.fault_hook = self
        memory.fault_hook = self
        if any(spec.kind == "bitflip" for spec in self.specs):
            sim.spawn("fault_injector.timed", self._timed_upsets, daemon=True)

    def detach(self) -> None:
        """Disarm the two fault hooks and drop the design and simulator,
        once the run is over: the hooks point at this injector, and it
        points back at the design.  :attr:`events` stays readable."""
        if self._drcf is not None:
            self._drcf.fault_hook = None
            self._memory.fault_hook = None
        self._sim = self._drcf = self._memory = None

    # -- timed upsets (bitflip) ---------------------------------------------
    def _timed_upsets(self):
        """Daemon: poke each armed bitflip at its injection instant."""
        flips = sorted(
            (
                (index, spec)
                for index, spec in enumerate(self.specs)
                if spec.kind == "bitflip"
            ),
            key=lambda item: (item[1].at_ns, item[0]),
        )
        for index, spec in flips:
            target_ns = spec.at_ns
            now_ns = self._sim.now.to_ns()
            if target_ns > now_ns:
                yield ns(target_ns - now_ns)
            if self._remaining.get(index, 0) <= 0:
                continue
            self._remaining[index] = 0
            _addr, size_bytes = self._memory.region_of(spec.target)
            bits = sorted(
                self.rng.sample(range(size_bytes * 8), min(spec.n_bits, size_bytes * 8))
            )
            self._memory.corrupt_region(spec.target, bits)
            self._log(f"bitflip {spec.target}: flipped bits {bits}")

    # -- Drcf.fault_hook ------------------------------------------------------
    def fetch_delay(self, drcf_name: str, context_name: str) -> Optional[SimTime]:
        """Stuck-port model: stall duration for this fetch attempt, or None.

        Consulted at the start of every fetch attempt; a ``stuck`` spec
        matching the context (and whose time has come) is consumed
        one-shot, so a retried or timed-out attempt proceeds cleanly.
        """
        now_ns = self._sim.now.to_ns()
        for index, spec in enumerate(self.specs):
            if (
                spec.kind == "stuck"
                and spec.target == context_name
                and self._remaining.get(index, 0) > 0
                and now_ns >= spec.at_ns
            ):
                self._remaining[index] = 0
                self._log(f"stuck {context_name}: port wedged {spec.stall_us:g}us")
                return us(spec.stall_us)
        return None

    def filter_bitstream(
        self, drcf_name: str, context_name: str, bitstream: Sequence[int]
    ) -> Sequence[int]:
        """Truncated-transfer model: garble the tail of a fetched bitstream.

        The region content defaults to fill words, so a truncation must
        inject *garbage* (seeded), not zeros — otherwise the checksum
        would not notice the damage.  Returns ``bitstream`` itself when no
        truncation applies, else a garbled copy.
        """
        data = bitstream
        now_ns = self._sim.now.to_ns()
        for index, spec in enumerate(self.specs):
            if (
                spec.kind == "truncate"
                and spec.target == context_name
                and self._remaining.get(index, 0) > 0
                and now_ns >= spec.at_ns
            ):
                self._remaining[index] = 0
                size = len(data)
                keep = max(0, min(size - 1, int(size * (1.0 - spec.drop_fraction))))
                data = list(data[:keep])
                # One draw of 32 * n bits gives the words of n getrandbits(32)
                # calls, least significant first, and leaves the generator
                # where those calls would (CPython fills it from the same
                # 32-bit outputs).
                n = size - keep
                garbage = self.rng.getrandbits(32 * n).to_bytes(4 * n, "little")
                data += struct.unpack(f"<{n}I", garbage)
                self._log(f"truncate {context_name}: words [{keep}:{size}] garbled")
        return data

    # -- Memory.fault_hook -----------------------------------------------------
    def on_memory_read(self, memory, addr: int, count: int, data: List[int]) -> List[int]:
        """Transient bus-error model: flip one bit in a burst in flight.

        Only bursts overlapping the target context's registered region
        (``ConfigMemory.context_for_burst``) are touched; everything else
        passes through untouched.  While :meth:`passes_reads_unchanged`
        holds, ``data`` is returned at once, before the region lookup.
        """
        if self.passes_reads_unchanged(memory, addr, count):
            return data
        region_of = getattr(memory, "context_for_burst", None)
        if region_of is None:
            return data
        touched = region_of(addr, count)
        if touched is None:
            return data
        now_ns = self._sim.now.to_ns()
        for index, spec in enumerate(self.specs):
            if (
                spec.kind == "bus_transient"
                and spec.target == touched
                and self._remaining.get(index, 0) > 0
                and now_ns >= spec.at_ns
            ):
                self._remaining[index] -= 1
                self._transients_left -= 1
                data = list(data)
                word = self.rng.randrange(count)
                bit = self.rng.randrange(32)
                data[word] ^= 1 << bit
                self._log(
                    f"bus_transient {touched}: flipped bit {bit} of "
                    f"burst word {word} at {addr:#x}"
                )
        return data

    def passes_reads_unchanged(self, memory, addr: int, count: int) -> bool:
        """Would :meth:`on_memory_read` return the bursts of this range
        unchanged, with no random draw and no log entry?

        Conservatively, True only when no ``bus_transient`` spec has
        applications left.  The memory then samples the range as one
        slice instead of filtering it burst by burst.
        """
        return not self._transients_left

    # -- introspection ------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Armed fault applications not yet consumed."""
        return sum(1 for left in self._remaining.values() if left > 0)

    def _log(self, message: str) -> None:
        self.events.append((self._sim.now.to_ns(), message))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultInjector(specs={len(self.specs)}, applied={len(self.events)})"
