"""Shared builders for core-package tests: a dummy slave and a DRCF rig."""

from __future__ import annotations

from typing import List, Optional

from repro.bus import Bus, BusSlaveIf, ConfigMemory
from repro.core import Context, ContextParameters, Drcf
from repro.kernel import Module, Simulator, ns
from repro.tech import ReconfigTechnology


class DummySlave(Module, BusSlaveIf):
    """A trivial register-file slave with a fixed per-access delay."""

    def __init__(self, name, parent=None, sim=None, *, base, words=16, access_ns=10):
        super().__init__(name, parent=parent, sim=sim)
        self.base = base
        self.words = words
        self.access_ns = access_ns
        self.store = {}
        self.reads = 0
        self.writes = 0

    def get_low_add(self):
        return self.base

    def get_high_add(self):
        return self.base + self.words * 4 - 1

    def read(self, addr, count=1):
        yield ns(self.access_ns)
        self.reads += count
        index = (addr - self.base) // 4
        return [self.store.get(index + i, 0) for i in range(count)]

    def write(self, addr, data):
        yield ns(self.access_ns)
        words = [data] if isinstance(data, int) else list(data)
        index = (addr - self.base) // 4
        for i, word in enumerate(words):
            self.store[index + i] = word
        self.writes += len(words)
        return True


def small_tech(**overrides) -> ReconfigTechnology:
    """A fast-to-simulate reconfigurable technology for unit tests."""
    base = dict(
        name="unit",
        granularity="coarse",
        fabric_clock_hz=100e6,
        config_port_width_bits=32,
        config_port_freq_hz=100e6,
        bits_per_gate=8.0,
        context_slots=1,
        background_load=False,
        activation_overhead_cycles=2,
        speed_factor=1.0,
    )
    base.update(overrides)
    return ReconfigTechnology(**base)


class DrcfRig:
    """A self-contained DRCF test bench: bus + config memory + N dummies."""

    def __init__(
        self,
        n_contexts: int = 2,
        *,
        tech: Optional[ReconfigTechnology] = None,
        context_gates: int = 1000,
        protocol: str = "split",
        drcf_cls=Drcf,
        **drcf_kwargs,
    ):
        self.sim = Simulator()
        self.tech = tech or small_tech()
        self.bus = Bus("bus", sim=self.sim, clock_freq_hz=100e6, protocol=protocol)
        self.cfgmem = ConfigMemory(
            "cfg", sim=self.sim, base=0x100000, size_words=1 << 18
        )
        self.bus.register_slave(self.cfgmem)
        self.slaves: List[DummySlave] = []
        contexts = []
        size = self.tech.context_size_bytes(context_gates)
        for i in range(n_contexts):
            slave = DummySlave(f"s{i}", sim=self.sim, base=0x1000 * (i + 1))
            self.slaves.append(slave)
            params = ContextParameters(
                config_addr=0x100000 + i * ((size + 63) // 64) * 64,
                size_bytes=size,
            )
            contexts.append(
                Context(name=f"s{i}", module=slave, params=params, gates=context_gates)
            )
            self.cfgmem.register_context_region(f"s{i}", params.config_addr, size)
        self.drcf = drcf_cls(
            "drcf", sim=self.sim, contexts=contexts, tech=self.tech, **drcf_kwargs
        )
        self.drcf.mst_port.bind(self.bus)
        self.bus.register_slave(self.drcf)

    def addr(self, index: int, offset_words: int = 0) -> int:
        return self.slaves[index].base + 4 * offset_words

    def master_read(self, addr, count=1, master="cpu"):
        data = yield from self.bus.read(addr, count, master=master)
        return data

    def master_write(self, addr, data, master="cpu"):
        yield from self.bus.write(addr, data, master=master)
