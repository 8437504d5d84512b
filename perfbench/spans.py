"""Layer attribution for the end-to-end benchmark.

Spans are recorded from the benchmark's own code: :class:`Tracer` replaces
public functions of the ``repro`` layers with wrappers that charge host
time to a named layer.  Every instant of an iteration is charged to
exactly one layer (the innermost open span, or ``root`` when none is
open), so the layers' self times plus the unattributed ``root`` time add
up to the iteration time by construction.

Bus, memory and configuration-fetch calls return generators that the
simulation kernel resumes many times; their wrapper returns a proxy that
opens the span on every resume and closes it on every suspension, so a
span sums its host time across resumes and never counts simulated waits.

:class:`Capture` only records the objects an iteration creates
(simulators and job runners); it never wraps code the kernel runs, so an
iteration run under it is the untraced reference for the fidelity check.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

ROOT = "root"


class Capture:
    """Records the simulators and job runners created while installed."""

    def __init__(self) -> None:
        self.sims: List[object] = []
        self.runners: List[object] = []
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.apps import JobRunner
        from repro.kernel import Simulator

        self._record_instances(Simulator, self.sims)
        self._record_instances(JobRunner, self.runners)

    def _record_instances(self, cls, sink: list) -> None:
        original = cls.__init__

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            sink.append(obj)

        self._undo.append((cls, "__init__", original))
        cls.__init__ = __init__

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def clear(self) -> None:
        self.sims.clear()
        self.runners.clear()


class _TimedGen:
    """Generator proxy charging each resume of ``gen`` to ``layer``.

    ``yield from`` drives it through ``__next__``/``send``/``throw``/
    ``close``, and the inner generator's return value travels out in its
    ``StopIteration`` unchanged.
    """

    __slots__ = ("_gen", "_layer", "_tracer", "_on_return")

    def __init__(self, gen, layer: str, tracer: "Tracer", on_return) -> None:
        self._gen = gen
        self._layer = layer
        self._tracer = tracer
        self._on_return = on_return

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        # Tracer.enter/exit inlined: this runs on every resume of every
        # bus, memory and fetch generator, so its cost is trace overhead.
        tracer = self._tracer
        stack = tracer._stack
        now = perf_counter()
        tracer.self_s[stack[-1]] += now - tracer._last
        tracer._last = now
        stack.append(self._layer)
        try:
            return self._gen.send(value)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            now = perf_counter()
            tracer.self_s[stack.pop()] += now - tracer._last
            tracer._last = now

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            self._gen.close()
        finally:
            tracer.exit()


class Tracer:
    """Self-time, inclusive-time and call counters per layer."""

    def __init__(self) -> None:
        self._stack: List[str] = [ROOT]
        self._last = perf_counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of plain (non-generator) spans, outermost only.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    # -- clock -------------------------------------------------------------
    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(layer)

    def exit(self) -> None:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now

    def reset(self) -> None:
        """Start a new iteration: zero every accumulator."""
        if len(self._stack) != 1:
            raise RuntimeError(f"span stack not empty between iterations: {self._stack}")
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self._last = perf_counter()

    def flush(self) -> None:
        """Charge the time since the last transition to the open layer."""
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now

    # -- wrappers ----------------------------------------------------------
    def _patch(self, owner, name: str, wrapper: Callable) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def span(self, owner, name: str, layer: str, on_call=None, on_result=None) -> None:
        """Wrap a plain function: one span per call, inclusive time kept."""
        fn = owner.__dict__[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            outermost = layer not in tracer._stack
            start = perf_counter()
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                if outermost:
                    tracer.total_s[layer] += perf_counter() - start
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patch(owner, name, wrapper)

    def gen_span(self, owner, name: str, layer: str, on_return=None) -> None:
        """Wrap a function returning a generator: span per resume.

        ``on_return(args, value)`` sees the generator's return value.
        """
        fn = owner.__dict__[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(layer)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.exit()
            done = None
            if on_return is not None:
                done = functools.partial(on_return, args)
            return _TimedGen(gen, layer, tracer, done)

        self._patch(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- the benchmark's layer map ------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to.

        Must run before any design is built: components bind methods at
        elaboration (the DRCF hands its bound ``_fetch_config`` to the
        context scheduler), and a wrapper installed later would be missed.
        """
        import repro.apps as apps
        import repro.bus.memory as memory_mod
        import repro.core.drcf as drcf_mod
        import repro.dse.evaluators as evaluators_mod
        import repro.dse.flow as flow_mod
        from repro.bus import Bus, ConfigMemory, Memory
        from repro.core import Drcf, Netlist
        from repro.kernel import Simulator

        counts = self.counts

        def count_checksum(args, kwargs):
            counts["checksum.calls"] += 1
            counts["checksum.words"] += len(args[0])

        def count_scrub(args, kwargs, clean):
            counts["recovery.scrub_checks"] += 1
            counts["recovery.scrub_clean"] += bool(clean)

        def count_fetch(args, fetched):
            drcf, _addr, n_words, context_name = args
            counts["drcf.fetched_words"] += fetched
            if fetched and not drcf.loaded_corrupted(context_name):
                counts["drcf.accepted_words"] += n_words

        def count_lint(args, kwargs, report):
            counts["lint.diagnostics"] += len(report.diagnostics)

        self.span(Netlist, "elaborate", "netlist")
        self.span(Simulator, "initialize", "specialize")
        self.span(Simulator, "run", "kernel")
        self.gen_span(Bus, "read", "bus")
        self.gen_span(Bus, "write", "bus")
        for cls in (Memory, ConfigMemory):
            self.gen_span(cls, "read", "memory")
        self.gen_span(Memory, "write", "memory")
        self.gen_span(Drcf, "_fetch_config", "drcf", on_return=count_fetch)
        # region_checksum is bound by name in two modules; both are wrapped
        # so elaboration-time region checksums and fetch verification count.
        self.span(memory_mod, "region_checksum", "checksum", on_call=count_checksum)
        self.span(drcf_mod, "region_checksum", "checksum", on_call=count_checksum)
        self.span(ConfigMemory, "region_is_clean", "recovery", on_result=count_scrub)
        self.span(apps, "golden_outputs", "apps")
        self.span(evaluators_mod, "golden_outputs", "apps")
        self.span(flow_mod, "golden_outputs", "apps")
        self.span(flow_mod, "run_lint", "lint", on_result=count_lint)
        self.span(flow_mod, "transform_to_drcf", "transform")
