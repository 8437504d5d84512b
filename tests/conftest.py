"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.kernel import Simulator

# ``pytest --hypothesis-profile=ci`` (tools/ci_check.sh) explores many more
# examples than the default profile the tier-1 run uses.
settings.register_profile("ci", max_examples=1000, deadline=None)


class Box:
    """Captures the return value of a generator run as a process."""

    def __init__(self) -> None:
        self.value = None
        self.done = False


def drive(sim: Simulator, gen_fn, name: str = "driver") -> Box:
    """Spawn ``gen_fn`` (zero-arg generator function) and capture its return.

    Call ``sim.run()`` afterwards; the box then holds the return value.
    """
    box = Box()

    def runner():
        box.value = yield from gen_fn()
        box.done = True

    sim.spawn(name, runner)
    return box


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator per test."""
    return Simulator()
