"""Processor and software-task substrate.

A :class:`Processor` is a bus master executing generator-based software
tasks; :class:`TrafficGenerator` produces reproducible background bus
load.
"""

from .processor import Processor, Task
from .trafficgen import TrafficGenerator

__all__ = [
    "Processor",
    "Task",
    "TrafficGenerator",
]
