"""Fault-injection campaigns and dependability evaluation.

The paper models reconfiguration as always succeeding; this layer asks
what happens when it does not.  Four seeded, reproducible fault models
(:mod:`models`) perturb the configuration path through non-invasive hooks
on the memory and the DRCF fetch engine (:mod:`injector`); the DRCF's
recovery policies (:mod:`repro.core.recovery`) fight back; and the
campaign engine (:mod:`campaign`) runs seeded trial grids, classifying
every trial as masked / recovered / sdc / hang and reporting
dependability metrics (coverage, MTTR, recovery overhead).

Everything is opt-in: with no injector attached the simulation pays a
single ``is None`` test per hook site.
"""

from .campaign import (
    CampaignReport,
    OUTCOMES,
    TrialResult,
    build_fault_grid,
    run_campaign,
)
from .injector import FaultInjector
from .models import FAULT_KINDS, FaultSpec
from .scenarios import SCENARIOS, CampaignScenario, scenario_from_file

__all__ = [
    "CampaignReport",
    "CampaignScenario",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "OUTCOMES",
    "SCENARIOS",
    "TrialResult",
    "build_fault_grid",
    "run_campaign",
    "scenario_from_file",
]
