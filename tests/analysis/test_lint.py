"""The static model linter: every rule code, the engine, and suppression."""

import pytest

from repro.analysis.lint import (
    DEADLOCK_RULE_CODE,
    RULES,
    Diagnostic,
    LintReport,
    Rule,
    all_rule_codes,
    run_lint,
)
from repro.apps.accelerators import FirAccelerator
from repro.apps.soc import (
    make_baseline_netlist,
    make_multi_fabric_netlist,
    make_reconfigurable_netlist,
)
from repro.bus import Bus, BusSlaveIf, Memory
from repro.core import Netlist, Ref8Drcf, transform_to_drcf
from repro.cpu import Processor
from repro.kernel import Module, Port, Signal, Simulator
from repro.tech import MORPHOSYS, VIRTEX2PRO


def codes_of(report):
    return report.codes()


# ---------------------------------------------------------------------------
# Acceptance: the two headline architectures the linter must catch
# ---------------------------------------------------------------------------

class TestAcceptance:
    def test_e7_deadlock_architecture_produces_rep310_error(self):
        netlist, _ = make_reconfigurable_netlist(bus_protocol="blocking")
        report = run_lint(netlist)
        diags = report.by_code("REP310")
        assert diags, report.render()
        assert diags[0].severity == "error"
        assert "limitation 3" in diags[0].message
        assert report.has_errors

    def test_overlapping_drcf_config_regions_produce_rep301_error(self):
        netlist, _ = make_multi_fabric_netlist(
            {"f1": (("fir",), MORPHOSYS), "f2": (("fft",), MORPHOSYS)},
            config_region_bytes=64,
        )
        report = run_lint(netlist)
        diags = report.by_code("REP301")
        assert diags, report.render()
        assert diags[0].severity == "error"
        assert "overlap" in diags[0].message
        assert report.has_errors

    def test_at_least_twelve_rules_registered(self):
        assert len(all_rule_codes()) >= 12

    def test_deadlock_rule_code_constant(self):
        assert DEADLOCK_RULE_CODE == "REP310"
        assert DEADLOCK_RULE_CODE in RULES


# ---------------------------------------------------------------------------
# Clean templates stay clean
# ---------------------------------------------------------------------------

class TestCleanTemplates:
    def test_baseline_template(self):
        netlist, _ = make_baseline_netlist()
        report = run_lint(netlist)
        assert report.diagnostics == [], report.render()

    def test_reconfigurable_template(self):
        netlist, _ = make_reconfigurable_netlist()
        report = run_lint(netlist)
        assert report.diagnostics == [], report.render()

    def test_dedicated_config_bus_template(self):
        netlist, _ = make_reconfigurable_netlist(dedicated_config_bus=True)
        report = run_lint(netlist)
        assert report.diagnostics == [], report.render()

    def test_multi_fabric_default_regions(self):
        netlist, _ = make_multi_fabric_netlist(
            {"f1": (("fir",), MORPHOSYS), "f2": (("fft",), VIRTEX2PRO)}
        )
        report = run_lint(netlist)
        assert report.diagnostics == [], report.render()


# ---------------------------------------------------------------------------
# Netlist-layer rules
# ---------------------------------------------------------------------------

def cpu_and_memory_netlist():
    netlist = Netlist("top")
    netlist.add("bus", Bus, clock_freq_hz=100e6)
    netlist.add("cpu", Processor, master_of="bus")
    netlist.add("mem", Memory, slave_of="bus", base=0, size_words=64)
    return netlist


def dangle_both_references(netlist):
    netlist.component("cpu").master_of = "ghost"
    netlist.component("mem").slave_of = "phantom"


def add_same_bus_slave_at_the_same_base(netlist):
    netlist.add("mem2", Memory, slave_of="bus", base=0, size_words=4)


def add_second_bus_slave_at_the_same_base(netlist):
    netlist.add("bus2", Bus, clock_freq_hz=100e6)
    netlist.add("mem2", Memory, slave_of="bus2", base=0, size_words=4)


class TestNetlistRules:
    @pytest.mark.parametrize(
        "edit, expected",
        [
            (None, []),
            (
                dangle_both_references,
                [
                    ("REP102", "top.cpu", "master_of references unknown component 'ghost'"),
                    ("REP102", "top.mem", "slave_of references unknown component 'phantom'"),
                ],
            ),
            (
                add_same_bus_slave_at_the_same_base,
                [
                    (
                        "REP104",
                        "top.mem",
                        "address range [0x0, 0xff] overlaps [0x0, 0xf] of 'mem2' on bus 'bus'",
                    ),
                ],
            ),
            (add_second_bus_slave_at_the_same_base, []),
        ],
        ids=["clean", "two_dangling_refs", "one_base_one_bus", "one_base_two_buses"],
    )
    def test_rep102_rep104_cases(self, edit, expected):
        """Without elaborating: a clean netlist, two dangling references,
        and two slaves at one base, which overlap on one bus and are fine
        on different buses."""
        netlist = cpu_and_memory_netlist()
        if edit is not None:
            edit(netlist)
        report = run_lint(netlist, elaborate=False, select=["REP102", "REP104"])
        got = [(d.code, d.location, d.message) for d in report.diagnostics]
        assert got == expected, report.render()

    def test_rep001_elaboration_failure(self):
        def boom(name, parent=None, sim=None):
            raise RuntimeError("constructor exploded")

        netlist = Netlist()
        netlist.add("bad", boom)
        report = run_lint(netlist)
        diags = report.by_code("REP001")
        assert diags and "constructor exploded" in diags[0].message

    def test_rep101_bad_name_and_uncallable_factory(self):
        netlist = Netlist()
        netlist.add("dotted.name", Bus)
        spec = netlist.add("uncallable", Bus)
        spec.factory = 42
        report = run_lint(netlist, elaborate=False)
        messages = " | ".join(d.message for d in report.by_code("REP101"))
        assert "dotted.name" in messages
        assert "not callable" in messages

    def test_rep102_dangling_reference(self):
        netlist = Netlist()
        netlist.add("mem", Memory, slave_of="ghost_bus", base=0, size_words=16)
        report = run_lint(netlist, elaborate=False)
        diags = report.by_code("REP102")
        assert diags and "ghost_bus" in diags[0].message

    def test_rep103_reference_target_not_a_bus(self):
        netlist = Netlist()
        netlist.add("system_bus", Bus, protocol="split")
        netlist.add("mem", Memory, slave_of="system_bus", base=0, size_words=16)
        netlist.add("fir", FirAccelerator, slave_of="mem", base=0x1000)
        netlist.add("cpu", Processor, master_of="mem")
        report = run_lint(netlist, elaborate=False)
        messages = " | ".join(d.message for d in report.by_code("REP103"))
        assert "register_slave" in messages  # slave_of a memory
        assert "BusMasterIf" in messages  # master_of a memory

    def test_rep104_static_overlap_detected_without_elaborating(self):
        netlist, _ = make_baseline_netlist(("fir", "fft"))
        netlist.component("fft").kwargs["base"] = netlist.component("fir").kwargs["base"]
        report = run_lint(netlist, elaborate=False)
        diags = report.by_code("REP104")
        assert diags and "overlaps" in diags[0].message

    def test_rep105_slave_without_slave_interface(self):
        netlist = Netlist()
        netlist.add("system_bus", Bus, protocol="split")
        netlist.add("cpu", Processor, slave_of="system_bus")
        report = run_lint(netlist, elaborate=False)
        diags = report.by_code("REP105")
        assert diags and "BusSlaveIf" in diags[0].message

    def test_rep310_warning_for_generic_component(self):
        netlist = Netlist()
        netlist.add("system_bus", Bus)  # protocol defaults to blocking
        netlist.add(
            "mem", Memory, slave_of="system_bus", master_of="system_bus",
            base=0, size_words=16,
        )
        report = run_lint(netlist, elaborate=False)
        diags = report.by_code("REP310")
        assert diags and diags[0].severity == "warning"

    def test_rep310_split_protocol_is_clean(self):
        netlist, _ = make_reconfigurable_netlist(bus_protocol="split")
        assert run_lint(netlist).by_code("REP310") == []

    def test_rep310_ref8_baseline_exempt(self):
        netlist, info = make_baseline_netlist(("fir",), bus_protocol="blocking")
        result = transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
            drcf_cls=Ref8Drcf,
        )
        report = run_lint(result.netlist)
        assert report.by_code("REP310") == [], report.render()


# ---------------------------------------------------------------------------
# Transform-layer rules
# ---------------------------------------------------------------------------

class TestTransformRules:
    @pytest.fixture
    def baseline(self):
        return make_baseline_netlist(("fir", "fft"))

    def test_rep304_unknown_candidate_and_memory(self, baseline):
        netlist, _ = baseline
        report = run_lint(
            netlist, candidates=["fir", "ghost"], config_memory="nomem",
            elaborate=False,
        )
        messages = " | ".join(d.message for d in report.by_code("REP304"))
        assert "ghost" in messages and "nomem" in messages

    def test_rep304_duplicate_candidates(self, baseline):
        netlist, _ = baseline
        report = run_lint(netlist, candidates=["fir", "fir"], elaborate=False)
        assert any("2 times" in d.message for d in report.by_code("REP304"))

    def test_rep304_candidates_on_different_buses(self, baseline):
        netlist, _ = baseline
        netlist.add("bus2", Bus, protocol="split")
        netlist.component("fft").slave_of = "bus2"
        report = run_lint(netlist, candidates=["fir", "fft"], elaborate=False)
        assert any("limitation 1" in d.message for d in report.by_code("REP304"))

    def test_rep304_candidate_not_a_slave(self, baseline):
        netlist, _ = baseline
        netlist.component("fir").slave_of = None
        report = run_lint(netlist, candidates=["fir"], elaborate=False)
        assert any("not a slave" in d.message for d in report.by_code("REP304"))

    def test_rep305_rep306_candidate_missing_interface(self, baseline):
        netlist, _ = baseline
        report = run_lint(netlist, candidates=["fir", "cpu"], elaborate=False)
        assert any("get_low_add" in d.message for d in report.by_code("REP305"))
        assert any("BusSlaveIf" in d.message for d in report.by_code("REP306"))

    def test_valid_candidates_pass(self, baseline):
        netlist, _ = baseline
        report = run_lint(
            netlist, candidates=["fir", "fft"], config_memory="cfgmem",
        )
        assert report.diagnostics == [], report.render()


# ---------------------------------------------------------------------------
# Design-layer rules (elaborated hierarchy)
# ---------------------------------------------------------------------------

class _TwoWriters(Module):
    """Deliberate REP204 trigger: two processes writing one signal."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.flag = Signal(self.sim, False, name=f"{self.full_name}.flag")
        self.add_thread(self.raiser)
        self.add_thread(self.clearer)

    def raiser(self):
        self.flag.write(True)
        yield self.event("a")

    def clearer(self):
        self.flag.write(False)
        yield self.event("b")


class TestDesignRules:
    def test_rep201_unbound_port(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        Port(top, name="dangling")
        report = run_lint(design=top)
        diags = report.by_code("REP201")
        assert diags and diags[0].location == "top.dangling"

    def test_rep201_optional_port_skipped(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        Port(top, name="maybe", optional=True)
        assert run_lint(design=top).by_code("REP201") == []

    def test_rep201_chain_to_unbound_port(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        child = Module("child", parent=top)
        inner = Port(child, name="inner")
        outer = Port(top, name="outer")
        outer.bind(inner)
        report = run_lint(design=top)
        assert any("chains to unbound" in d.message for d in report.by_code("REP201"))

    def test_rep202_binding_cycle(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        a = Port(top, name="a")
        b = Port(top, name="b")
        a.bind(b)
        b.bind(a)
        report = run_lint(design=top)
        assert any("cycle" in d.message for d in report.by_code("REP202"))

    def test_rep203_interface_mismatch_through_chain(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        typed = Port(top, BusSlaveIf, name="typed")
        untyped = Port(top, name="untyped")
        typed.bind(untyped)
        untyped.bind(object())  # not a BusSlaveIf
        report = run_lint(design=top)
        diags = report.by_code("REP203")
        assert diags and "BusSlaveIf" in diags[0].message

    def test_rep204_multi_writer_signal_warning(self):
        sim = Simulator()
        top = _TwoWriters("top", sim=sim)
        report = run_lint(design=top)
        diags = report.by_code("REP204")
        assert diags and diags[0].severity == "warning"
        assert "2 processes" in diags[0].message
        assert diags[0].location == "top.flag"

    def test_rep205_overlapping_slaves_on_live_bus(self):
        sim = Simulator()
        bus = Bus("bus", sim=sim)
        m1 = Memory("m1", parent=bus, base=0x0, size_words=16)
        m2 = Memory("m2", parent=bus, base=0x10, size_words=16)
        bus._slaves.extend([m1, m2])  # bypass register_slave's guard
        report = run_lint(design=bus)
        assert any("overlap" in d.message for d in report.by_code("REP205"))

    def test_rep206_empty_bus_info(self):
        sim = Simulator()
        bus = Bus("bus", sim=sim)
        report = run_lint(design=bus)
        diags = report.by_code("REP206")
        assert diags and diags[0].severity == "info"


# ---------------------------------------------------------------------------
# DRCF-layer rules (elaborated fabrics)
# ---------------------------------------------------------------------------

class TestDrcfRules:
    @pytest.fixture
    def design(self):
        netlist, _ = make_reconfigurable_netlist(("fir", "fft"))
        return netlist.elaborate(Simulator())

    def test_rep302_region_with_no_backing_slave(self, design):
        drcf = design["drcf1"]
        drcf.contexts[0].params.config_addr = 0x9000_0000
        report = run_lint(design=design)
        assert any("no slave" in d.message for d in report.by_code("REP302"))

    def test_rep302_region_extends_past_memory_end(self, design):
        drcf = design["drcf1"]
        mem_end = design["cfgmem"].get_high_add()
        drcf.contexts[0].params.config_addr = mem_end - 3
        report = run_lint(design=design)
        assert any("extends past" in d.message for d in report.by_code("REP302"))

    def test_rep303_mutated_context_parameters(self, design):
        drcf = design["drcf1"]
        drcf.contexts[0].params.size_bytes = 0
        drcf.contexts[1].params.config_addr = -4
        report = run_lint(design=design)
        messages = " | ".join(d.message for d in report.by_code("REP303"))
        assert "not positive" in messages
        assert "negative" in messages

    def test_clean_design_has_no_drcf_findings(self, design):
        report = run_lint(design=design)
        assert report.diagnostics == [], report.render()


# ---------------------------------------------------------------------------
# Engine: selection, suppression, report rendering, registry
# ---------------------------------------------------------------------------

class TestEngine:
    @pytest.fixture
    def broken(self):
        netlist, _ = make_multi_fabric_netlist(
            {"f1": (("fir",), MORPHOSYS), "f2": (("fft",), MORPHOSYS)},
            config_region_bytes=64,
        )
        return netlist

    def test_ignore_suppresses_by_prefix(self, broken):
        report = run_lint(broken, ignore="REP3")
        assert report.by_code("REP301") == []

    def test_select_restricts_by_prefix(self, broken):
        report = run_lint(broken, select="REP3")
        assert report.codes() == ["REP301"]

    def test_ignore_wins_over_select(self, broken):
        report = run_lint(broken, select="REP3", ignore="REP301")
        assert report.diagnostics == []

    def test_select_accepts_iterables(self, broken):
        report = run_lint(broken, select=["REP301", "REP104"])
        assert report.codes() == ["REP301"]

    def test_render_contains_code_hint_and_summary(self, broken):
        text = run_lint(broken).render()
        assert "REP301" in text
        assert "hint:" in text
        assert "error(s)" in text

    def test_clean_render(self):
        assert "clean" in LintReport([]).render()

    def test_to_dicts_round_trip(self, broken):
        payload = run_lint(broken).to_dicts()
        assert payload and set(payload[0]) == {
            "code", "severity", "message", "location", "hint", "layer"
        }
        assert payload[0]["layer"] == "core"

    def test_severity_partitions(self, broken):
        report = run_lint(broken)
        assert len(report.diagnostics) == (
            len(report.errors) + len(report.warnings) + len(report.infos)
        )

    def test_duplicate_rule_code_rejected(self):
        from repro.analysis.lint import register_rule

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Rule("REP101", "netlist", "error", "dup", lambda ctx: ()))

    def test_all_codes_have_summaries(self):
        for code, entry in RULES.items():
            assert entry.summary, f"rule {code} has no summary"

    def test_diagnostic_render_single_line_without_hint(self):
        diag = Diagnostic("REP999", "error", "boom", "top.x")
        assert diag.render() == "REP999 error top.x: boom"

    def test_no_elaborate_skips_design_layers(self, broken):
        report = run_lint(broken, elaborate=False)
        assert report.by_code("REP301") == []  # needs the elaborated fabric


# ---------------------------------------------------------------------------
# Dataflow layer: select/ignore interplay and severity partitioning
# ---------------------------------------------------------------------------

class TestDataflowSelection:
    """The REP4xx rules obey the same suppression engine as every layer:
    ``ignore`` beats ``select``, even when ``select`` is more specific."""

    @pytest.fixture
    def racy(self):
        from .test_dataflow import Racy, _single

        return _single(Racy)

    @pytest.fixture
    def noisy(self):
        # carries REP402 + REP404 (BadMethod) and REP403 (Looping)
        from .test_dataflow import BadMethod, Looping

        netlist = Netlist("net")
        netlist.add("bad", BadMethod)
        netlist.add("loop", Looping)
        return netlist

    def test_dataflow_rules_need_opt_in(self, racy):
        report = run_lint(racy, select="REP4")
        assert report.diagnostics == []  # layer is off by default

    def test_ignore_wins_over_more_specific_select(self, noisy):
        report = run_lint(noisy, dataflow=True, select="REP4", ignore="REP403")
        codes = report.codes()
        assert "REP403" not in codes
        assert "REP402" in codes and "REP404" in codes

    def test_broad_ignore_beats_narrow_select(self, racy):
        report = run_lint(racy, dataflow=True, select="REP401", ignore="REP4")
        assert report.diagnostics == []

    def test_warning_rules_partition_as_warnings(self, noisy):
        report = run_lint(noisy, dataflow=True, select=["REP402", "REP403"])
        assert report.diagnostics, report.render()
        assert report.warnings == report.diagnostics
        assert not report.has_errors

    def test_error_rules_partition_as_errors(self, racy):
        report = run_lint(racy, dataflow=True, select="REP401")
        assert report.errors and not report.warnings
        assert report.has_errors

    def test_rep4_codes_registered_in_dataflow_layer(self):
        for code in ("REP401", "REP402", "REP403", "REP404", "REP405", "REP406"):
            assert code in RULES
            assert RULES[code].layer == "dataflow"


# ---------------------------------------------------------------------------
# Kernel introspection helpers the linter is built on
# ---------------------------------------------------------------------------

class TestIntrospectionHelpers:
    def test_binding_chain_bound(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        inner = Port(top, name="inner")
        outer = Port(top, name="outer")
        target = Memory("mem", parent=top, base=0, size_words=16)
        outer.bind(inner)
        inner.bind(target)
        chain, impl = outer.binding_chain()
        assert [p.name for p in chain] == ["outer", "inner"]
        assert impl is target

    def test_binding_chain_never_raises_on_cycle(self):
        sim = Simulator()
        top = Module("top", sim=sim)
        a, b = Port(top, name="a"), Port(top, name="b")
        a.bind(b)
        b.bind(a)
        chain, impl = a.binding_chain()
        assert impl is None and len(chain) == 2

    def test_signals_of_and_processes_of(self):
        from repro.kernel import processes_of, signals_of

        sim = Simulator()
        mod = _TwoWriters("mod", sim=sim)
        assert set(signals_of(mod)) == {"flag"}
        procs = processes_of(mod)
        assert len(procs) == 2
        assert all(callable(p.fn) for p in procs)

    def test_deadlock_report_cross_references_static_rule(self):
        from repro.analysis import DeadlockReport

        report = DeadlockReport(deadlocked=True)
        assert DEADLOCK_RULE_CODE in report.render()
