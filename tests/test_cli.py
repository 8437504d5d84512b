"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_tech_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--tech", "stratix"])

    def test_unknown_accel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--accels", "fir,gpu"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.tech == "morphosys"
        assert args.accels == ["fir", "fft", "viterbi", "xtea"]
        assert args.frames == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "technology presets" in out
        assert "virtex2pro" in out
        assert "Figure 2 bands" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--accels", "fir,xtea", "--tech", "morphosys", "--frames", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig-1a (dedicated)" in out
        assert "fig-1b (morphosys)" in out
        assert "verified against the executable specification" in out

    def test_sweep_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--techs", "asic,morphosys",
                "--workloads", "interleaved",
                "--accels", "fir,xtea",
                "--frames", "1",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DSE sweep" in out
        content = csv_path.read_text()
        assert content.startswith("tech,workload")
        assert "morphosys" in content

    def test_sweep_parallel_cached_check(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--techs", "asic,morphosys",
            "--workloads", "interleaved",
            "--accels", "fir,xtea",
            "--frames", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "2",
            "--check",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert '"schema": "dse-sweep/v1"' in first
        # Second run: byte-identical JSON, now served from the cache.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_resume_journal(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        base = [
            "sweep",
            "--workloads", "interleaved",
            "--accels", "fir,xtea",
            "--frames", "1",
            "--resume", journal,
        ]
        assert main(base + ["--techs", "asic"]) == 0
        assert "evaluated=1" in capsys.readouterr().out
        # Growing the grid resumes the completed point from the journal.
        assert main(base + ["--techs", "asic,morphosys"]) == 0
        out = capsys.readouterr().out
        assert "resumed=1" in out and "evaluated=1" in out

    def test_flow(self, capsys):
        code = main(
            ["flow", "--accels", "fir,fft", "--tech", "varicore", "--frames", "1",
             "--back-annotate-scale", "2.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partitioning recommendation" in out
        assert "figure-1a baseline" in out
        assert "back-annotated" in out

    def test_transform_with_listing(self, capsys):
        code = main(["transform", "--accels", "fir,fft", "--tech", "virtex2pro", "--listing"])
        assert code == 0
        out = capsys.readouterr().out
        assert "def build_top(sim):" in out
        assert "+ drcf1 = Drcf(...)" in out
        assert "class drcf_drcf1" in out
        assert "# context fir:" in out

    def test_experiments_missing_path(self, capsys):
        assert main(["experiments", "--path", "/nonexistent"]) == 2
        assert "not found" in capsys.readouterr().out

    def test_experiments_runs_one_bench(self, capsys):
        import os

        bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
        code = main(
            ["experiments", "--path", bench_dir, "--filter", "e2_figure2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "regenerated tables archived" in out

    def test_deadlock_matrix(self, capsys):
        assert main(["deadlock"]) == 0
        out = capsys.readouterr().out
        assert "deadlock condition" in out
        # Exactly one configuration fails to complete its jobs: blocking +
        # shared bus.
        failing = [line for line in out.splitlines() if "0/2" in line]
        assert len(failing) == 1
        assert "blocking" in failing[0]
        assert out.count("2/2") == 3


class TestLint:
    BROKEN = (
        "from repro.apps.soc import make_multi_fabric_netlist\n"
        "from repro.tech import MORPHOSYS\n"
        "\n"
        "def build_netlist():\n"
        "    return make_multi_fabric_netlist(\n"
        "        {'f1': (('fir',), MORPHOSYS), 'f2': (('fft',), MORPHOSYS)},\n"
        "        config_region_bytes=64,\n"
        "    )\n"
    )
    CLEAN = (
        "from repro.apps.soc import make_baseline_netlist\n"
        "\n"
        "def build_netlist():\n"
        "    return make_baseline_netlist(('fir',))\n"
    )

    def test_lint_broken_file_fails(self, tmp_path, capsys):
        path = tmp_path / "broken_arch.py"
        path.write_text(self.BROKEN)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REP301" in out
        assert "error(s)" in out

    def test_lint_clean_file_passes(self, tmp_path, capsys):
        path = tmp_path / "clean_arch.py"
        path.write_text(self.CLEAN)
        assert main(["lint", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "/nonexistent/arch.py"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_lint_file_without_netlist_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 2
        assert "no build_netlist" in capsys.readouterr().err

    def test_lint_builtin_deadlock_reports_rep310(self, capsys):
        assert main(["lint", "--builtin", "deadlock"]) == 1
        out = capsys.readouterr().out
        assert "REP310" in out
        assert "limitation 3" in out

    def test_lint_builtin_broken_shows_config_overlap(self, capsys):
        assert main(["lint", "--builtin", "broken"]) == 1
        out = capsys.readouterr().out
        assert "REP301" in out
        assert "REP206" in out

    def test_lint_self_check_default(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "reconfigurable" in out

    def test_lint_json_output_parses(self, tmp_path, capsys):
        import json

        path = tmp_path / "broken_arch.py"
        path.write_text(self.BROKEN)
        assert main(["lint", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["errors"] >= 1
        codes = {d["code"] for d in payload[0]["diagnostics"]}
        assert "REP301" in codes

    def test_lint_ignore_suppresses(self, capsys):
        assert main(["lint", "--builtin", "deadlock", "--ignore", "REP310"]) == 0
        capsys.readouterr()

    def test_lint_select_restricts(self, capsys):
        assert main(["lint", "--builtin", "broken", "--select", "REP2"]) == 0
        out = capsys.readouterr().out
        assert "REP301" not in out and "REP206" in out


class TestLintDataflow:
    """The ``--dataflow`` / ``--confirm`` surface and the stable JSON shape."""

    RACY = (
        "from repro.core import Netlist\n"
        "from repro.kernel import Event, Module, Signal, ns\n"
        "\n"
        "class Racy(Module):\n"
        "    def __init__(self, name, parent=None, sim=None):\n"
        "        super().__init__(name, parent=parent, sim=sim)\n"
        "        self.flag = Signal(self.sim, 0, name='flag')\n"
        "        self.go = Event(self.sim, 'go')\n"
        "        self.add_thread(self.writer_a, name='writer_a')\n"
        "        self.add_thread(self.writer_b, name='writer_b')\n"
        "        self.add_thread(self.waiter, name='waiter')\n"
        "\n"
        "    def writer_a(self):\n"
        "        while True:\n"
        "            self.flag.write(1)\n"
        "            yield ns(10)\n"
        "\n"
        "    def writer_b(self):\n"
        "        while True:\n"
        "            self.flag.write(0)\n"
        "            yield ns(10)\n"
        "\n"
        "    def waiter(self):\n"
        "        yield self.go\n"
        "\n"
        "def build_netlist():\n"
        "    netlist = Netlist('net')\n"
        "    netlist.add('dut', Racy)\n"
        "    return netlist\n"
    )

    @pytest.fixture
    def racy_file(self, tmp_path):
        path = tmp_path / "racy_arch.py"
        path.write_text(self.RACY)
        return str(path)

    def test_dataflow_flag_reports_rep4xx(self, racy_file, capsys):
        assert main(["lint", racy_file]) == 0  # REP204 is only a warning
        capsys.readouterr()
        assert main(["lint", racy_file, "--dataflow"]) == 1
        out = capsys.readouterr().out
        assert "REP401" in out and "REP405" in out

    def test_confirm_implies_dataflow_and_tags_findings(self, racy_file, capsys):
        assert main(["lint", racy_file, "--confirm"]) == 1
        out = capsys.readouterr().out
        assert "confirm REP401 net.dut.flag: confirmed" in out
        assert "confirm REP405 net.dut.go: confirmed" in out

    def test_confirm_json_carries_confirmed_field(self, racy_file, capsys):
        import json

        assert main(["lint", racy_file, "--confirm", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_code = {d["code"]: d for d in payload[0]["diagnostics"]}
        assert by_code["REP401"]["confirmed"] is True
        assert by_code["REP405"]["confirmed"] is True
        assert "confirmed" not in by_code["REP204"]  # not a cross-check target

    def test_json_summary_block_and_sort_order(self, racy_file, capsys):
        import json

        assert main(["lint", racy_file, "--dataflow", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        entry = payload[0]
        summary = entry["summary"]
        assert set(summary) == {"error", "warning", "info"}
        assert summary["error"] == entry["errors"]
        assert summary["warning"] == entry["warnings"]
        keys = [(d["code"], d["location"]) for d in entry["diagnostics"]]
        assert keys == sorted(keys)

    def test_json_output_is_deterministic(self, racy_file, capsys):
        assert main(["lint", racy_file, "--dataflow", "--json"]) == 1
        first = capsys.readouterr().out
        assert main(["lint", racy_file, "--dataflow", "--json"]) == 1
        assert capsys.readouterr().out == first

    def test_builtin_templates_dataflow_clean(self, capsys):
        assert main(["lint", "--dataflow"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


class TestLintCfg:
    """The ``--cfg`` layer flag and the ``--explain`` registry lookup."""

    SPINNY = (
        "from repro.core import Netlist\n"
        "from repro.kernel import Module, Signal\n"
        "\n"
        "class Spinny(Module):\n"
        "    def __init__(self, name, parent=None, sim=None):\n"
        "        super().__init__(name, parent=parent, sim=sim)\n"
        "        self.req = Signal(self.sim, False, name='req')\n"
        "        self.add_thread(self.spin, name='spin')\n"
        "\n"
        "    def spin(self):\n"
        "        while True:\n"
        "            if self.req.read():\n"
        "                yield self.req.negedge\n"
        "\n"
        "def build_netlist():\n"
        "    netlist = Netlist('net')\n"
        "    netlist.add('dut', Spinny)\n"
        "    return netlist\n"
    )

    @pytest.fixture
    def spinny_file(self, tmp_path):
        path = tmp_path / "spinny_arch.py"
        path.write_text(self.SPINNY)
        return str(path)

    def test_cfg_flag_reports_rep5xx(self, spinny_file, capsys):
        assert main(["lint", spinny_file]) == 0
        capsys.readouterr()
        main(["lint", spinny_file, "--cfg"])
        out = capsys.readouterr().out
        assert "REP501" in out

    def test_cfg_json_carries_layer_field(self, spinny_file, capsys):
        import json

        main(["lint", spinny_file, "--cfg", "--json"])
        payload = json.loads(capsys.readouterr().out)
        layers = {d["code"]: d["layer"] for d in payload[0]["diagnostics"]}
        assert layers.get("REP501") == "cfg"
        keys = [(d["code"], d["location"]) for d in payload[0]["diagnostics"]]
        assert keys == sorted(keys)

    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "REP501"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REP501 — ")
        assert "layer: cfg" in out
        assert "severity: warning" in out
        assert "example:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "rep204"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REP204 — ")

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--explain", "REP999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code" in err
        assert "REP501" in err  # the known-codes hint


class TestLintInterproc:
    """The ``--interproc`` layer flag."""

    def test_interproc_flag_reports_rep601_on_deadlock_builtin(self, capsys):
        assert main(["lint", "--builtin", "deadlock", "--interproc"]) == 1
        out = capsys.readouterr().out
        assert "REP601" in out
        assert "wait-for cycle" in out
        assert "REP310" in out  # the runtime/netlist cross-reference

    def test_interproc_silent_without_flag(self, capsys):
        main(["lint", "--builtin", "deadlock", "--dataflow", "--cfg"])
        out = capsys.readouterr().out
        assert "REP601" not in out

    def test_builtin_templates_interproc_clean(self, capsys):
        assert main(["lint", "--interproc"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_interproc_json_carries_layer_field(self, capsys):
        import json

        main(["lint", "--builtin", "deadlock", "--interproc", "--json"])
        payload = json.loads(capsys.readouterr().out)
        layers = {d["code"]: d["layer"] for d in payload[0]["diagnostics"]}
        assert layers.get("REP601") == "interproc"

    @pytest.mark.parametrize("code", ["REP601", "REP602", "REP603", "REP604"])
    def test_explain_interproc_rules(self, code, capsys):
        assert main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{code} — ")
        assert "layer: interproc" in out
        assert "example:" in out
