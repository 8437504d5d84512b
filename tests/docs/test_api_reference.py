"""docs/API.md must match the code (regenerate-and-compare)."""

import os
import subprocess
import sys

API_MD = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "API.md")
TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


def _generate():
    sys.path.insert(0, TOOLS)
    try:
        import gen_api_docs

        return gen_api_docs.generate()
    finally:
        sys.path.remove(TOOLS)


class TestApiReference:
    def test_checked_in_reference_is_current(self):
        with open(API_MD, encoding="utf-8") as fh:
            checked_in = fh.read()
        assert checked_in == _generate(), (
            "docs/API.md is stale; regenerate with `python tools/gen_api_docs.py`"
        )

    def test_every_public_name_documented(self):
        text = _generate()
        assert "(undocumented)" not in text, (
            "public names without docstrings:\n"
            + "\n".join(l for l in text.splitlines() if "(undocumented)" in l)
        )

    def test_all_packages_present(self):
        text = _generate()
        for package in ("repro.kernel", "repro.core", "repro.dse", "repro.analysis"):
            assert f"## `{package}`" in text


def test_help_prints_usage_and_writes_nothing(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.abspath(os.path.join(TOOLS, "gen_api_docs.py")), "--help"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gen_api_docs.py [-h] [output]")
    assert list(tmp_path.iterdir()) == []
