"""``src/`` needs nothing beyond the standard library: importing every
package in a fresh interpreter loads no third-party module."""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
PACKAGES = (
    "repro.apps",
    "repro.bus",
    "repro.core",
    "repro.cpu",
    "repro.dse",
    "repro.faults",
    "repro.analysis",
    "repro.kernel",
    "repro.tech",
    "repro.cli",
)
# Diffing sys.modules leaves out what the interpreter and ``site`` loaded
# before the imports.
PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_packages_import_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *PACKAGES],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(done.stdout))
    assert "repro" in loaded
    assert sorted(loaded - sys.stdlib_module_names - {"repro"}) == []
