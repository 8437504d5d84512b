"""``repro.dse`` loads each submodule on first use of one of its names."""

import importlib
import os
import subprocess
import sys

import pytest

import repro.dse as dse

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def test_soc_run_and_table_load_only_their_own_modules():
    """A Figure-1 SoC run and a result table load neither the flow, the
    linter nor the sweep machinery."""
    probe = (
        "import sys\n"
        "from repro.dse import evaluate_architecture, format_table\n"
        "evaluate_architecture(dict(tech='asic', accels=('fir',), n_frames=1))\n"
        "format_table([])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.dse.') or m.startswith('repro.analysis')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "['repro.dse.evaluators', 'repro.dse.report']"


def test_every_public_name_has_a_module():
    assert set(dse._EXPORTS) == set(dse.__all__)


@pytest.mark.parametrize("name", dse.__all__)
def test_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"repro.dse.{dse._EXPORTS[name]}")
    assert getattr(dse, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(dse.__all__) <= set(dir(dse))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="repro.dse"):
        dse.no_such_name
