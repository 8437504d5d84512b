#!/usr/bin/env python3
"""Generate docs/API.md from the public API's docstrings.

Walks every ``repro`` subpackage's ``__all__``, collecting each public
name's kind and first docstring line into a markdown reference.  The test
``tests/docs/test_api_reference.py`` regenerates the document and compares
it with the checked-in copy, so the reference cannot go stale.

Run:  python tools/gen_api_docs.py [output]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys

PACKAGES = [
    "repro.kernel",
    "repro.parallel",
    "repro.bus",
    "repro.cpu",
    "repro.core",
    "repro.tech",
    "repro.apps",
    "repro.apps.accelerators",
    "repro.dse",
    "repro.analysis",
    "repro.faults",
]


def _kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if isinstance(obj, type(lambda: None)):
        return "function"
    return "constant"


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    line = doc.strip().splitlines()[0].strip()
    return line.rstrip(".") + "." if line else "(undocumented)"


def generate() -> str:
    """Build the full API.md text."""
    lines = [
        "# API reference",
        "",
        "Auto-generated from docstrings by `tools/gen_api_docs.py`; checked",
        "for freshness by `tests/docs/test_api_reference.py`.  One row per",
        "public name (each package's `__all__`).",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        doc = inspect.getdoc(module) or ""
        summary = doc.strip().splitlines()[0] if doc else ""
        lines.append(f"## `{package_name}`")
        if summary:
            lines.append("")
            lines.append(summary)
        lines.append("")
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name in getattr(module, "__all__", []):
            # A decorated function (e.g. a memoized one) is classified by
            # the function it wraps.
            obj = inspect.unwrap(getattr(module, name))
            kind = _kind(obj)
            summary = _first_line(obj) if kind != "constant" else "constant value."
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
    return "\n".join(lines) + ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", nargs="?", default="docs/API.md",
                        help="file to write (default: docs/API.md)")
    output = parser.parse_args().output
    text = generate()
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {output} ({text.count(chr(10)) + 1} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
