"""``repro.cluster`` reports what it did: it never imports the figure layer.

Time models (``repro.analysis``'s ``DeviceModel``) are applied by the
benches that print them, so a fleet's results carry stats and nothing
simulated.  This walks every module of the package with ``ast`` and
fails on any import of ``repro.analysis``, absolute or relative.
"""

import ast
from pathlib import Path

import pytest

import repro.cluster

PACKAGE = ["repro", "cluster"]
MODULES = sorted(Path(repro.cluster.__file__).parent.glob("*.py"))


def imported_modules(source: str) -> list[str]:
    """Every module a ``repro.cluster`` module's ``source`` imports (and
    every name it imports from one), resolved to absolute names."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = PACKAGE[: len(PACKAGE) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_relative_imports_resolve():
    source = (
        "from ..analysis.timing import DeviceModel\n"
        "from . import ring\n"
        "import repro.analysis\n"
    )
    assert imported_modules(source) == [
        "repro.analysis.timing",
        "repro.analysis.timing.DeviceModel",
        "repro.cluster",
        "repro.cluster.ring",
        "repro.analysis",
    ]


def test_walks_every_module():
    assert {p.name for p in MODULES} >= {"__init__.py", "fleet.py", "rebalance.py", "router.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_of_the_analysis_layer(path):
    offending = [
        name
        for name in imported_modules(path.read_text())
        if name == "repro.analysis" or name.startswith("repro.analysis.")
    ]
    assert not offending, f"{path.name} imports {offending}"
