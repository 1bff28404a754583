"""The closed forms and the oracles share no code: read from the imports.

The verdict route (`secder`, `tilt`) and the oracle route (`oracle`) check
each other only while neither imports the other, and the test-side
reference forms check the closed form only while they stay clear of the
oracle too.  The oracle imports no other module of the package at all: what
it needs of the certificate (the probe's steering pattern) it gets as data.
"""
from __future__ import annotations

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kyfan_tilt"


def imported_modules(path, package="kyfan_tilt"):
    """Fully qualified names of the modules a file imports, counting each
    `from M import a` as importing both M and M.a (a may be a module)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_resolves_relative_and_absolute_forms(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from . import oracle\nfrom .secder import sandwich\nimport kyfan_tilt.tilt\n")
    assert {"kyfan_tilt.oracle", "kyfan_tilt.secder", "kyfan_tilt.tilt"} <= imported_modules(f)


def test_closed_forms_and_oracles_share_no_code():
    crossings = sorted(
        f"oracle -> {name}"
        for name in imported_modules(PACKAGE / "oracle.py")
        if name.split(".")[0] == "kyfan_tilt"
    )
    for src, banned in (
        ("secder", ("oracle",)),
        ("tilt", ("oracle",)),
    ):
        found = imported_modules(PACKAGE / f"{src}.py")
        crossings += [f"{src} -> {b}" for b in banned if f"kyfan_tilt.{b}" in found]
    if "kyfan_tilt.oracle" in imported_modules(TESTS / "reference.py"):
        crossings.append("reference -> oracle")
    assert crossings == []
