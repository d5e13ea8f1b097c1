"""`import spinctrl` loads numpy and the package's own modules, nothing more.

Interpreter start and import are most of a short command's set-up time, so
a module that starts importing a heavy dependency, or the acceptance suite,
at package import shows up here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_AT_IMPORT = ("spinctrl.acceptance", "scipy", "sympy", "networkx", "hypothesis")
# what `import spinctrl` loads beyond `import numpy` (CPython 3.11): a new
# module-level import fails here instead of showing up as set-up time
BEYOND_NUMPY = {
    "__future__", "_decimal", "_json", "copy", "dataclasses", "decimal", "fractions",
    "json", "json.decoder", "json.encoder", "json.scanner",
    "spinctrl", "spinctrl._exact", "spinctrl.analytic", "spinctrl.hamiltonian",
    "spinctrl.lie", "spinctrl.network", "spinctrl.reference", "spinctrl.report",
    "spinctrl.symmetry"}


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_import_loads_no_heavy_module():
    code = ("import json, sys, spinctrl; "
            f"print(json.dumps([m for m in {NOT_AT_IMPORT!r} if m in sys.modules]))")
    assert _run(code) == []


def test_import_loads_pinned_modules():
    code = ("import sys, numpy; before = set(sys.modules); import spinctrl; "
            "new = sorted(set(sys.modules) - before); import json; print(json.dumps(new))")
    assert set(_run(code)) == BEYOND_NUMPY
