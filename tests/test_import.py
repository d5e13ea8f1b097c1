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


def test_import_loads_no_heavy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import json, sys, spinctrl; "
            f"print(json.dumps([m for m in {NOT_AT_IMPORT!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == []
