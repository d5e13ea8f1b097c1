"""Write the outputs that a behaviour-preserving change must keep
byte-identical into one directory, so that `diff -r` of the directories of
two checkouts is the whole check.

    PYTHONPATH=src python tools/snapshot.py OUT_DIR

OUT_DIR then holds:
  analyze/<network>.json   analyze(spec).to_dict() without "timings", as
                           the CLI writes JSON, for the networks of
                           `networks()`;
  table/<id>.txt, .json    the four `spinctrl table` reports, as text and
                           as `--json -`;
  verify.txt               `spinctrl verify` without its `elapsed:` and
                           seconds-per-criterion lines, the only ones that
                           vary between runs.

Run it once per checkout, each with its own src on PYTHONPATH, then
`diff -r A B`. The verify pass takes most of the time (about a minute on
2 vCPUs).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from spinctrl import NetworkSpec, StarDescriptor, analyze, make_chain, make_star
from spinctrl.cli import main as cli_main

TABLE_IDS = ("sym", "xx-branch", "heisen-branch", "fig2-examples")


def networks():
    """(name, spec) for 855 networks: 853 with d <= 20 and two with d = 50."""
    for n in range(2, 21):
        for k in range(1, n + 1):
            for kappa in (0.0, 1.0, -1.0, 0.5):
                yield f"chain-{n}-{k}-{kappa}", make_chain(n, "uniform", kappa, (k,))
    stars = [((7, 5, 4), 0.0), ((5, 5, 5, 2), 1.0), ((2,) * 11, 0.0), ((2,) * 8, 0.0),
             ((6,) * 5, 0.0), ((4, 4, 4, 3, 3, 3, 2), 0.0), ((3, 3, 3, 2), 0.0),
             ((4, 4, 4), 0.0), ((2, 2, 2), 1.0), ((5, 4, 3), 0.5)]
    for lengths, kappa in stars:
        yield (f"star-{'-'.join(map(str, lengths))}-{kappa}",
               make_star(StarDescriptor(lengths), kappa))
    # several controls: mirror-symmetric sets, half chains, leaf controls
    for n, controls in ((5, (1, 5)), (6, (1, 6)), (6, (2, 5)), (4, (1, 2)), (6, (1, 2, 3))):
        yield (f"chain-{n}-{'-'.join(map(str, controls))}-0.0",
               make_chain(n, "uniform", 0.0, controls))
    for lengths, controls in (((3, 3, 3, 2), (3, 8)), ((3,) * 5, (3, 5))):
        star = make_star(StarDescriptor(lengths), 0.0)
        yield (f"star-{'-'.join(map(str, lengths))}-controls-{'-'.join(map(str, controls))}",
               replace(star, controls=controls))
    yield "nodes-50-no-edges", NetworkSpec(50, (), 0.0, (1,))
    yield "star-2x49-0.0", make_star(StarDescriptor((2,) * 49), 0.0)


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(list(argv))
    return out.getvalue()


def write_snapshot(root: Path) -> None:
    (root / "analyze").mkdir(parents=True, exist_ok=True)
    (root / "table").mkdir(exist_ok=True)
    for name, spec in networks():
        doc = analyze(spec).to_dict()
        del doc["timings"]
        (root / "analyze" / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for table_id in TABLE_IDS:
        (root / "table" / f"{table_id}.txt").write_text(
            _cli("table", "--id", table_id), encoding="utf-8")
        (root / "table" / f"{table_id}.json").write_text(
            _cli("table", "--id", table_id, "--json", "-"), encoding="utf-8")
    lines = _cli("verify").splitlines(keepends=True)
    (root / "verify.txt").write_text("".join(
        line for line in lines
        if not line.startswith(("elapsed:", "seconds per criterion"))), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_snapshot(Path(sys.argv[1]))
