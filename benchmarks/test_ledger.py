"""Behaviour ledger, benchmark half: example stdout and figure tables.

- ``example: <name>`` — the stdout of every script in ``examples/``;
- ``table: <title>`` — every table the figure benchmarks
  (``benchmarks/test_fig*.py``, ``test_sec*.py``) print, with any lines
  the test prints under it.  The Fig. 5 and Fig. 7 sweeps are
  EXPERIMENTS E5 / E7's rows.

Each runs in a fresh interpreter, as a reader would run it.  See
:mod:`tests.ledger` for the rendering and how to update the ledger.

Run:  PYTHONPATH=src python -m pytest benchmarks/test_ledger.py -q
"""

import os
import subprocess
import sys
from pathlib import Path

from tests import ledger

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
FIGURE_TESTS = sorted(
    str(path.relative_to(REPO_ROOT))
    for pattern in ("test_fig*.py", "test_sec*.py")
    for path in (REPO_ROOT / "benchmarks").glob(pattern))

#: tables left out of the ledger: no stable rendering
UNSTABLE = {
    "Fig. 2 — DOTD camera coverage":
        "its GeoJSON byte count follows the camera coordinates, which "
        "data.cameras derives from hash(highway), so PYTHONHASHSEED moves "
        "them",
    "Fig. 4 — pipeline stages (one pass)":
        "its records_per_s column is wall-clock throughput",
}


def _run(args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout


def printed_tables(stdout: str) -> dict:
    """``{title: text}`` for each ``=== title ===`` block in ``stdout``."""
    tables = {}
    title, lines = None, []
    for line in stdout.splitlines() + ["=== end ==="]:
        if line.startswith("=== ") and line.endswith(" ==="):
            if title is not None:
                assert title not in tables, f"two tables titled {title!r}"
                tables[title] = "\n".join(lines).strip()
            title, lines = line[4:-4], []
        else:
            lines.append(line)
    return tables


def test_examples_match_the_ledger():
    ledger.check({f"example: {path.stem}": ledger.digest(
                      ledger.canonical_text(_run([str(path)])))
                  for path in EXAMPLES},
                 prefixes=("example: ",))


def test_figure_tables_match_the_ledger():
    # the terminal reporter is off, so stdout is the tests' own output
    stdout = _run(["-m", "pytest", *FIGURE_TESTS, "-o", "addopts=", "-s",
                   "-p", "no:terminal", "-p", "no:cacheprovider",
                   "--benchmark-disable"])
    tables = printed_tables(stdout)
    assert set(UNSTABLE) <= set(tables), sorted(set(UNSTABLE) - set(tables))
    ledger.check({f"table: {title}": ledger.digest(ledger.canonical_text(text))
                  for title, text in tables.items() if title not in UNSTABLE},
                 prefixes=("table: ",))
