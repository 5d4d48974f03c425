"""The behaviour ledger: one sha256 per observable output, in ``ledger.json``.

A change that should not alter behaviour (a deletion, a refactor) proves
it by leaving ``tests/ledger.json`` as it is.  Each entry is the digest of
a canonical rendering of one output:

- ``dump: ...`` / ``decisions: ...`` — ``deterministic_dump()`` and the
  per-row exit decisions of short fixed-seed runs (``tests/test_ledger.py``,
  tier-1);
- ``example: <name>`` — the stdout of each script in ``examples/``;
- ``table: <title>`` — each table the figure benchmarks print, which
  includes EXPERIMENTS E5 / E7's rows (the Fig. 5 and Fig. 7 sweeps)
  (``benchmarks/test_ledger.py``).

Canonical rendering: JSON with sorted keys, and every float written at
:data:`FLOAT_DIGITS` significant digits, so a BLAS summation order that
moves the last bits of a sum cannot flip a digest.  Decisions are hashed
(exit index, prediction), never raw logits.  Printed text is hashed with
every decimal literal re-rendered the same way.

Updating the ledger is a reviewed diff: a failing check prints the new
entries as JSON, ready to paste over the old ones.
"""

import hashlib
import json
import re
from pathlib import Path
from typing import Dict

LEDGER_PATH = Path(__file__).resolve().parent / "ledger.json"

#: significant digits every float is rendered at before hashing
FLOAT_DIGITS = 4

_DECIMAL = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def _round_floats(value):
    if isinstance(value, float):
        return format(value, f".{FLOAT_DIGITS}g")
    if isinstance(value, dict):
        return {str(k): _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def canonical(value) -> str:
    """The rendering a structured output is hashed over."""
    return json.dumps(_round_floats(value), sort_keys=True,
                      separators=(",", ":"))


def canonical_text(text: str) -> str:
    """Printed output with each decimal literal at :data:`FLOAT_DIGITS`."""
    return _DECIMAL.sub(
        lambda m: format(float(m.group()), f".{FLOAT_DIGITS}g"), text)


def digest(rendering: str) -> str:
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()


def load() -> Dict[str, str]:
    return json.loads(LEDGER_PATH.read_text(encoding="utf-8"))


def check(computed: Dict[str, str], prefixes) -> None:
    """Assert ``computed`` equals the ledger's entries under ``prefixes``.

    Entries the ledger holds under those prefixes but ``computed`` lacks
    fail too, so a dropped output cannot pass silently.
    """
    recorded = {name: value for name, value in load().items()
                if name.startswith(tuple(prefixes))}
    if computed == recorded:
        return
    changed = sorted(name for name in set(computed) | set(recorded)
                     if computed.get(name) != recorded.get(name))
    new_table = json.dumps({name: computed.get(name) for name in changed},
                           indent=2, sort_keys=True)
    raise AssertionError(
        f"{len(changed)} ledger entr{'y' if len(changed) == 1 else 'ies'} "
        f"changed (null = no longer produced); new values:\n{new_table}")
