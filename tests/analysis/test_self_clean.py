"""Self-check: the shipped source tree satisfies its own lint rules.

This is the acceptance gate from the linter's point of view — if a
change reintroduces a bare ``random`` call, a ``np.random.default_rng``
fallback, or a malformed metric name anywhere under ``src/``, this test
fails before CI's dedicated lint job even runs.
"""

import io
import tokenize
from pathlib import Path

from repro.analysis import analyze_paths, registered_rule_ids
from repro.analysis.context import NOQA_RE
from repro.analysis.engine import collect_files

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: every tree the lint job covers
LINTED_ROOTS = ["src", "tests", "benchmarks", "examples"]

DETERMINISM_RULES = ["DET101", "DET102", "DET103", "DET104", "DET105"]


def test_src_clean_for_determinism_rules():
    findings, _ = analyze_paths([str(SRC)], select=DETERMINISM_RULES)
    assert findings == [], "\n".join(
        f"{f.path}:{f.line} {f.rule}: {f.message}" for f in findings)


def test_src_clean_for_all_rules():
    findings, _ = analyze_paths([str(SRC)])
    assert findings == [], "\n".join(
        f"{f.path}:{f.line} {f.rule}: {f.message}" for f in findings)


def noqa_codes(source):
    """(line, code) for every rule id a ``# repro: noqa[...]`` comment names.

    Only real comments count: a noqa quoted inside a string (a rule
    fixture, a docstring) suppresses nothing in this tree.
    """
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = NOQA_RE.search(token.string) \
            if token.type == tokenize.COMMENT else None
        if match and match.group("codes"):
            for code in match.group("codes").split(","):
                if code.strip():
                    yield token.start[0], code.strip().upper()


def test_every_noqa_names_a_registered_rule():
    # noqa is the only suppression, so a comment naming a retired or
    # misspelt rule is a stale entry that silences nothing
    assert list(noqa_codes("x = 1  # repro: noqa[DET101, nope]\n"
                           "s = '# repro: noqa[NOPE]'\n")) == [
        (1, "DET101"), (1, "NOPE")]
    known = set(registered_rule_ids())
    stale = []
    for path in collect_files([str(REPO_ROOT / root)
                               for root in LINTED_ROOTS]):
        source = path.read_text(encoding="utf-8")
        if NOQA_RE.search(source):
            stale += [f"{path}:{line} {code}"
                      for line, code in noqa_codes(source)
                      if code not in known]
    assert stale == []
