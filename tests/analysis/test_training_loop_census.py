"""Census guard: the tree has one training loop.

Every model trains through :func:`repro.nn.fit`, so a ``.backward()``
call in ``src/``, ``benchmarks/`` or ``examples/`` may sit only in the
``repro.nn`` defs of :data:`NN_TRAINERS` (the loop and the two
Sec. II-C-1 distributed regimes) or in a module on :data:`KEEP`, one
reason each.  A hand-copied shuffle / step / epoch-mean loop therefore
fails here; route it through ``fit`` instead.  A ``KEEP`` entry that
stops calling ``.backward()`` must leave the list.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.engine import collect_files

REPO_ROOT = Path(__file__).resolve().parents[2]

#: trees whose ``.backward()`` calls the census counts (tests do not)
CALLER_ROOTS = ["src", "benchmarks", "examples"]

#: the ``repro.nn`` defs that own a backward pass
NN_TRAINERS = {
    "repro.nn.data.fit",
    "repro.nn.data.DataParallelTrainer.step",
    "repro.nn.distributed.AsyncWorker.compute_gradients",
}

#: module outside ``repro.nn`` -> one-line reason it keeps its own step
KEEP: Dict[str, str] = {
    "repro.apps.drl.dqn":
        "the TD step: one replay batch per environment step, not an "
        "epoch loop over rows",
    "benchmarks.e2e.camera":
        "re-pointed by ROADMAP 12(g) in the benchmark PR",
}


def module_name(rel_path: str) -> str:
    """``src/repro/nn/data.py`` -> ``repro.nn.data``."""
    parts = list(Path(rel_path).with_suffix("").parts)
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def backward_calls(module: str, source: str) -> List[str]:
    """Qualified name of the def around each ``.backward()`` call (the
    module's own name for a call at module level)."""
    found = []
    stack: List[Tuple[ast.AST, str]] = [(ast.parse(source), module)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "backward":
            found.append(owner)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return sorted(found)


@functools.lru_cache(maxsize=1)
def census() -> Tuple[Tuple[str, str], ...]:
    """``(module, enclosing def)`` for every ``.backward()`` call."""
    calls = []
    for path in collect_files([str(REPO_ROOT / root)
                               for root in CALLER_ROOTS]):
        module = module_name(path.relative_to(REPO_ROOT).as_posix())
        source = path.read_text(encoding="utf-8")
        calls.extend((module, owner)
                     for owner in backward_calls(module, source))
    return tuple(calls)


def _outside_nn() -> Set[str]:
    return {module for module, _ in census()
            if not module.startswith("repro.nn.")}


def test_backward_outside_repro_nn_is_keep_listed():
    loops = sorted({owner for module, owner in census()
                    if module in _outside_nn() - set(KEEP)})
    assert loops == [], (
        "training loops of their own (route them through repro.nn.fit, or "
        "keep-list the module with a reason):\n  " + "\n  ".join(loops))


def test_keep_list_holds_only_modules_that_still_call_backward():
    stale = sorted(set(KEEP) - _outside_nn())
    assert stale == [], "keep-list entries without a .backward() call:" \
        "\n  " + "\n  ".join(stale)


def test_repro_nn_calls_backward_only_in_its_trainers():
    owners = {owner for module, owner in census()
              if module.startswith("repro.nn.")}
    assert owners == NN_TRAINERS


def test_the_census_sees_a_hand_copied_loop():
    source = ("def train(model, batches, optimizer):\n"
              "    for batch in batches:\n"
              "        loss = model.loss(batch)\n"
              "        loss.backward()\n"
              "        optimizer.step()\n"
              "class App:\n"
              "    def fit(self):\n"
              "        self.loss().backward()\n")
    assert backward_calls("repro.apps.demo", source) == [
        "repro.apps.demo.App.fit", "repro.apps.demo.train"]
