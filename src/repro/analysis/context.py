"""Per-module analysis context: source, AST, parents, imports, noqa.

A :class:`ModuleContext` is everything a rule needs to judge one file
without re-walking the tree: the parsed AST with a parent map (for "is
this call the context expression of a ``with``?" questions), a resolved
import-alias table (so ``np.random.default_rng`` is recognised however
numpy was imported), and the ``# repro: noqa[RULE]`` suppression map.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Optional, Set, Tuple

NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?")

#: marker stored in the noqa map for a blanket ``# repro: noqa``
NOQA_ALL = "*"


def _normalize(path: str) -> str:
    return str(PurePosixPath(path.replace("\\", "/")))


class ModuleContext:
    """One parsed source file plus the derived tables rules consume."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.rel_path = _normalize(path)
        self.tree = ast.parse(source, filename=path)
        self.is_library = "src" in PurePosixPath(self.rel_path).parts[:-1]
        self.noqa: Dict[int, Set[str]] = self._collect_noqa(source)
        self._parents: Dict[int, ast.AST] = {}
        self.imports: Dict[str, str] = {}
        self._index()

    # -- construction ----------------------------------------------------------
    @staticmethod
    def _collect_noqa(source: str) -> Dict[int, Set[str]]:
        table: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = NOQA_RE.search(line)
            if not match:
                continue
            codes = match.group("codes")
            if codes is None:
                table[lineno] = {NOQA_ALL}
            else:
                table[lineno] = {c.strip().upper()
                                 for c in codes.split(",") if c.strip()}
        return table

    def _index(self) -> None:
        for node in self.walk():
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:       # relative import: not an external module
                    continue
                base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    # -- traversal --------------------------------------------------------------
    def walk(self) -> Iterator[ast.AST]:
        """Document-order traversal (deterministic, parents before children)."""
        stack: List[ast.AST] = [self.tree]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(ast.iter_child_nodes(node))))

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    # -- name resolution --------------------------------------------------------
    def dotted_parts(self, node: ast.AST) -> Optional[Tuple[str, ...]]:
        """Flatten a Name/Attribute chain to its syntactic parts."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return tuple(reversed(parts))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None.

        Follows the module's import aliases, so with ``import numpy as np``
        the expression ``np.random.default_rng`` resolves to
        ``"numpy.random.default_rng"``.  Names not rooted at an import
        resolve to None — a local variable, not an external API.
        """
        parts = self.dotted_parts(node)
        if not parts:
            return None
        root = self.imports.get(parts[0])
        if root is None:
            return None
        return ".".join((root,) + parts[1:])

    # -- suppression -------------------------------------------------------------
    def suppressed(self, rule_id: str, line: int) -> bool:
        codes = self.noqa.get(line)
        if not codes:
            return False
        return NOQA_ALL in codes or rule_id.upper() in codes
