"""GraphX-style property graphs (Sec. II-C-2, powering Sec. IV-B).

A :class:`Graph` holds attributed vertices and edges and provides the
analytics the paper's social-network application needs: degree statistics,
n-degree neighborhoods (first/second-degree criminal associates), pagerank,
connected components, triangle counting, and a Pregel-ish
``aggregate_messages`` primitive.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple


#: pagerank's damping factor and power-iteration count
PAGERANK_DAMPING, PAGERANK_ITERATIONS = 0.85, 30


class Graph:
    """An undirected property graph.

    Parameters
    ----------
    vertices:
        {vertex_id: attribute}.
    edges:
        Iterable of (src, dst) or (src, dst, attribute) tuples; each edge
        is traversable both ways.
    """

    def __init__(self, vertices: Dict[Any, Any], edges: Iterable[Tuple]):
        self.vertices: Dict[Any, Any] = dict(vertices)
        self.edges: List[Tuple[Any, Any, Any]] = []
        self._adjacency: Dict[Any, Set] = defaultdict(set)
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                attr = None
            elif len(edge) == 3:
                src, dst, attr = edge
            else:
                raise ValueError(f"edges must be 2- or 3-tuples: {edge!r}")
            for endpoint in (src, dst):
                if endpoint not in self.vertices:
                    raise KeyError(f"edge endpoint {endpoint!r} not a vertex")
            self.edges.append((src, dst, attr))
            self._adjacency[src].add(dst)
            self._adjacency[dst].add(src)

    # -- basics ---------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, vertex: Any) -> Set:
        if vertex not in self.vertices:
            raise KeyError(f"unknown vertex: {vertex!r}")
        return set(self._adjacency.get(vertex, set()))

    def degrees(self) -> Dict[Any, int]:
        return {v: len(self._adjacency.get(v, ())) for v in self.vertices}

    def mean_degree(self) -> float:
        degrees = self.degrees()
        return sum(degrees.values()) / len(degrees) if degrees else 0.0

    # -- neighborhoods (first/second-degree associates, Sec. IV-B) -----------------
    def n_degree_neighborhood(self, vertex: Any, depth: int) -> Set:
        """All vertices within ``depth`` hops of ``vertex``, itself excluded.

        ``depth=1`` is the first-degree associate set; ``depth=2`` adds the
        second-degree associates reached through a shared co-offender.
        """
        if depth < 0:
            raise ValueError(f"depth must be >= 0: {depth}")
        if vertex not in self.vertices:
            raise KeyError(f"unknown vertex: {vertex!r}")
        seen = {vertex}
        frontier = {vertex}
        for _ in range(depth):
            frontier = {n for v in frontier for n in self._adjacency.get(v, ())
                        } - seen
            seen |= frontier
        seen.discard(vertex)
        return seen

    # -- global analytics -------------------------------------------------------
    def pagerank(self) -> Dict[Any, float]:
        """Power-iteration pagerank; ranks sum to ~1."""
        damping = PAGERANK_DAMPING
        n = self.num_vertices
        if n == 0:
            return {}
        ranks = {v: 1.0 / n for v in self.vertices}
        out_degree = {v: len(self._adjacency.get(v, ())) for v in self.vertices}
        for _ in range(PAGERANK_ITERATIONS):
            incoming: Dict[Any, float] = defaultdict(float)
            dangling = 0.0
            for vertex, rank in ranks.items():
                if out_degree[vertex] == 0:
                    dangling += rank
                    continue
                share = rank / out_degree[vertex]
                for neighbor in self._adjacency[vertex]:
                    incoming[neighbor] += share
            base = (1.0 - damping) / n + damping * dangling / n
            ranks = {v: base + damping * incoming[v] for v in self.vertices}
        return ranks

    def connected_components(self) -> Dict[Any, int]:
        """{vertex: component_id}; ids are 0..k-1 by discovery order."""
        component: Dict[Any, int] = {}
        next_id = 0
        for start in self.vertices:
            if start in component:
                continue
            queue = deque([start])
            component[start] = next_id
            while queue:
                vertex = queue.popleft()
                for neighbor in self._adjacency.get(vertex, ()):
                    if neighbor not in component:
                        component[neighbor] = next_id
                        queue.append(neighbor)
            next_id += 1
        return component

    def triangle_count(self) -> int:
        """Number of distinct triangles."""
        count = 0
        for vertex in self.vertices:
            neighbors = self._adjacency.get(vertex, set())
            for a in neighbors:
                for b in neighbors:
                    if a < b and b in self._adjacency.get(a, set()):
                        count += 1
        return count // 3

    def aggregate_messages(self,
                           send: Callable[[Any, Any, Any], Iterable[Tuple[Any, Any]]],
                           merge: Callable[[Any, Any], Any]) -> Dict[Any, Any]:
        """Pregel-style primitive: per-edge ``send`` yields (vertex, message)
        pairs; messages to the same vertex are folded with ``merge``."""
        inbox: Dict[Any, Any] = {}
        for src, dst, attr in self.edges:
            for target, message in send(src, dst, attr):
                if target in inbox:
                    inbox[target] = merge(inbox[target], message)
                else:
                    inbox[target] = message
        return inbox
