"""Gang / co-offending network analysis (Sec. IV-B).

Builds the co-offending graph — either synthetically at the paper's scale
or from law-enforcement incident records — and answers the investigative
queries the paper describes: first- and second-degree associate fields,
their sizes (the "prohibitively large" problem), and key-player rankings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.runtime.core import get_runtime

from repro.compute.graphx import Graph
from repro.data.social import GangNetworkGenerator


@dataclass
class FieldSizeReport:
    """Investigative field sizes around one person of interest."""

    person: str
    first_degree: int
    second_degree: int


class SocialNetworkAnalysis:
    """Queries over a co-offending network."""

    def __init__(self, graph: Graph):
        self.graph = graph

    @classmethod
    def paper_scale(cls, seed: int = 0) -> "SocialNetworkAnalysis":
        """The Sec. IV-B network: 67 gangs, 982 members, mean degree ~14."""
        return cls(GangNetworkGenerator(seed=seed).generate())

    @classmethod
    def from_incidents(cls, records: Sequence[Dict]) -> "SocialNetworkAnalysis":
        """Build from law-enforcement records: people co-listed on an
        incident report become linked (the paper's in-place-and-time rule)."""
        vertices: Dict[str, Dict] = {}
        edges = set()
        for record in records:
            people = list(record.get("suspects", ())) + \
                list(record.get("victims", ()))
            for person in people:
                vertices.setdefault(person, {"incidents": 0})
                vertices[person]["incidents"] += 1
            for i, a in enumerate(people):
                for b in people[i + 1:]:
                    if a != b:
                        edges.add(tuple(sorted((a, b))))
        return cls(Graph(vertices, sorted(edges)))

    # -- investigative queries ---------------------------------------------------
    def associates(self, person: str, degree: int = 1) -> set:
        return self.graph.n_degree_neighborhood(person, degree)

    def field_size_report(self, person: str) -> FieldSizeReport:
        return FieldSizeReport(
            person=person,
            first_degree=len(self.associates(person, 1)),
            second_degree=len(self.associates(person, 2)))

    def mean_field_sizes(self, sample: int = 100, seed: int = 0
                         ) -> Dict[str, float]:
        """Average first/second-degree field sizes over a member sample —
        the numbers the paper quotes (14 and ~200)."""
        rng = get_runtime().rng.np_child("apps.social.network.sample", seed)
        members = sorted(self.graph.vertices)
        if not members:
            return {"first_degree": 0.0, "second_degree": 0.0}
        take = min(sample, len(members))
        picks = rng.choice(len(members), take, replace=False)
        firsts, seconds = [], []
        for index in picks:
            report = self.field_size_report(members[index])
            firsts.append(report.first_degree)
            seconds.append(report.second_degree)
        return {"first_degree": float(np.mean(firsts)),
                "second_degree": float(np.mean(seconds))}

    def key_players(self, top: int = 10) -> List[tuple]:
        """Highest-pagerank members — candidates for focused attention."""
        ranks = self.graph.pagerank()
        ordered = sorted(ranks.items(), key=lambda kv: kv[1], reverse=True)
        return ordered[:top]
