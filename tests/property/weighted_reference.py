"""Reference for the sized ``OfflinePartitioner``: the separate §4.2 driver.

This is ``repro.core.partitioning.weighted`` as it stood at a9488a1
(imports made absolute), before sized actors ran through the same
candidate, protocol and exchange code as unit actors.
``test_prop_weighted.py`` requires ``OfflinePartitioner(sizes=...)`` to
reproduce its ``assignment`` and ``cost_history`` exactly; the shipped
driver also re-scores p's candidates at q (Alg. 1 step 3), which on a
static full-knowledge graph gives p's scores back bit for bit.  Do not
optimise this file.

The module's original docstring follows.

The §4.2 extension: heterogeneous actor sizes and migration costs.

The paper sketches (but does not evaluate) how Algorithm 1 generalizes
when actors are not uniform:

* the transfer score gets a term accounting for the cost of migrating
  the actor, so that heavy-state actors move only when the communication
  saving justifies hauling their state;
* the candidate set is limited by the *sum of sizes* of its actors
  rather than a count k;
* the imbalance tolerance δ is measured in total size instead of actor
  count.

This module implements that extension on top of the same primitives.
Our concrete migration-cost model: moving a vertex costs
``migration_penalty * size(v)`` in score units (migration traffic grows
with state size), so the adjusted score is ``R - penalty * size`` — an
actor is only proposed if its communication saving beats its haul cost.
"""

from __future__ import annotations

import heapq
import random
from typing import Hashable, Mapping, Optional

from repro.graph.comm_graph import CommGraph
from repro.graph.quality import cut_cost
from repro.core.partitioning.candidate import Candidate
from repro.core.partitioning.exchange import greedy_exchange
from repro.core.partitioning.transfer_score import transfer_score
from repro.core.partitioning.view import PartitionView

__all__ = ["weighted_candidate_set", "WeightedOfflinePartitioner"]

Vertex = Hashable
ServerId = int


def weighted_candidate_set(
    view: PartitionView,
    target: ServerId,
    sizes: Mapping[Vertex, float],
    size_budget: float,
    migration_penalty: float = 0.0,
) -> list[Candidate]:
    """Top candidates toward ``target`` under a total-size budget.

    Candidates are ranked by migration-cost-adjusted score
    ``R_{p,q}(v) - migration_penalty * size(v)`` and accepted greedily
    until the cumulative size reaches ``size_budget`` (the extension's
    analogue of the count limit k).
    """
    if size_budget <= 0:
        return []
    scored: list[tuple[float, Vertex]] = []
    for v in view.local_vertices():
        raw = transfer_score(view.neighbors(v), view.locate, view.server_id,
                             target)
        adjusted = raw - migration_penalty * sizes.get(v, 1.0)
        if adjusted > 0:
            scored.append((adjusted, v))
    out: list[Candidate] = []
    used = 0.0
    for adjusted, v in heapq.nlargest(len(scored), scored, key=lambda sv: sv[0]):
        size = sizes.get(v, 1.0)
        if used + size > size_budget:
            continue
        used += size
        edges = dict(view.neighbors(v))
        locations = {}
        for u in edges:
            loc = view.locate(u)
            if loc is not None:
                locations[u] = loc
        out.append(Candidate(v, adjusted, edges, locations))
    return out


class WeightedOfflinePartitioner:
    """Offline Alg. 1 with per-vertex sizes (static-graph evaluation).

    Args:
        graph: the communication graph.
        sizes: vertex -> size (memory footprint units).
        num_servers: n.
        size_delta: imbalance tolerance in total size units.
        size_budget: per-exchange candidate-set size budget.
        migration_penalty: score units charged per size unit moved.
        seed: randomness for the initial size-balanced assignment.
    """

    def __init__(
        self,
        graph: CommGraph,
        sizes: Mapping[Vertex, float],
        num_servers: int,
        size_delta: float,
        size_budget: float,
        migration_penalty: float = 0.0,
        seed: int = 0,
        initial: Optional[dict[Vertex, ServerId]] = None,
    ):
        if num_servers < 2:
            raise ValueError("partitioning needs at least two servers")
        self.graph = graph
        self.sizes = dict(sizes)
        for v in graph.vertices():
            self.sizes.setdefault(v, 1.0)
        self.num_servers = num_servers
        self.size_delta = size_delta
        self.size_budget = size_budget
        self.migration_penalty = migration_penalty
        self._rng = random.Random(seed)

        if initial is None:
            # Size-aware greedy balance: heaviest first onto lightest server.
            self.assignment: dict[Vertex, ServerId] = {}
            loads = [0.0] * num_servers
            order = sorted(graph.vertices(), key=lambda v: -self.sizes[v])
            for v in order:
                target = loads.index(min(loads))
                self.assignment[v] = target
                loads[target] += self.sizes[v]
        else:
            self.assignment = dict(initial)
        self.total_migrated_size = 0.0
        self.cost_history: list[float] = [cut_cost(graph, self.assignment)]

    # ------------------------------------------------------------------
    def server_load(self, server: ServerId) -> float:
        return sum(
            self.sizes[v] for v, loc in self.assignment.items() if loc == server
        )

    def view_of(self, server: ServerId) -> PartitionView:
        edges = {
            v: self.graph.neighbors(v)
            for v, loc in self.assignment.items()
            if loc == server
        }
        loads = {p: self.server_load(p) for p in range(self.num_servers)}
        return PartitionView(
            server_id=server,
            edges=edges,
            locate=self.assignment.get,
            size=loads[server],
            peer_sizes=loads,
        )

    def run_round(self, initiator: ServerId) -> int:
        """One exchange attempt by ``initiator``; returns vertices moved."""
        view_p = self.view_of(initiator)
        proposals = []
        for q in view_p.peers():
            cands = weighted_candidate_set(
                view_p, q, self.sizes, self.size_budget, self.migration_penalty
            )
            if cands:
                proposals.append((sum(c.score for c in cands), q, cands))
        proposals.sort(reverse=True, key=lambda pr: pr[0])
        for _, q, s_cands in proposals:
            view_q = self.view_of(q)
            t_cands = weighted_candidate_set(
                view_q, initiator, self.sizes, self.size_budget,
                self.migration_penalty,
            )
            outcome = greedy_exchange(
                s_cands, t_cands,
                size_p=view_p.size, size_q=view_q.size,
                delta=self.size_delta,
                vertex_sizes=self.sizes,
            )
            if outcome.moves == 0:
                continue
            for v in outcome.accepted:
                self.assignment[v] = q
                self.total_migrated_size += self.sizes[v]
            for v in outcome.returned:
                self.assignment[v] = initiator
                self.total_migrated_size += self.sizes[v]
            self.cost_history.append(cut_cost(self.graph, self.assignment))
            return outcome.moves
        return 0

    def run(self, max_sweeps: int = 50) -> dict[Vertex, ServerId]:
        for _ in range(max_sweeps):
            moved = 0
            order = list(range(self.num_servers))
            self._rng.shuffle(order)
            for p in order:
                moved += self.run_round(p)
            if moved == 0:
                break
        return self.assignment

    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        return cut_cost(self.graph, self.assignment)

    @property
    def size_imbalance(self) -> float:
        loads = [self.server_load(p) for p in range(self.num_servers)]
        return max(loads) - min(loads)
