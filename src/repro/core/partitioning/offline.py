"""Offline driver: Algorithm 1 on a static graph with full knowledge.

Theorem 1 is stated for static graphs: the protocol converges to a
locally optimal balanced partition in finitely many executions, and the
overall communication cost decreases monotonically with every migration.
This driver lets us test exactly that, and powers the ablation bench that
compares the distributed algorithm's cut quality against the centralized
multilevel partitioner and Ja-Be-Ja.

With ``sizes`` it runs the §4.2 extension (sketched, not evaluated, in
the paper) through the same candidate, protocol and exchange code.
"""

from __future__ import annotations

import random
from typing import Hashable, Mapping, Optional

from ...graph.comm_graph import CommGraph
from ...graph.quality import cut_cost, max_imbalance
from .candidate import rank_peers
from .protocol import ExchangeRequest, handle_request
from .view import PartitionView

__all__ = ["OfflinePartitioner"]

Vertex = Hashable
ServerId = int


class OfflinePartitioner:
    """Runs pairwise exchanges over a static graph until convergence.

    Args:
        graph: the full communication graph.
        num_servers: n.
        delta: imbalance tolerance δ (>= 1 so exchanges are possible even
            with an odd total; the paper's constraint is ``<= delta``);
            in size units with ``sizes``.
        k: candidate-set size per exchange; a total-size budget with
            ``sizes``.
        seed: randomness for the initial assignment and the sweep order.
        initial: optional starting assignment.  The default is shuffled
            round-robin (the random placement baseline), or with
            ``sizes`` heaviest actor first onto the lightest server.
        sizes: vertex -> size (memory footprint units) for the §4.2
            extension; a vertex it misses has size 1.
        migration_penalty: score units charged per size unit moved (only
            with ``sizes``).
    """

    def __init__(
        self,
        graph: CommGraph,
        num_servers: int,
        delta: float = 2,
        k: float = 16,
        seed: int = 0,
        initial: Optional[dict[Vertex, ServerId]] = None,
        sizes: Optional[Mapping[Vertex, float]] = None,
        migration_penalty: float = 0.0,
    ):
        if num_servers < 2:
            raise ValueError("partitioning needs at least two servers")
        self.graph = graph
        self.num_servers = num_servers
        self.delta = delta
        self.k = k
        self.migration_penalty = migration_penalty
        self._rng = random.Random(seed)
        self.sizes: Optional[dict[Vertex, float]] = None
        if sizes is not None:
            self.sizes = dict(sizes)
            for v in graph.vertices():
                self.sizes.setdefault(v, 1.0)

        if initial is not None:
            self.assignment: dict[Vertex, ServerId] = dict(initial)
            missing = [v for v in graph.vertices() if v not in self.assignment]
            if missing:
                raise ValueError(f"initial assignment misses {len(missing)} vertices")
        elif self.sizes is None:
            vertices = list(graph.vertices())
            self._rng.shuffle(vertices)
            self.assignment = {
                v: i % num_servers for i, v in enumerate(vertices)
            }
        else:
            self.assignment = {}
            loads = [0.0] * num_servers
            for v in sorted(graph.vertices(), key=lambda v: -self.sizes[v]):
                target = loads.index(min(loads))
                self.assignment[v] = target
                loads[target] += self.sizes[v]

        self.total_migrations = 0
        self.total_migrated_size = 0.0
        self.cost_history: list[float] = [cut_cost(graph, self.assignment)]

    # ------------------------------------------------------------------
    def _loads(self) -> dict[ServerId, float]:
        """Per-server actor count, or total actor size with ``sizes``."""
        sizes = self.sizes
        if sizes is None:
            loads = dict.fromkeys(range(self.num_servers), 0)
            for loc in self.assignment.values():
                loads[loc] += 1
        else:
            loads = dict.fromkeys(range(self.num_servers), 0.0)
            for v, loc in self.assignment.items():
                loads[loc] += sizes[v]
        return loads

    def view_of(self, server: ServerId) -> PartitionView:
        """Full-knowledge view of one server (static-graph setting)."""
        edges = {
            v: self.graph.neighbors(v)
            for v, loc in self.assignment.items()
            if loc == server
        }
        loads = self._loads()
        return PartitionView(
            server_id=server,
            edges=edges,
            locate=self.assignment.get,
            size=loads[server],
            peer_sizes=loads,
            sizes=self.sizes,
            migration_penalty=self.migration_penalty,
        )

    # ------------------------------------------------------------------
    def run_round(self, initiator: ServerId) -> int:
        """One Alg.-1 invocation by ``initiator``; returns migrations made.

        The initiator walks its ranked peer list until some peer accepts
        (or every positive-gain peer rejected), exactly as §4.2 describes.
        """
        view_p = self.view_of(initiator)
        for proposal in rank_peers(view_p, self.k):
            q = proposal.peer
            request = ExchangeRequest(
                initiator=initiator,
                target=q,
                candidates=proposal.candidates,
                initiator_size=view_p.size,
            )
            response = handle_request(self.view_of(q), request, self.k, self.delta)
            if not response.accepted:
                continue
            outcome = response.outcome
            assert outcome is not None
            if outcome.moves == 0:
                # q accepted but found nothing worth exchanging (its
                # fresher knowledge disagreed with ours); keep walking
                # the ranked peer list.
                continue
            for v in outcome.accepted:
                self.assignment[v] = q
            for v in outcome.returned:
                self.assignment[v] = initiator
            self.total_migrations += outcome.moves
            for v in outcome.accepted + outcome.returned:
                self.total_migrated_size += self.sizes[v] if self.sizes else 1.0
            self.cost_history.append(cut_cost(self.graph, self.assignment))
            return outcome.moves
        return 0

    def run(self, max_sweeps: int = 50) -> dict[Vertex, ServerId]:
        """Sweep all servers as initiators until a full quiet sweep.

        Returns the converged assignment.  Termination is guaranteed on
        static graphs (Theorem 1); ``max_sweeps`` is a safety valve.
        """
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
    def imbalance(self) -> float:
        """Largest load gap between two servers: in actors, or in size."""
        if self.sizes is None:
            return max_imbalance(self.assignment, self.num_servers)
        loads = self._loads().values()
        return max(loads) - min(loads)
