"""Offline driver: Algorithm 1 on a static graph with full knowledge.

Theorem 1 is stated for static graphs: the protocol converges to a
locally optimal balanced partition in finitely many executions, and the
overall communication cost decreases monotonically with every migration.
This driver lets us test exactly that, and powers the ablation bench that
compares the distributed algorithm's cut quality against the centralized
multilevel partitioner and Ja-Be-Ja.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

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
            with an odd total; the paper's constraint is ``<= delta``).
        k: candidate-set size per exchange.
        cooldown_rounds: a server that exchanged within this many protocol
            steps rejects incoming requests (the paper uses 1 minute of
            wall time; rounds are the offline analogue).
        seed: randomness for the initial balanced-random assignment.
        initial: optional starting assignment (defaults to shuffled
            round-robin — the random placement baseline).
    """

    def __init__(
        self,
        graph: CommGraph,
        num_servers: int,
        delta: int = 2,
        k: int = 16,
        cooldown_rounds: int = 0,
        seed: int = 0,
        initial: Optional[dict[Vertex, ServerId]] = None,
    ):
        if num_servers < 2:
            raise ValueError("partitioning needs at least two servers")
        self.graph = graph
        self.num_servers = num_servers
        self.delta = delta
        self.k = k
        self.cooldown_rounds = cooldown_rounds
        self._rng = random.Random(seed)

        if initial is None:
            vertices = list(graph.vertices())
            self._rng.shuffle(vertices)
            self.assignment: dict[Vertex, ServerId] = {
                v: i % num_servers for i, v in enumerate(vertices)
            }
        else:
            self.assignment = dict(initial)
            missing = [v for v in graph.vertices() if v not in self.assignment]
            if missing:
                raise ValueError(f"initial assignment misses {len(missing)} vertices")

        self._last_exchange_step: dict[ServerId, int] = {}
        self._step = 0
        self.total_migrations = 0
        self.cost_history: list[float] = [cut_cost(graph, self.assignment)]

    # ------------------------------------------------------------------
    def view_of(self, server: ServerId) -> PartitionView:
        """Full-knowledge view of one server (static-graph setting)."""
        edges = {
            v: self.graph.neighbors(v)
            for v, loc in self.assignment.items()
            if loc == server
        }
        sizes: dict[ServerId, int] = {p: 0 for p in range(self.num_servers)}
        for loc in self.assignment.values():
            sizes[loc] += 1
        return PartitionView(
            server_id=server,
            edges=edges,
            locate=self.assignment.get,
            size=sizes[server],
            peer_sizes=sizes,
        )

    # ------------------------------------------------------------------
    def run_round(self, initiator: ServerId) -> int:
        """One Alg.-1 invocation by ``initiator``; returns migrations made.

        The initiator walks its ranked peer list until some peer accepts
        (or every positive-gain peer rejected), exactly as §4.2 describes.
        """
        self._step += 1
        view_p = self.view_of(initiator)
        for proposal in rank_peers(view_p, self.k):
            q = proposal.peer
            if (self.cooldown_rounds > 0
                    and self._step - self._last_exchange_step.get(q, -10**9)
                    <= self.cooldown_rounds):
                continue  # q rejects on cooldown, before it builds a view
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
            self._last_exchange_step[initiator] = self._step
            self._last_exchange_step[q] = self._step
            self.total_migrations += outcome.moves
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
    def imbalance(self) -> int:
        return max_imbalance(self.assignment, self.num_servers)
