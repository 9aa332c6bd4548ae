"""The per-server partitioning agent (§4.2–4.3, online).

Each silo runs one :class:`PartitionAgent`.  The agent

* periodically **folds** per-actor communication counters into a
  Space-Saving summary of the silo's heaviest incident edges ("we keep
  the relevant counters locally at each actor, and periodically update
  the global graph data-structure by traversing all the actors from a
  single thread", §4.3), with exponential decay so weights track current
  rates on a churning graph;
* periodically **initiates** Algorithm 1: builds its partial
  :class:`~repro.core.partitioning.view.PartitionView`, ranks peers by
  anticipated cost reduction, and walks the list until one accepts;
* **serves** incoming exchange requests, enforcing the cooldown ("the
  exchange is rejected if a previous exchange took place less than a
  minute ago"), and
* executes the resulting migrations through the silo's transparent
  opportunistic mechanism.

Control messages take the runtime's control hop (``send_control``: one
modeled network transit on the simulator, a loop callback on the real
runtime) and bypass the data path — they are small, infrequent, and the
paper never charges them against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...actor.commtable import CommTable
from ...graph.spacesaving import EdgeSummary
from .candidate import rank_peers
from .protocol import ExchangeRequest, ExchangeResponse, handle_request
from .view import PartitionView

__all__ = ["PartitioningConfig", "PartitionAgent"]

_CONTROL_MESSAGE_SIZE = 1024


@dataclass
class PartitioningConfig:
    """Knobs of the online protocol.

    Attributes:
        round_period: seconds between exchange attempts per server.
        stats_period: seconds between counter folds into the edge summary.
        cooldown: a server rejects incoming exchanges within this many
            seconds of its last one (the paper uses 60 s).
        candidate_fraction: candidate-set size as a share of local actors.
        candidate_max: hard cap on the candidate-set size k.
        delta: imbalance tolerance in actor count.
        edge_capacity: Space-Saving summary size per server.
        decay: per-fold multiplicative decay of sampled edge weights.
        max_peers_tried: how far down the ranked peer list to walk.
        warmup: do not initiate exchanges before this simulated time.
    """

    round_period: float = 10.0
    stats_period: float = 2.0
    cooldown: float = 60.0
    candidate_fraction: float = 0.05
    candidate_max: int = 64
    delta: int = 16
    edge_capacity: int = 10_000
    decay: float = 0.8
    max_peers_tried: int = 3
    warmup: float = 0.0


class PartitionAgent:
    """Algorithm 1 running on one silo."""

    def __init__(self, runtime, silo, config: Optional[PartitioningConfig] = None):
        self.runtime = runtime
        self.silo = silo
        self.config = config or PartitioningConfig()
        # The agent is the silo's one comm-table reader, so it installs
        # the table: a silo without an agent records no edges.
        silo.comm_table = CommTable()
        self.edges = EdgeSummary(self.config.edge_capacity)
        self.peers: dict[int, "PartitionAgent"] = {}
        self.last_exchange_time = -float("inf")
        self.exchanges_initiated = 0
        self.exchanges_accepted = 0
        self._running = False
        self._rng = runtime.rng.stream(f"partition.agent.{silo.server_id}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin folding and initiating rounds (staggered across silos)."""
        silo = self.silo
        if silo.comm_table is None:
            # Restarted after stop(): departures went unnoted meanwhile,
            # so the first fold re-checks every sampled source.
            silo.comm_table = CommTable()
            silo.comm_table.departed.extend(self.edges.sources())
        self._running = True
        sim = self.runtime.sim
        n = self.runtime.num_servers
        fold_offset = self.config.stats_period * (self.silo.server_id + 1) / (n + 1)
        round_offset = (
            self.config.warmup
            + self.config.round_period * (self.silo.server_id + 1) / (n + 1)
        )
        sim.schedule(fold_offset, self._fold_tick)
        sim.schedule(round_offset, self._round_tick)

    def stop(self) -> None:
        """Stop folding and rounds, and uninstall the comm table (with its
        departure list): nothing would drain what the silo records."""
        self._running = False
        self.silo.comm_table = None

    # ------------------------------------------------------------------
    # Edge statistics (§4.3)
    # ------------------------------------------------------------------
    def _fold_tick(self) -> None:
        if not self._running:
            return
        self.fold_counters()
        self.runtime.sim.schedule(self.config.stats_period, self._fold_tick)

    def fold_counters(self) -> None:
        """Fold the silo's communication table into the Space-Saving
        edge summary.

        One pass over the flat silo-level :class:`CommTable` — O(edges
        recorded since the last fold), not O(activations).  Entries
        whose source has since deactivated or migrated away are skipped,
        matching the original per-activation semantics where counters
        died with the activation.

        Then every sampled edge whose source the silo no longer hosts is
        forgotten.  Such a source was hosted at the last fold's end (or
        when its edge was offered) and has left since, so it is on the
        table's departure list: the purge walks that list and the
        summary's per-source index, not the summary.  A source that left
        and came back keeps its edges, as a full scan would.  The
        forgotten set is the scan's, and forget order moves neither the
        entries' order nor any victim.
        """
        edges = self.edges
        edges.decay(self.config.decay)
        hosted = self.silo.activations
        table = self.silo.comm_table
        offer = edges.offer
        for edge, weight in table.drain():
            if edge[0] in hosted:
                offer(edge, weight)
        for src in table.drain_departed():
            if src not in hosted:
                edges.forget_source(src)

    # ------------------------------------------------------------------
    # View construction
    # ------------------------------------------------------------------
    def candidate_k(self) -> int:
        local = max(1, self.silo.num_activations)
        k = int(self.config.candidate_fraction * local)
        return max(1, min(self.config.candidate_max, k))

    def build_view(self) -> PartitionView:
        hosted = self.silo.activations.get
        edges: dict = {}
        for (v, u), entry in self.edges.entries():
            activation = hosted(v)
            if activation is not None and not activation.deactivating:
                neighbors = edges.get(v)
                if neighbors is None:
                    edges[v] = {u: entry[0]}
                else:
                    neighbors[u] = entry[0]
        census = self.runtime.census()
        return PartitionView(
            server_id=self.silo.server_id,
            edges=edges,
            locate=self.runtime.directory.lookup,
            size=census.get(self.silo.server_id, 0),
            peer_sizes=census,
        )

    # ------------------------------------------------------------------
    # Initiator side
    # ------------------------------------------------------------------
    def _round_tick(self) -> None:
        if not self._running:
            return
        self.initiate_round()
        jitter = self._rng.uniform(0.9, 1.1)
        self.runtime.sim.schedule(self.config.round_period * jitter, self._round_tick)

    def initiate_round(self) -> None:
        """One Alg.-1 invocation: pick the best peer, fall through rejections."""
        view = self.build_view()
        k = self.candidate_k()
        proposals = rank_peers(view, k)
        if not proposals:
            return
        self.exchanges_initiated += 1
        obs = self.runtime.obs
        if obs is not None:
            from ...obs.events import PartitionRoundEvent

            obs.events.emit(PartitionRoundEvent(
                self.runtime.sim.now, server=self.silo.server_id,
                proposals=len(proposals), candidates=k))
        self._try_peer(view.size, proposals, 0)

    def _try_peer(self, my_size: int, proposals, index: int) -> None:
        if index >= min(len(proposals), self.config.max_peers_tried):
            return
        proposal = proposals[index]
        request = ExchangeRequest(
            initiator=self.silo.server_id,
            target=proposal.peer,
            candidates=proposal.candidates,
            initiator_size=my_size,
        )
        peer_agent = self.peers[proposal.peer]
        self.runtime.send_control(
            _CONTROL_MESSAGE_SIZE,
            peer_agent._receive_request,
            request,
            self,
            my_size,
            proposals,
            index,
        )

    def _receive_response(
        self,
        request: ExchangeRequest,
        response: ExchangeResponse,
        my_size: int,
        proposals,
        index: int,
    ) -> None:
        obs = self.runtime.obs
        if not response.accepted:
            if obs is not None:
                from ...obs.events import ExchangeEvent

                obs.events.emit(ExchangeEvent(
                    self.runtime.sim.now, initiator=self.silo.server_id,
                    target=request.target, accepted=False,
                    reason=response.rejection_reason))
            self._try_peer(my_size, proposals, index + 1)
            return
        self.exchanges_accepted += 1
        outcome = response.outcome
        assert outcome is not None
        if obs is not None:
            from ...obs.events import ExchangeEvent

            obs.events.emit(ExchangeEvent(
                self.runtime.sim.now, initiator=self.silo.server_id,
                target=request.target, accepted=True, moves=outcome.moves,
                sent=len(outcome.accepted), received=len(outcome.returned),
                estimated_gain=outcome.estimated_gain))
        if outcome.moves == 0:
            # Accepted-but-empty: q's fresher knowledge found no useful
            # exchange; fall through to the next-best peer.
            self._try_peer(my_size, proposals, index + 1)
            return
        for vertex in outcome.accepted:
            self.silo.migrate(vertex, request.target)
        self.last_exchange_time = self.runtime.sim.now

    # ------------------------------------------------------------------
    # Responder side
    # ------------------------------------------------------------------
    def _receive_request(
        self,
        request: ExchangeRequest,
        initiator_agent: "PartitionAgent",
        my_size: int,
        proposals,
        index: int,
    ) -> None:
        response = self.serve_request(request)
        self.runtime.send_control(
            _CONTROL_MESSAGE_SIZE,
            initiator_agent._receive_response,
            request,
            response,
            my_size,
            proposals,
            index,
        )

    def serve_request(self, request: ExchangeRequest) -> ExchangeResponse:
        """q's side of Alg. 1, including cooldown and T0 migrations."""
        if self.runtime.sim.now - self.last_exchange_time < self.config.cooldown:
            # Decided before the view is built: most requests in a busy
            # cluster end here, and a view costs as much as a fold.
            return ExchangeResponse(accepted=False, rejection_reason="cooldown")
        response = handle_request(
            self.build_view(),
            request,
            k=self.candidate_k(),
            delta=self.config.delta,
        )
        if response.accepted and response.outcome is not None:
            for vertex in response.outcome.returned:
                self.silo.migrate(vertex, request.initiator)
            if response.outcome.moves:
                self.last_exchange_time = self.runtime.sim.now
        return response
