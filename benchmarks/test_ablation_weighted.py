"""§4.2 extension ablation: actor sizes and migration costs.

The paper sketches but does not evaluate the generalization to
heterogeneous actor sizes ("the evaluation of these extensions is
outside the scope of this paper").  We evaluate it: on a Halo-shaped
graph with heavy hub actors (game state dwarfs a player's), compare

* the size-blind algorithm (counts only) — balanced by actor count but
  potentially badly imbalanced in memory;
* the weighted variant — balance and candidate budgets in size units,
  with a migration penalty proportional to state size.

Reported: cut cost, count-imbalance, size-imbalance, migrated bytes.
"""

import random

from repro.core.partitioning.offline import OfflinePartitioner
from repro.graph.generators import clustered_graph
from repro.graph.quality import cut_cost, max_imbalance
from repro.bench.reporting import render_table

SERVERS = 6
HUB_SIZE = 20.0


def build():
    graph = clustered_graph(48, 9, intra_weight=10.0,
                            inter_edges_per_cluster=1,
                            rng=random.Random(7))
    sizes = {v: (HUB_SIZE if v % 9 == 0 else 1.0) for v in graph.vertices()}
    return graph, sizes


def size_imbalance(graph, sizes, assignment):
    loads = [0.0] * SERVERS
    for v, p in assignment.items():
        loads[p] += sizes[v]
    return max(loads) - min(loads)


def run_both():
    graph, sizes = build()
    rng = random.Random(1)
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    initial = {v: i % SERVERS for i, v in enumerate(vertices)}

    unweighted = OfflinePartitioner(graph, SERVERS, delta=8, k=48, seed=2,
                                    initial=dict(initial))
    unweighted.run(max_sweeps=40)

    weighted = OfflinePartitioner(
        graph, SERVERS, delta=24.0, k=64.0, sizes=sizes,
        migration_penalty=0.05, seed=2, initial=dict(initial),
    )
    weighted.run(max_sweeps=40)
    return graph, sizes, initial, unweighted, weighted


def test_weighted_extension(benchmark, show):
    graph, sizes, initial, unweighted, weighted = benchmark.pedantic(
        run_both, rounds=1, iterations=1,
    )

    rows = [
        ["random initial", cut_cost(graph, initial),
         max_imbalance(initial, SERVERS),
         size_imbalance(graph, sizes, initial), "-"],
        ["Alg. 1 (size-blind)", unweighted.cost, unweighted.imbalance,
         size_imbalance(graph, sizes, unweighted.assignment),
         unweighted.total_migrations],
        ["Alg. 1 weighted (§4.2 ext.)", weighted.cost,
         max_imbalance(weighted.assignment, SERVERS),
         weighted.imbalance,
         f"{weighted.total_migrated_size:.0f} size units"],
    ]
    show(render_table(
        ["configuration", "cut cost", "count imbalance", "size imbalance",
         "migration volume"],
        rows,
        title="§4.2 extension — heterogeneous actor sizes "
              f"(hubs {HUB_SIZE:.0f}x player size, {SERVERS} servers)",
        floatfmt=".0f",
    ))

    random_cut = cut_cost(graph, initial)
    # Both variants recover most locality...
    assert unweighted.cost < 0.45 * random_cut
    assert weighted.cost < 0.45 * random_cut
    # ...but only the weighted variant controls *memory* imbalance:
    blind_size_gap = size_imbalance(graph, sizes, unweighted.assignment)
    assert weighted.imbalance < blind_size_gap
    # and respects its own tolerance within the pairwise-drift bound.
    assert weighted.imbalance <= 3 * 24.0
