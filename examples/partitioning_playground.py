"""Partitioning playground: Alg. 1 vs centralized multilevel vs Ja-Be-Ja.

Offline comparison on static synthetic graphs (§4.1's design-alternatives
discussion): for each graph family, partition with

* random assignment (the Orleans default baseline),
* ActOp's distributed pairwise-exchange algorithm (Alg. 1),
* the centralized multilevel partitioner (METIS stand-in), and
* Ja-Be-Ja [30],

and report cut cost, balance, and wall-clock time.

Run:  python examples/partitioning_playground.py
"""

import random
import time

from repro.core.partitioning.offline import OfflinePartitioner
from repro.graph.generators import clustered_graph, power_law_graph, random_graph
from repro.graph.jabeja import jabeja_partition
from repro.graph.multilevel import multilevel_partition
from repro.graph.quality import cut_cost, max_imbalance
from repro.bench.reporting import render_table

SERVERS = 8


def random_assignment(graph, rng):
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    return {v: i % SERVERS for i, v in enumerate(vertices)}


def evaluate(name, graph):
    rng = random.Random(0)
    rows = []

    base = random_assignment(graph, rng)
    rows.append(["random placement", cut_cost(graph, base),
                 max_imbalance(base, SERVERS), 0.0])

    start = time.perf_counter()
    actop = OfflinePartitioner(graph, SERVERS, delta=8, k=64, seed=1,
                               initial=dict(base))
    actop.run(max_sweeps=40)
    rows.append(["ActOp Alg. 1 (distributed)", actop.cost,
                 actop.imbalance, time.perf_counter() - start])

    start = time.perf_counter()
    ml = multilevel_partition(graph, SERVERS, rng=random.Random(2))
    rows.append(["multilevel (centralized)", cut_cost(graph, ml),
                 max_imbalance(ml, SERVERS), time.perf_counter() - start])

    start = time.perf_counter()
    jb = jabeja_partition(graph, SERVERS, rounds=30, rng=random.Random(3),
                          initial=dict(base))
    rows.append(["Ja-Be-Ja [30]", cut_cost(graph, jb.assignment),
                 max_imbalance(jb.assignment, SERVERS),
                 time.perf_counter() - start])

    print(render_table(
        ["algorithm", "cut cost", "imbalance", "seconds"],
        rows,
        title=f"{name}: {graph.num_vertices} vertices, {graph.num_edges} edges",
        floatfmt=".1f",
    ))


def main():
    evaluate(
        "Halo-shaped clusters (games of 8, light cross-talk)",
        clustered_graph(100, 9, intra_weight=10.0, inter_edges_per_cluster=1,
                        rng=random.Random(10)),
    )
    evaluate(
        "Power-law social graph",
        power_law_graph(800, attach=2, rng=random.Random(11)),
    )
    evaluate(
        "Uniform random graph (no structure to exploit)",
        random_graph(800, mean_degree=6.0, rng=random.Random(12)),
    )


if __name__ == "__main__":
    main()
