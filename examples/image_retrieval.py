"""Image-retrieval style Hamming distance search (the paper's GIST/SIFT use case).

Binary codes stand in for hashed image descriptors.  The workload is served
through the unified query engine: the dataset registers with the ``hamming``
backend (the partition index is built exactly once and shared by every
searcher), the GPH baseline and the pigeonring searcher at several chain
lengths are compared through the same ``Query`` API -- a miniature of the
paper's Figures 5 and 9 -- and the same engine then answers a top-k query,
a workload the offline figure scripts never expose.

Run with:  python examples/image_retrieval.py
"""

from repro.datasets.binary import gist_like
from repro.engine import Query, SearchEngine
from repro.experiments.harness import engine_comparison_rows, format_rows
from repro.hamming import BinaryVectorDataset


def main() -> None:
    workload = gist_like(num_vectors=3000, num_queries=10, seed=7)
    dataset = BinaryVectorDataset(workload.vectors, num_parts=8)
    tau = 40

    engine = SearchEngine()
    engine.add_dataset("hamming", dataset)
    print(f"dataset: {len(dataset)} binary codes, d = {dataset.d}, m = {dataset.m} parts")
    print(f"query workload: {workload.num_queries} queries, tau = {tau}\n")

    algorithms = {"GPH (pigeonhole)": {"algorithm": "baseline"}}
    for length in (2, 4, 6):
        algorithms[f"Ring l={length}"] = {"algorithm": "ring", "chain_length": length}
    rows = engine_comparison_rows(
        engine, "hamming", "gist-like", tau, algorithms, list(workload.queries)
    )
    print(format_rows(rows))

    top = engine.search(Query(backend="hamming", payload=workload.queries[0], k=5))
    print(f"\ntop-5 for query 0 (escalated to tau = {top.tau_effective}):")
    for obj_id, score in zip(top.ids, top.scores):
        print(f"  id={obj_id}  hamming distance={score:.0f}")

    stats = engine.stats.snapshot()
    print(
        f"\nengine served {stats['num_queries']} queries, "
        f"avg latency {stats['avg_engine_time_ms']:.2f} ms, "
        f"cache hits {stats['cache_hits']}"
    )


if __name__ == "__main__":
    main()
