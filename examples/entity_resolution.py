"""Entity resolution with string edit distance search (the paper's IMDB use case).

Alternative spellings of the same name differ by a few edit operations; a
string similarity search with a small edit distance threshold retrieves
them.  The workload runs through the unified query engine: the dataset
registers with the ``strings`` backend, the Pivotal baseline and the
pigeonring searcher answer the same ``Query`` workload -- a miniature of
the paper's Figure 11 -- and the engine then resolves one name end-to-end,
including a top-k search the offline figure scripts never expose.

Run with:  python examples/entity_resolution.py
"""

from repro.datasets.text import imdb_like
from repro.engine import Query, SearchEngine
from repro.experiments.harness import engine_comparison_rows, format_rows
from repro.strings import StringDataset


def main() -> None:
    workload = imdb_like(num_records=2000, num_queries=15, seed=11)
    dataset = StringDataset(workload.records, kappa=2)
    tau = 2

    engine = SearchEngine()
    engine.add_dataset("strings", dataset)
    print(f"dataset: {len(dataset)} names, edit distance threshold {tau}\n")

    algorithms = {
        "Pivotal": {"algorithm": "baseline"},
        "Ring": {"algorithm": "ring"},
    }
    rows = engine_comparison_rows(
        engine, "strings", "imdb-like", tau, algorithms, list(workload.queries)
    )
    print(format_rows(rows))

    query = workload.queries[0]
    matches = engine.search(Query(backend="strings", payload=query, tau=tau))
    print(f"\nquery {query!r} matches {matches.num_results} name(s):")
    for obj_id in matches.ids[:10]:
        print(f"  - {dataset.record(obj_id)!r}")

    nearest = engine.search(Query(backend="strings", payload=query, k=3))
    print("\nclosest 3 names by edit distance:")
    for obj_id, score in zip(nearest.ids, nearest.scores):
        print(f"  - {dataset.record(obj_id)!r}  (distance {score:.0f})")

    stats = engine.stats.snapshot()
    print(
        f"\nengine served {stats['num_queries']} queries, "
        f"avg latency {stats['avg_engine_time_ms']:.2f} ms"
    )


if __name__ == "__main__":
    main()
