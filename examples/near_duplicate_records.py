"""Near-duplicate record detection with set similarity search (Enron/DBLP use case).

Records are token sets; the query asks for every record whose Jaccard
similarity is at least ``tau``.  The workload runs through the unified query
engine's ``sets`` backend, which serves all of the paper's Figure-10
contenders (AdaptSearch, PartAlloc, pkwise, pigeonring) behind the same
``Query`` API; the queries are then answered twice, the second pass from
the result cache the first one filled.

Run with:  python examples/near_duplicate_records.py
"""

from repro.datasets.tokens import dblp_like
from repro.engine import Query, SearchEngine
from repro.experiments.harness import engine_comparison_rows, format_rows
from repro.sets import SetDataset


def main() -> None:
    workload = dblp_like(num_records=2000, num_queries=20, seed=3)
    tau = 0.8

    engine = SearchEngine()
    engine.add_dataset("sets", SetDataset(workload.records, num_classes=4))
    print(
        f"dataset: {workload.num_records} records, avg size "
        f"{workload.avg_record_size:.1f} tokens; Jaccard threshold {tau}\n"
    )

    algorithms = {
        "AdaptSearch": {"algorithm": "adapt"},
        "PartAlloc": {"algorithm": "partalloc"},
        "pkwise": {"algorithm": "baseline"},
        "Ring (l=2)": {"algorithm": "ring", "chain_length": 2},
    }
    rows = engine_comparison_rows(
        engine, "sets", "dblp-like", tau, algorithms, list(workload.queries)
    )
    print(format_rows(rows))

    queries = [
        Query(backend="sets", payload=payload, tau=tau) for payload in workload.queries
    ]
    first = [engine.search(query) for query in queries]
    second = [engine.search(query) for query in queries]
    agree = all(a.ids == b.ids for a, b in zip(first, second))
    cached = sum(response.cached for response in second)
    print(f"\nfirst and second pass agree: {agree} ({cached} served from the cache)")


if __name__ == "__main__":
    main()
