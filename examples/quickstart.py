"""Quickstart: from the pigeonring principle to a served query in one page.

The paper's running example (Figure 1) shows why the pigeonring principle
filters more than the pigeonhole principle; this quickstart shows the other
end of the repo: the same machinery served over HTTP.  It builds a small
Hamming workload, attaches it to a `SearchEngine`, spawns the asyncio JSON
server on a free local port, and queries it through the blocking
`EngineClient` -- thresholded selection, top-k, and the server's own
health and stats introspection.

Run with:  python examples/quickstart.py
"""

from repro.core import passes_pigeonhole, passes_pigeonring_basic
from repro.datasets.binary import gist_like
from repro.engine import EngineClient, SearchEngine, ServerThread
from repro.hamming import BinaryVectorDataset


def main() -> None:
    # The principle in one line: the Figure 1(a) layout passes the
    # pigeonhole test but fails the chain test, so pigeonring prunes it.
    boxes, threshold = (2, 1, 2, 2, 1), 5
    print(
        f"layout {boxes} vs threshold {threshold}: "
        f"pigeonhole={passes_pigeonhole(boxes, threshold)}, "
        f"pigeonring(l=2)={passes_pigeonring_basic(boxes, threshold, 2)}\n"
    )

    # Build a workload and attach it to an engine.
    workload = gist_like(num_vectors=2000, num_queries=8, seed=7)
    dataset = BinaryVectorDataset(workload.vectors, num_parts=8)
    engine = SearchEngine()
    engine.add_dataset("hamming", dataset)

    # Spawn the HTTP/JSON server locally (port 0 picks a free port) and
    # talk to it exactly like a remote client would.
    with ServerThread(engine) as server:
        print(f"engine serving at {server.url}")
        with EngineClient(server.url) as client:
            manifest = client.manifest()
            descriptor = manifest["backends"]["hamming"]["descriptor"]
            print(
                f"manifest: {descriptor['num_objects']} binary codes, "
                f"d={descriptor['d']}, {descriptor['num_parts']} parts\n"
            )

            query = workload.queries[0]
            hits = client.search("hamming", query, tau=40)
            print(
                f"tau=40 selection: {hits.num_results} match(es), "
                f"{hits.num_candidates} candidate(s), "
                f"{hits.engine_time_ms:.2f} ms in the engine"
            )

            top = client.search_topk("hamming", query, k=5)
            print(f"top-5 (ladder stopped at tau={top.tau_effective}):")
            for obj_id, score in zip(top.ids, top.scores):
                print(f"  id={obj_id}  hamming distance={score:.0f}")

            health = client.healthz()
            stats = client.stats()["server"]
            print(f"\nhealth={health['status']}  served {stats['num_queries']} queries")
    print("server drained and stopped")


if __name__ == "__main__":
    main()
