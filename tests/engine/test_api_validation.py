"""Query parameter validation: fail fast with clear messages, not in backends."""

from __future__ import annotations

import pytest

from repro.engine import Query


def test_query_needs_tau_or_k():
    with pytest.raises(ValueError, match="threshold tau, a result count k"):
        Query(backend="hamming", payload=[0, 1])


@pytest.mark.parametrize("k", [0, -1, -100])
def test_non_positive_k_rejected(k):
    with pytest.raises(ValueError, match="k must be at least 1"):
        Query(backend="hamming", payload=[0, 1], k=k)


@pytest.mark.parametrize("k", [2.0, 2.5, "3", True, [1]])
def test_non_int_k_rejected(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        Query(backend="hamming", payload=[0, 1], k=k)


def test_nan_tau_rejected():
    with pytest.raises(ValueError, match="NaN"):
        Query(backend="hamming", payload=[0, 1], tau=float("nan"))


@pytest.mark.parametrize("tau", [float("inf"), float("-inf")])
def test_infinite_tau_rejected(tau):
    # -inf trips the negativity check, +inf the finiteness check; either
    # way the error is a clear ValueError, not an OverflowError deep in a
    # backend's int(tau).
    with pytest.raises(ValueError, match="finite|non-negative"):
        Query(backend="hamming", payload=[0, 1], tau=tau)


@pytest.mark.parametrize("tau", [-1, -0.5, -1e9])
def test_negative_tau_rejected(tau):
    with pytest.raises(ValueError, match="non-negative"):
        Query(backend="hamming", payload=[0, 1], tau=tau)


@pytest.mark.parametrize("tau", ["0.8", [1], True])
def test_non_numeric_tau_rejected(tau):
    with pytest.raises(ValueError, match="tau must be a number"):
        Query(backend="hamming", payload=[0, 1], tau=tau)


@pytest.mark.parametrize("chain_length", [0, -3])
def test_non_positive_chain_length_rejected(chain_length):
    with pytest.raises(ValueError, match="chain_length must be at least 1"):
        Query(backend="hamming", payload=[0, 1], tau=2, chain_length=chain_length)


@pytest.mark.parametrize("chain_length", [2.5, "2", True])
def test_non_int_chain_length_rejected(chain_length):
    with pytest.raises(ValueError, match="chain_length must be an integer"):
        Query(backend="hamming", payload=[0, 1], tau=2, chain_length=chain_length)


def test_valid_boundary_values_accepted():
    Query(backend="hamming", payload=[0, 1], tau=0)  # exact match search
    Query(backend="hamming", payload=[0, 1], k=1)
    Query(backend="sets", payload=[1, 2], tau=0.8, chain_length=1)


def test_numpy_scalars_accepted():
    import numpy as np

    query = Query(backend="hamming", payload=[0, 1], tau=np.int64(4), k=np.int64(3))
    assert query.tau == 4
    assert query.k == 3


# ---------------------------------------------------------------------------
# Backend-specific threshold validation (engine + wire surfaces)
# ---------------------------------------------------------------------------


def test_sets_zero_overlap_tau_rejected_with_clear_message(engine):
    """``tau=0`` used to fall through to an obscure predicate error.

    (Negative thresholds are already rejected by ``Query`` itself.)
    """
    with pytest.raises(ValueError, match="overlap threshold must be at least 1"):
        engine.search(Query(backend="sets", payload=[1, 2], tau=0))


@pytest.mark.parametrize("tau", [0.0])
def test_sets_zero_jaccard_tau_rejected_with_clear_message(engine, tau):
    with pytest.raises(ValueError, match="Jaccard threshold must be in \\(0, 1\\]"):
        engine.search(Query(backend="sets", payload=[1, 2], tau=tau))


def test_sets_non_integral_overlap_tau_rejected(engine):
    with pytest.raises(ValueError, match="must be integral"):
        engine.search(Query(backend="sets", payload=[1, 2], tau=2.5))


def test_sets_zero_tau_rejected_at_wire_decode_time():
    """The server rejects it as a 400 (WireFormatError), not a 500."""
    from repro.engine.wire import WireFormatError, decode_query

    with pytest.raises(WireFormatError, match="overlap threshold must be at least 1"):
        decode_query({"backend": "sets", "payload": [1, 2], "tau": 0})
    with pytest.raises(WireFormatError, match="Jaccard threshold"):
        decode_query({"backend": "sets", "payload": [1, 2], "tau": 0.0})


@pytest.mark.parametrize("name", ["hamming", "strings", "graphs"])
def test_distance_domains_accept_zero_tau(engine, query_payloads, name):
    """Distance 0 is a legitimate exact-match threshold outside ``sets``."""
    response = engine.search(
        Query(backend=name, payload=query_payloads[name][0], tau=0, algorithm="linear")
    )
    assert response.tau_effective == 0


# ---------------------------------------------------------------------------
# Hamming payloads: no silent coercion on the wire, no wrapping cache key
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        [0.5, 0.5],  # truncated to all zeros by a forced uint8 conversion
        [1.0, 0.0],  # floats, even integral ones, are not bits
        ["1", "0"],  # parsed by a forced conversion
        [[0, 1], [1, 0]],  # flattened by a reshape
        [[0, 1], [1]],
        [0, 2, 1],  # used to fail later, inside a coalesced batch
        [0, -1],
        [257, 0],
        [1, 2**70],
        [None, 1],
        [],
        "0101",
        {"0": 1},
        7,
        None,
    ],
)
def test_hamming_payload_must_be_flat_nonempty_bits(payload):
    from repro.engine import get_backend
    from repro.engine.wire import WireFormatError, decode_mutate, decode_query

    with pytest.raises(ValueError):
        get_backend("hamming").payload_from_wire(payload)
    # At the wire boundary that is a WireFormatError: a 400 at decode time,
    # for queries and for upserted records alike.
    with pytest.raises(WireFormatError, match="hamming"):
        decode_query({"backend": "hamming", "payload": payload, "tau": 1})
    with pytest.raises(WireFormatError, match="hamming"):
        decode_mutate({"backend": "hamming", "ops": [{"op": "upsert", "record": payload}]})


def test_hamming_payload_accepts_ints_and_bools():
    import numpy as np

    from repro.engine import get_backend
    from repro.engine.wire import decode_query

    vector = get_backend("hamming").payload_from_wire([1, 0, True, False])
    assert vector.dtype == np.uint8 and vector.tolist() == [1, 0, 1, 0]
    query = decode_query({"backend": "hamming", "payload": [0, 1, 1], "tau": 1})
    assert query.payload.tolist() == [0, 1, 1]


def test_hamming_query_key_does_not_wrap():
    import numpy as np

    from repro.engine import get_backend

    backend = get_backend("hamming")
    # One vector, one key, whatever it arrives as ...
    assert (
        backend.query_key([1, 0])
        == backend.query_key(np.array([1, 0], dtype=np.uint8))
        == backend.query_key(np.array([1.0, 0.0]))
    )
    # ... but values a byte cannot hold keep their own key: 257 used to wrap
    # onto 1 and could be served 1's cached answer.
    assert backend.query_key([257, 0]) != backend.query_key([1, 0])
    assert backend.query_key([256, 0]) != backend.query_key([0, 0])
    assert backend.query_key([-1, 0]) != backend.query_key([255, 0])
    assert backend.query_key([0.5, 0]) != backend.query_key([0, 0])


def test_hamming_invalid_vector_is_refused_not_served_from_cache():
    import numpy as np

    from repro.engine import SearchEngine

    engine = SearchEngine(cache_size=8)
    engine.add_dataset("hamming", np.array([[1, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8))
    assert engine.search(Query(backend="hamming", payload=[1, 0, 1, 0], tau=0)).ids == [0]
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        engine.search(Query(backend="hamming", payload=[257, 0, 1, 0], tau=0))
