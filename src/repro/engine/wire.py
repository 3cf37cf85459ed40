"""The JSON wire format of the network serving layer.

Requests and responses travelling between :mod:`repro.engine.client` and
:mod:`repro.engine.server` are schema-versioned JSON objects.  A request
body is the wire form of one :class:`repro.engine.api.Query`::

    {
      "schema_version": 1,            # optional; rejected when unsupported
      "backend": "hamming",           # registered backend name
      "payload": [0, 1, 0, ...],      # domain payload, via Backend.payload_to_wire
      "tau": 32,                      # threshold (int/float distinction preserved)
      "k": 5,                         # top-k result count (/search/topk only)
      "chain_length": null,
      "algorithm": "ring"
    }

and a response body is the wire form of one :class:`Response` plus serving
metadata (``batch_size``, always 1: each query is its own engine call).
Domain payloads cross the wire through ``Backend.payload_to_wire`` /
``payload_from_wire``: token-id lists and strings are JSON-native, binary
vectors become 0/1 integer lists, graphs become ``{vertices, edges}``
objects.  JSON keeps the int/float distinction for ``tau``, which is
semantic for the sets backend (int = overlap, float = Jaccard).

Mutations use the same conventions.  The batched ``POST /mutate`` carries::

    {
      "schema_version": 2,
      "backend": "sets",
      "ops": [{"op": "upsert", "id": 7, "record": [...]},
              {"op": "delete", "id": 3}],
      "durability": "wal"               # optional: "memory" | "wal"
    }

(see :func:`encode_mutate` / :func:`decode_mutate`, which add only the
envelope: each op crosses through the WAL's own codec,
:func:`repro.engine.wal.op_to_wire` / :func:`~repro.engine.wal.op_from_wire`,
its ids through :func:`repro.engine.mutation.check_ops`, and the level
through :func:`repro.engine.wal.check_durability`); the response reports
per-op results plus the durability level and WAL sequence number the batch
was acknowledged at.  ``POST /compact`` carries an optional ``{backend}``
(see :func:`decode_compact`).

Schema versioning: version 2 added ``/mutate`` and the ``durability``
field; version 3 added the read-your-writes ``session`` token -- a
``"shard:seq,shard:seq"`` rendering of the ``wal_seq`` map a mutation was
acknowledged at (see :func:`format_session` / :func:`parse_session`),
carried on queries so a replicated server can skip replicas that have not
caught up with the caller's own writes; version 4 removed the one-op
``/upsert`` and ``/delete`` bodies (a one-op write is a ``/mutate`` batch
of one).  ``/search`` and ``/mutate`` bodies of every version decode the
same way, so servers accept all of them
(:data:`SUPPORTED_WIRE_SCHEMA_VERSIONS`) and old clients of those
endpoints keep working unchanged.

Every malformed input raises :class:`WireFormatError`, which the server
maps to HTTP 400 with the message in the body -- clients see *why* the
request was rejected instead of a stack trace deep inside a backend.
"""

from __future__ import annotations

from typing import Any

from repro.engine.api import Query, Response
from repro.engine.backend import available_backends, get_backend
from repro.engine.mutation import check_ops
from repro.engine.wal import check_durability, op_from_wire, op_to_wire

#: Version of the request/response JSON schema (bump on incompatible changes).
WIRE_SCHEMA_VERSION = 4

#: Versions this server still decodes (each is a subset of the next).
SUPPORTED_WIRE_SCHEMA_VERSIONS = frozenset({1, 2, 3, 4})


class WireFormatError(ValueError):
    """A request body that cannot be decoded into a valid :class:`Query`."""


def format_session(wal_seqs: Any) -> str | None:
    """Render a mutation's ``wal_seq`` map as a session token.

    The replicated engine acknowledges a batch with ``{"shard": seq}``
    (one entry per touched shard); the token is the comma-joined
    ``shard:seq`` rendering, stable under merging.  Returns None when
    there is nothing durable to wait for (an unsharded or WAL-less ack).
    """
    if not isinstance(wal_seqs, dict):
        return None
    parts = []
    for shard, seq in wal_seqs.items():
        if seq is None:
            continue
        parts.append((int(shard), int(seq)))
    if not parts:
        return None
    return ",".join(f"{shard}:{seq}" for shard, seq in sorted(parts))


def parse_session(token: str | None) -> dict[int, int]:
    """Decode a session token into its ``{shard: seq}`` floor map.

    Tolerant by design: a malformed token (or fragment) is treated as no
    constraint rather than an error -- read-your-writes is a routing hint,
    and a garbled hint must never turn a valid query into a 400.
    """
    floors: dict[int, int] = {}
    if not token or not isinstance(token, str):
        return floors
    for part in token.split(","):
        shard, _sep, seq = part.partition(":")
        try:
            shard_id, floor = int(shard), int(seq)
        except ValueError:
            continue
        if shard_id < 0 or floor <= 0:
            continue  # no real shard/seq is negative; a 0 floor is no floor
        floors[shard_id] = max(floors.get(shard_id, 0), floor)
    return floors


def merge_session(*tokens: str | None) -> str | None:
    """Combine session tokens, keeping the highest floor per shard.

    A client that mutates twice must wait for the *later* of the two acks
    on every shard; merging the tokens keeps one compact cursor.
    """
    floors: dict[int, int] = {}
    for token in tokens:
        for shard, seq in parse_session(token).items():
            floors[shard] = max(floors.get(shard, 0), seq)
    if not floors:
        return None
    return ",".join(f"{shard}:{seq}" for shard, seq in sorted(floors.items()))


def _check_schema_version(body: dict) -> None:
    version = body.get("schema_version", WIRE_SCHEMA_VERSION)
    if version not in SUPPORTED_WIRE_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_WIRE_SCHEMA_VERSIONS))
        raise WireFormatError(
            f"unsupported wire schema {version!r} (this server speaks {supported})"
        )


def encode_query(query: Query) -> dict:
    """The JSON-serialisable wire form of one query (client side)."""
    backend = get_backend(query.backend)
    body: dict[str, Any] = {
        "schema_version": WIRE_SCHEMA_VERSION,
        "backend": query.backend,
        "payload": backend.payload_to_wire(query.payload),
        "algorithm": query.algorithm,
    }
    if query.tau is not None:
        body["tau"] = query.tau
    if query.k is not None:
        body["k"] = query.k
    if query.chain_length is not None:
        body["chain_length"] = query.chain_length
    if query.session is not None:
        body["session"] = query.session
    return body


def decode_query(body: Any) -> Query:
    """Decode a request body into a :class:`Query` (server side).

    Raises :class:`WireFormatError` for every malformed input: wrong JSON
    shape, unknown backend, undecodable payload, or parameters the
    :class:`Query` validator rejects (non-int ``k``, NaN ``tau``, ...).
    """
    backend = _decode_backend(body)
    backend_name = backend.name
    if "payload" not in body:
        raise WireFormatError("the request is missing 'payload'")
    try:
        payload = backend.payload_from_wire(body["payload"])
    except WireFormatError:
        raise
    except Exception as exc:
        raise WireFormatError(f"undecodable {backend_name!r} payload: {exc}") from exc
    algorithm = body.get("algorithm", "ring")
    if not isinstance(algorithm, str):
        raise WireFormatError("'algorithm' must be a string")
    session = body.get("session")
    if session is not None and not isinstance(session, str):
        raise WireFormatError("'session' must be a session token string")
    try:
        backend.check_algorithm(algorithm)
        query = Query(
            backend=backend_name,
            payload=payload,
            tau=body.get("tau"),
            k=body.get("k"),
            chain_length=body.get("chain_length"),
            algorithm=algorithm,
            session=session,
        )
        if query.tau is not None:
            # Domain-specific threshold semantics (e.g. sets: Jaccard in
            # (0, 1], overlap >= 1) are rejected here, at 400 time, instead
            # of surfacing as an obscure error deep inside a searcher.
            backend.validate_tau(query.tau)
        return query
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


def _decode_backend(body: Any, required: bool = True) -> Any:
    """Resolve the ``backend`` field of a request body."""
    if not isinstance(body, dict):
        raise WireFormatError("the request body must be a JSON object")
    _check_schema_version(body)
    backend_name = body.get("backend")
    if backend_name is None and not required:
        return None
    if not isinstance(backend_name, str):
        raise WireFormatError("'backend' must be a backend name string")
    try:
        backend = get_backend(backend_name)
    except KeyError:
        raise WireFormatError(
            f"unknown backend {backend_name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return backend


def encode_mutate(
    backend_name: str,
    ops: list[dict],
    durability: str | None = None,
) -> dict:
    """The wire form of one mutation batch (client side).

    Each op is ``{"op": "upsert", "record": <raw record>, "id": optional}``
    or ``{"op": "delete", "id": int}``, validated by the engines' own
    :func:`repro.engine.mutation.check_ops` and encoded by the WAL's
    :func:`repro.engine.wal.op_to_wire`, so callers pass domain-native
    records.  This function adds only the envelope.
    """
    backend = get_backend(backend_name)
    body: dict[str, Any] = {
        "schema_version": WIRE_SCHEMA_VERSION,
        "backend": backend_name,
        "ops": [op_to_wire(backend, op) for op in check_ops(ops)],
    }
    if durability is not None:
        body["durability"] = durability
    return body


def decode_mutate(body: Any) -> tuple[str, list[dict], str | None]:
    """Decode a ``/mutate`` body into ``(backend, ops, durability)``.

    Ops come back in the engine's form (records decoded by
    :func:`repro.engine.wal.op_from_wire`, ids checked by
    :func:`repro.engine.mutation.check_ops`); every malformed op raises
    :class:`WireFormatError` naming its position in the batch.
    """
    backend = _decode_backend(body)
    ops = body.get("ops")
    if not isinstance(ops, list) or not ops:
        raise WireFormatError("'ops' must be a non-empty list of mutation ops")
    decoded: list[dict] = []
    for position, doc in enumerate(ops):
        try:
            if not isinstance(doc, dict):
                raise ValueError("must be a JSON object")
            decoded.extend(check_ops([op_from_wire(backend, doc)]))
        except ValueError as exc:
            raise WireFormatError(f"ops[{position}]: {exc}") from exc
    durability = body.get("durability")
    try:
        check_durability(durability)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from None
    return backend.name, decoded, durability


def decode_compact(body: Any) -> str | None:
    """Decode a ``/compact`` body into its optional backend name."""
    if body is None:
        return None
    backend = _decode_backend(body, required=False)
    return None if backend is None else backend.name


def encode_response(response: Response) -> dict:
    """The JSON-serialisable wire form of one response (server side).

    ``batch_size`` is always 1 -- every query is its own engine call -- and
    stays in the schema until a version bump drops it.  A span timeline is
    attached under ``"trace"`` only when the query was traced, keeping
    untraced responses byte-identical to schema v1.
    """
    doc = {
        "schema_version": WIRE_SCHEMA_VERSION,
        "ids": [int(obj_id) for obj_id in response.ids],
        "scores": (
            None
            if response.scores is None
            else [float(score) for score in response.scores]
        ),
        "tau_effective": response.tau_effective,
        "num_results": response.num_results,
        "num_candidates": response.num_candidates,
        "num_generated": response.num_generated,
        "engine_time_ms": response.engine_time * 1000.0,
        "cached": response.cached,
        "batch_size": 1,
    }
    if response.trace is not None:
        doc["trace"] = response.trace
    return doc
