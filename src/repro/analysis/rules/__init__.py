"""Shipped rules; importing this package registers them all."""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    drift,
    exceptions,
    locks,
    numpy_hotpath,
    unused_export,
    wire_compat,
)
