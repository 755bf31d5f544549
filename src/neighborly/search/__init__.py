"""Exact maximum-family search over the compatibility graph."""

from ._kernel import HAVE_COMPILED, KERNEL_NAME, get_kernel
from .graph import CompatGraph, build_graph
from .solver import (
    Budget,
    Certification,
    SearchResult,
    STATUS_LOWER_BOUND_ONLY,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    certify,
    max_family,
)

__all__ = [
    "Budget",
    "Certification",
    "CompatGraph",
    "HAVE_COMPILED",
    "KERNEL_NAME",
    "SearchResult",
    "STATUS_LOWER_BOUND_ONLY",
    "STATUS_OPTIMAL",
    "STATUS_TIMEOUT",
    "build_graph",
    "certify",
    "get_kernel",
    "max_family",
]
