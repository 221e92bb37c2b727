"""Publish-point and durable-metadata annotations for the static verifier.

Espresso's crash-consistency story rests on the *persist-then-publish*
discipline (NVTraverse / Friedman et al.: persist at the destination
before anything can reach it): a payload's cache lines are flushed and
fenced strictly before the single store that makes the payload reachable
after a crash.  The dynamic hazard passes (ESP201-205) prove this per
*trace*; the static pass (:mod:`repro.analysis.static_order`, ESP5xx)
proves it per *path* — but to do that it has to know which calls in the
source ARE publishes.

This module is that declaration surface:

* :func:`publish_point` marks a function whose *call* is a publication:
  after it returns, a crash-recoverable path can reach whatever the
  arguments referenced.  The decorator is a runtime no-op (it returns
  the function unchanged); the static analyzer recognises it
  syntactically, so annotated subsystems incur zero overhead and no
  import-order coupling.

* :func:`durable_metadata` marks a function that mutates durable
  structures *in place* (splicing a persistent hashmap chain, rewriting
  a PCJ header word).  In-place durable mutation is only crash-safe
  under undo-log/transaction coverage, so the ESP502 rule requires every
  store inside such a function to be dominated by an undo-log call
  (``log_slot`` / ``tx_add_range`` / an active ``tx_begin``) or an
  enclosing transaction ``with`` block.

Enforcement lives entirely in the static pass.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def publish_point(label: str) -> Callable[[F], F]:
    """Declare *label* as the publication a call to this function performs.

    The decorated function is returned unchanged.  Static semantics
    (ESP501): every in-scope path that reaches a call to this function
    must first flush and fence the payload being published; the
    function's *own* body is exempt — it IS the publish, so the
    obligation sits with its callers.
    """
    return lambda func: func


def durable_metadata(label: str) -> Callable[[F], F]:
    """Declare that this function mutates durable metadata in place.

    Static semantics (ESP502): every store inside the decorated function
    must be covered by an undo log — dominated by a ``log_slot`` /
    ``tx_add_range`` / ``tx_begin`` call or nested in a transaction
    ``with`` block — so a crash mid-mutation can always roll back.
    """
    return lambda func: func
