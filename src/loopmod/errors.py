"""Typed errors shared across the engine.

Every error carries a structured ``data`` payload so the CLI can emit it as a
machine-readable diagnostic, and the CLI exits with its ``exit_code``: 2 for
malformed input, resource caps and unsupported requests, 3 for the typed
structure errors, 4 for ``InternalError``, which the CLI wraps around any
other exception.
"""

from __future__ import annotations


class EngineError(Exception):
    exit_code = 2

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


class InputError(EngineError):
    """Malformed or invalid input (files, parameters, schema)."""


class OrderMismatchError(EngineError):
    """Arithmetic mixing scalars of different cyclotomic order."""


class TrivialModuleError(EngineError):
    """All weights in the table are zero; no nontrivial module exists."""

    exit_code = 3


class NoPeriodWithinBoundError(EngineError):
    """No axis period found within the search bound."""

    exit_code = 3


class SupportNotSubgroupError(EngineError):
    """The nonvanishing degree set failed the subgroup closure audit."""

    exit_code = 3


class StructureViolationError(EngineError):
    """Input violates the block/divisibility structure of classified modules."""

    exit_code = 3


class ImageMismatchError(EngineError):
    """Twisted classification requested on data whose restricted image is smaller."""

    exit_code = 3


class InfiniteIndexError(EngineError):
    """Operation requires a finite-index (full-rank) lattice."""


class CapExceededError(EngineError):
    """A resource cap exceeded: the realizer's dimension cap, or the
    interpreter's digit limit for writing an integer in a report."""


class RealizationMismatchError(EngineError):
    """Realized graded components failed a decomposition consistency check."""


class UnsupportedError(EngineError):
    """Requested a combination outside the supported tables."""


class InternalError(EngineError):
    """An exception that is not an ``EngineError``: a fault of the engine."""

    exit_code = 4
