"""The solver's errors, importable without the solver and its numpy:
``cli.main`` catches ``CapError`` on every command."""

from __future__ import annotations

from .model import ModelError


class SolveError(ModelError):
    """The diagram cannot be solved as posed."""


class CapError(SolveError):
    """A resource cap refuses the work before it starts."""


class OracleCapError(CapError):
    """The brute-force policy space or dense joint exceeds its cap."""


class SolveCapError(CapError):
    """The solver's frontier or search bound exceeds its cap."""
