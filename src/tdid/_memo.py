"""Bounded per-process memos: dicts that keep their newest entries."""

from __future__ import annotations


def remember(memo: dict, key, value, cap: int) -> None:
    """Store ``value`` under ``key``, first evicting the oldest entry if
    ``memo`` already holds ``cap`` of them."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value
