"""Shared fixtures: interned contexts/tables and the acceptance summary."""

from __future__ import annotations

from functools import lru_cache

import pytest

from padichg import GammaTable, make_prime_ctx


@lru_cache(maxsize=None)
def cached_ctx(p: int):
    return make_prime_ctx(p)


@lru_cache(maxsize=None)
def cached_table(p: int, n: int = 3) -> GammaTable:
    return GammaTable(cached_ctx(p), n)


@pytest.fixture(scope="session")
def ctx_of():
    """Factory for interned PrimeContexts, shared across the whole run."""
    return cached_ctx


@pytest.fixture(scope="session")
def table_of():
    """Factory for interned GammaTables keyed by (p, n)."""
    return cached_table


_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    """Collector for the acceptance criteria; one line per criterion."""

    def record(num: int, ok: bool, detail: str) -> bool:
        _criterion_lines.append(
            f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        )
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
