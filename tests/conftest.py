"""Fixtures shared across the test tree."""

from __future__ import annotations

import threading

import pytest

from repro.runner.netqueue import SpoolServer


@pytest.fixture()
def spoold(tmp_path):
    """A live ``spoold`` server over a tmp spool directory."""
    server = SpoolServer(tmp_path / "served-spool", host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5.0)
