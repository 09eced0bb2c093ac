"""Shared test fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left_behind():
    # the chunk map forks workers; each must be reaped before its call returns
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
