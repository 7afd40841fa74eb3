"""Process defaults and shared fixtures for the whole suite.

Forked pool workers run in this process in several tests.  OpenBLAS starts a
worker thread when numpy loads unless ``OPENBLAS_NUM_THREADS`` is 1, and a
test module that imports numpy before ``mnlbandit.cli`` would load it before
the CLI sets that default; forking beside a second thread risks a deadlock in
the child.  So the suite sets the CLI's default first, and a value already set
in the environment wins, as it does for the CLI.  On Linux a hook counts this
process's OS threads at every fork of the session, and a test whose forks saw
more than one fails.
"""

import os
import sys

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: The OS thread count at each fork of the running test, in order.
_fork_threads = []

if sys.platform == "linux":
    os.register_at_fork(before=lambda: _fork_threads.append(len(os.listdir("/proc/self/task"))))


@pytest.fixture(autouse=True)
def fork_threads():
    """This test's forks' thread counts (filled on Linux only); the test
    fails if any fork saw a thread beside the forking one."""
    _fork_threads.clear()
    yield _fork_threads
    assert all(count == 1 for count in _fork_threads), (
        f"forked beside other threads: {_fork_threads} threads at each fork"
    )


@pytest.fixture(scope="session")
def instance_file(tmp_path_factory):
    """``instance_file(*gen_flags)``: the path of the file that
    ``mnlbandit gen <gen_flags> --out <path>`` writes, made once per session
    and outside every test's ``tmp_path``."""
    from mnlbandit.cli import main

    folder = tmp_path_factory.mktemp("instances")
    paths = {}

    def make(*flags):
        if flags not in paths:
            path = str(folder / f"{len(paths)}.inst")
            assert main(["gen", *flags, "--out", path]) == 0, flags
            paths[flags] = path
        return paths[flags]

    return make
