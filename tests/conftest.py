"""Fixtures shared by the test modules."""

import pytest

from egtree.harness import read_run_log, run


@pytest.fixture(scope="session")
def run_log(tmp_path_factory):
    """``run_log(config, ys, xs=None)``: the :class:`RunLog` of a run that
    ``harness.run`` streamed to a fresh directory, read back as
    ``verify-bounds`` and ``report`` read it."""
    def logged(config, ys, xs=None):
        outdir = tmp_path_factory.mktemp("run")
        run(config, ys, xs, outdir)
        return read_run_log(outdir)
    return logged
