"""Session-scoped Ray fixture (one init per pytest session, per driver contract)."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def executions(monkeypatch):
    """Every Ray Data execution started while the test runs, as its operator
    chain from the last operator back to the input, e.g.
    ``MapBatches(reduce) <- Sort <- MapBatches(pre) <- Input``."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    seen = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        names, stack = [], [dag]
        while stack:
            op = stack.pop()
            names.append(op.name)
            stack.extend(op.input_dependencies)
        seen.append(" <- ".join(names))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return seen
