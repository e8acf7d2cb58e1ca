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
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


# read_events sizes a small table from its parquet footer, and a few-row
# events table has about 480 footer bytes per row group, so it reads as one
# block. Tests that mean to cover multi-block partitions request this
# fixture: it lowers Ray's target_min_block_size below one row group, so any
# non-empty table reads as two blocks or more (tables past 2 x CPUs x this
# size take Ray's own split).
SPLIT_MIN_BLOCK_BYTES = 256


@pytest.fixture
def split_reads(monkeypatch):
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", SPLIT_MIN_BLOCK_BYTES)


@pytest.fixture(scope="session")
def small_fixture():
    """(pages Table, signals Table) at sf-small, deterministic."""
    from audio_feature_extraction_ray.testdata import generate_pages

    return generate_pages(2000)


@pytest.fixture(scope="session")
def small_fixture_dir(tmp_path_factory):
    """Materialized parquet fixture: (pages_dir, signals_path)."""
    from audio_feature_extraction_ray.testdata import materialize_fixture

    d = tmp_path_factory.mktemp("afe_small")
    return materialize_fixture(d, 2000, n_files=2)
