"""Round-5 session-9 guard pins: the two exact-regime runtime guards from
the round-5 ADVICE sweep must actually FIRE when their contract is broken
(silently-wrong-at-scale is the failure mode they exist to prevent), and
must stay silent on conforming data."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _docs_fixture(tmp_path, texts, langs=None, name="sfd9"):
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs or ["en"] * n, pa.string()),
            "source": pa.array(["s"] * n, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=2)
    return str(sf)


def test_length_quantile_hist_overlong_doc_raises(ray_session, tmp_path):
    """A doc with n_chars >= LENGTH_QUANTILE_BINS would clamp into the top
    bin and silently diverge from the exact SQL oracle — the guard must
    refuse instead (ADVICE r5)."""
    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        LENGTH_QUANTILE_BINS,
        length_quantile_hist,
    )

    sf = _docs_fixture(
        tmp_path, ["short doc", "x" * LENGTH_QUANTILE_BINS], name="sfd9a"
    )
    with pytest.raises(Exception) as ei:
        length_quantile_hist(sf).materialize()
    # Ray wraps worker exceptions; the SchemaError must be in the chain
    assert "exact regime requires n_chars" in str(ei.value) or isinstance(
        ei.value, SchemaError
    )


def test_length_quantile_hist_boundary_doc_passes(ray_session, tmp_path):
    """n_chars == BINS - 1 is the last conforming value: guard stays silent
    and the quantiles are the exact order statistics + 0.5."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        LENGTH_QUANTILE_BINS,
        length_quantile_hist,
    )

    sf = _docs_fixture(
        tmp_path, ["abc", "x" * (LENGTH_QUANTILE_BINS - 1)], name="sfd9b"
    )
    df = length_quantile_hist(sf).to_pandas().set_index("lang")
    assert df.loc["en", "n"] == 2
    # p99 of {3, BINS-1}: smallest v with cum >= ceil(0.99*2)=2
    assert df.loc["en", "p99"] == (LENGTH_QUANTILE_BINS - 1) + 0.5


def test_hll_langs_exact_collision_raises(ray_session, tmp_path):
    """Force the collision the runtime audit exists to catch: with p=1
    (2 registers) and 3 distinct langs, pigeonhole guarantees two langs
    share a register — the exact-regime COUNT(DISTINCT) contract is
    violated and the op must raise, not undercount (ADVICE r5)."""
    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        hll_distinct_langs_exact,
    )

    sf = _docs_fixture(
        tmp_path, ["a", "b", "c"], langs=["en", "de", "fr"], name="sfd9c"
    )
    # the audit runs on the driver after the fold, so the SchemaError is
    # raised as is, not wrapped by Ray
    with pytest.raises(
        SchemaError,
        match=r"^hll_distinct_langs_exact collision: 3 distinct langs map to 2 registers at p=1 ",
    ):
        hll_distinct_langs_exact(sf, p=1)


def test_hll_langs_exact_audit_passes_at_default_width(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        hll_distinct_langs_exact,
    )

    sf = _docs_fixture(
        tmp_path, ["a", "b", "c", "d"], langs=["en", "de", "fr", "en"], name="sfd9d"
    )
    df = hll_distinct_langs_exact(sf)
    assert df.loc[0, "n_langs"] == 3
