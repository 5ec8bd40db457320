"""Staged publish: atomic replace on success, no leftovers on failure."""

import pytest

from repro.util.staging import STAGING_SUFFIX, staged, sweep_staging


def test_publishes_on_clean_exit(tmp_path):
    target = tmp_path / "entry"
    target.write_text("old")
    with staged(target) as staging:
        assert staging.parent == tmp_path
        assert staging.suffix == STAGING_SUFFIX
        staging.write_text("new")
        assert target.read_text() == "old"  # invisible until the block ends
    assert target.read_text() == "new"
    assert list(tmp_path.iterdir()) == [target]


def test_failure_keeps_the_old_file_and_leaves_no_staging(tmp_path):
    target = tmp_path / "entry"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with staged(target) as staging:
            staging.write_text("torn")
            raise RuntimeError("writer died")
    assert target.read_text() == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_sweep_ignores_other_files_and_missing_directories(tmp_path):
    (tmp_path / "entry").write_text("x")
    (tmp_path / f"orphan{STAGING_SUFFIX}").write_text("x")
    assert sweep_staging(tmp_path / "absent") == 0
    assert sweep_staging(tmp_path, min_age_s=0.0) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["entry"]
