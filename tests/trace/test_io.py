"""Unit tests for trace serialization."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.instrument.records import TimesliceRecord, TraceLog
from repro.trace import load_trace, load_traces, save_trace, save_traces


def make_log(rank=0, n=5):
    log = TraceLog(rank=rank, timeslice=1.0, page_size=16384,
                   app_name="tracer")
    for i in range(n):
        log.append(TimesliceRecord(
            index=i, t_start=float(i), t_end=float(i + 1),
            iws_pages=i * 3, iws_bytes=i * 3 * 16384,
            footprint_bytes=1 << 22, faults=i, received_bytes=i * 100,
            overhead_time=i * 1e-4))
    return log


def test_roundtrip(tmp_path):
    log = make_log()
    save_trace(log, tmp_path / "run")
    loaded = load_trace(tmp_path / "run")
    assert loaded.rank == log.rank
    assert loaded.timeslice == log.timeslice
    assert loaded.page_size == log.page_size
    assert loaded.app_name == log.app_name
    assert len(loaded) == len(log)
    assert np.array_equal(loaded.iws_bytes(), log.iws_bytes())
    assert np.array_equal(loaded.faults(), log.faults())
    assert np.allclose(loaded.overhead_time(), log.overhead_time())


def test_roundtrip_empty_log(tmp_path):
    log = make_log(n=0)
    save_trace(log, tmp_path / "empty")
    loaded = load_trace(tmp_path / "empty")
    assert len(loaded) == 0


def test_npz_suffix_tolerated(tmp_path):
    log = make_log()
    path = save_trace(log, tmp_path / "run.npz")
    assert path.name == "run.npz"
    loaded = load_trace(tmp_path / "run.npz")
    assert len(loaded) == len(log)


def test_json_suffix_tolerated(tmp_path):
    """The metadata sibling's name must address the same trace."""
    log = make_log()
    save_trace(log, tmp_path / "run")
    loaded = load_trace(tmp_path / "run.json")
    assert len(loaded) == len(log)


def test_dotted_stem_survives_normalization(tmp_path):
    """A dotted basename like run.v2 must not be truncated to run by
    suffix handling (the with_suffix pitfall)."""
    log = make_log()
    path = save_trace(log, tmp_path / "run.v2")
    assert path.name == "run.v2.npz"
    assert (tmp_path / "run.v2.json").exists()
    for alias in ("run.v2", "run.v2.npz", "run.v2.json"):
        assert len(load_trace(tmp_path / alias)) == len(log)


def test_directory_target_rejected(tmp_path):
    (tmp_path / "adir").mkdir()
    with pytest.raises(ConfigurationError, match="directory"):
        save_trace(make_log(), tmp_path / "adir")
    with pytest.raises(ConfigurationError, match="directory"):
        load_trace(tmp_path / "adir")


def test_roundtrip_nonfinite_values(tmp_path):
    """NaN/inf in float columns must survive the npz round trip (JSON
    would have mangled them; the columns live in npz precisely so they
    do not)."""
    import dataclasses

    base = make_log(n=3)
    log = TraceLog(rank=base.rank, timeslice=base.timeslice,
                   page_size=base.page_size, app_name=base.app_name)
    log.append(base.records[0])
    log.append(dataclasses.replace(base.records[1], t_end=float("inf")))
    log.append(dataclasses.replace(base.records[2],
                                   overhead_time=float("nan")))
    save_trace(log, tmp_path / "weird")
    loaded = load_trace(tmp_path / "weird")
    assert loaded.records[1].t_end == float("inf")
    assert np.isnan(loaded.records[2].overhead_time)
    assert loaded.records[0].t_end == log.records[0].t_end


def test_missing_trace_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_trace(tmp_path / "nothing")


def test_version_mismatch_rejected(tmp_path):
    log = make_log()
    save_trace(log, tmp_path / "run")
    meta = json.loads((tmp_path / "run.json").read_text())
    meta["format_version"] = 99
    (tmp_path / "run.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigurationError):
        load_trace(tmp_path / "run")


def test_save_load_many(tmp_path):
    logs = {r: make_log(rank=r, n=3 + r) for r in range(4)}
    paths = save_traces(logs, tmp_path / "traces")
    assert len(paths) == 4
    loaded = load_traces(tmp_path / "traces")
    assert sorted(loaded) == [0, 1, 2, 3]
    assert len(loaded[3]) == 6


def test_load_traces_missing_dir(tmp_path):
    with pytest.raises(ConfigurationError):
        load_traces(tmp_path / "nope")
    (tmp_path / "empty").mkdir()
    with pytest.raises(ConfigurationError):
        load_traces(tmp_path / "empty")


# -- damaged traces: ConfigurationError naming the file, never a raw error ----

def _damaged(tmp_path, *, meta=None, meta_text=None, npz_bytes=None,
             columns=None):
    """A saved trace with one sibling replaced; returns its basename."""
    base = tmp_path / "run"
    save_trace(make_log(n=5), base)
    meta_path, npz_path = tmp_path / "run.json", tmp_path / "run.npz"
    if meta is not None:
        meta_text = json.dumps(meta(json.loads(meta_path.read_text())))
    if meta_text is not None:
        meta_path.write_text(meta_text)
    if npz_bytes is not None:
        npz_path.write_bytes(npz_bytes(npz_path.read_bytes()))
    if columns is not None:
        with np.load(npz_path) as data:
            arrays = columns({name: data[name] for name in data.files})
        np.savez_compressed(npz_path, **arrays)
    return base


def _drop(key):
    def edit(mapping):
        del mapping[key]
        return mapping
    return edit


@pytest.mark.parametrize("damage, culprit", [
    (dict(meta_text='{"format_version": 1, "rank"'), "run.json"),
    (dict(meta_text="[1, 2]"), "run.json"),
    (dict(meta=_drop("rank")), "run.json"),
    (dict(meta=_drop("n_slices")), "run.json"),
    (dict(meta=lambda m: {**m, "timeslice": "fast"}), "run.json"),
    (dict(npz_bytes=lambda raw: raw[:len(raw) // 2]), "run.npz"),
    (dict(npz_bytes=lambda raw: b"garbage"), "run.npz"),
    (dict(columns=_drop("t_end")), "run.npz"),
    (dict(columns=lambda cols: {**cols, "faults": cols["faults"][:2]}),
     "run.npz"),
    (dict(meta=lambda m: {**m, "n_slices": 9}), "run.npz"),
    (dict(meta=lambda m: {**m, "n_slices": -1}), "run.json"),
], ids=["truncated-meta", "meta-not-object", "missing-rank",
        "missing-n_slices", "mistyped-timeslice", "truncated-npz",
        "garbage-npz", "missing-column", "short-column",
        "n_slices-too-large", "n_slices-negative"])
def test_damaged_trace_raises_configuration_error(tmp_path, damage,
                                                  culprit):
    base = _damaged(tmp_path, **damage)
    with pytest.raises(ConfigurationError, match=culprit):
        load_trace(base)
