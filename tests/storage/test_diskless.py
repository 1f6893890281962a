"""Unit tests for the diskless checkpoint sink."""

import pytest

from repro.errors import StorageError
from repro.net.models import LinkSpec
from repro.sim import Engine
from repro.storage import DisklessSink
from repro.units import MiB


def make_sink(capacity=100, bandwidth=100.0, memcpy=200.0):
    eng = Engine()
    link = LinkSpec("t", bandwidth=bandwidth, latency=1.0)
    return eng, DisklessSink(eng, link=link, memcpy_bandwidth=memcpy,
                             capacity=capacity)


def test_write_timing_includes_wire_and_memcpy():
    eng, sink = make_sink()
    fut = sink.write(100)
    eng.run()
    # 1.0 latency + 100/100 wire + 100/200 memcpy
    assert fut.value == pytest.approx(2.5)
    assert sink.bytes_written == 100
    assert sink.bytes_held == 100


def test_writes_serialize():
    eng, sink = make_sink(capacity=1000)
    f1 = sink.write(100)
    f2 = sink.write(100)
    eng.run()
    assert f2.value == pytest.approx(f1.value + 2.5)
    assert sink.queue_delay() == 0.0  # after completion


def test_capacity_enforced():
    eng, sink = make_sink(capacity=150)
    sink.write(100)
    with pytest.raises(StorageError):
        sink.write(100)


def test_release_frees_capacity():
    eng, sink = make_sink(capacity=150)
    sink.write(100)
    sink.release(100)
    sink.write(100)  # fits again
    assert sink.bytes_held == 100
    assert sink.bytes_written == 200


def test_release_validation():
    eng, sink = make_sink()
    sink.write(50)
    with pytest.raises(StorageError):
        sink.release(60)
    with pytest.raises(StorageError):
        sink.release(-1)


def test_constructor_validation():
    eng = Engine()
    with pytest.raises(StorageError):
        DisklessSink(eng, memcpy_bandwidth=0)
    with pytest.raises(StorageError):
        DisklessSink(eng, capacity=0)
    _, sink = make_sink()
    with pytest.raises(StorageError):
        sink.write(-1)


def test_faster_than_disk_for_small_deltas():
    """The diskless selling point: QsNet beats SCSI for checkpoint
    streams."""
    from repro.net.models import QSNET2
    from repro.storage import Disk, SCSI_ULTRA320
    eng = Engine()
    sink = DisklessSink(eng, link=QSNET2, capacity=1 << 30)
    disk = Disk(eng, SCSI_ULTRA320)
    f_net = sink.write(int(80 * MiB))
    f_disk = disk.write(int(80 * MiB))
    eng.run()
    assert f_net.value < f_disk.value


def test_reserve_charges_memcpy_only_and_checks_capacity_at_issue():
    """A deposit reserved ahead is admitted against the capacity held at
    its issue time: a release landing in between makes room for it."""
    eng, sink = make_sink(capacity=150)
    sink.write(100)
    done_at, rec = sink.reserve(100, at=4.0)
    assert done_at == pytest.approx(4.5)   # 100 B at 200 B/s memcpy
    eng.schedule_at(3.0, sink.release, 100)
    eng.run(until=4.0)
    sink.settle(eng.now)
    assert rec.failed is False
    assert sink.bytes_held == 100
    assert sink.bytes_written == 200


def test_reserved_deposit_over_capacity_raises_when_issued():
    eng, sink = make_sink(capacity=150)
    sink.write(100)
    sink.reserve(100, at=4.0)
    sink.settle(3.0)                       # not issued yet: no verdict
    with pytest.raises(StorageError, match="exhausted"):
        sink.settle(4.0)
