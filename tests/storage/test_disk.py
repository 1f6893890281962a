"""Unit tests for disk and array models."""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.sim import Engine, SimProcess
from repro.storage import Disk, DiskSpec, SCSI_ULTRA320, StorageArray
from repro.units import MiB


def test_diskspec_write_time():
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=1.0)
    assert spec.write_time(200) == pytest.approx(3.0)
    assert spec.write_time(0) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        spec.write_time(-1)


def test_diskspec_validation():
    with pytest.raises(ConfigurationError):
        DiskSpec("bad", bandwidth=0, seek_latency=0)
    with pytest.raises(ConfigurationError):
        DiskSpec("bad", bandwidth=1, seek_latency=-1)


def test_scsi_spec_matches_paper():
    assert SCSI_ULTRA320.bandwidth == 320 * MiB


def test_disk_write_completion_time():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    fut = disk.write(100)
    eng.run()
    assert fut.resolved
    assert fut.value == pytest.approx(2.0)
    assert disk.bytes_written == 100
    assert disk.ops == 1


def test_disk_writes_serialize():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    f1 = disk.write(100)   # completes at 2
    f2 = disk.write(100)   # starts at 2, completes at 4
    assert disk.queue_delay() == pytest.approx(4.0)
    eng.run()
    assert f1.value == pytest.approx(2.0)
    assert f2.value == pytest.approx(4.0)


def test_disk_negative_write_rejected():
    eng = Engine()
    disk = Disk(eng)
    with pytest.raises(StorageError):
        disk.write(-1)


def test_disk_utilization():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=0.0))
    disk.write(100)
    eng.run(until=2.0)
    assert disk.utilization(2.0) == pytest.approx(0.5)
    with pytest.raises(StorageError):
        disk.utilization(0.0)


def test_process_can_block_on_disk_write():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    done = []

    def body():
        yield disk.write(100)
        done.append(eng.now)

    SimProcess(eng, body())
    eng.run()
    assert done == [pytest.approx(2.0)]


# -- array --------------------------------------------------------------------

def test_array_aggregate_bandwidth():
    eng = Engine()
    arr = StorageArray(eng, 4, DiskSpec("t", bandwidth=100.0, seek_latency=0.0))
    assert arr.aggregate_bandwidth() == pytest.approx(400.0)


def test_array_striping_speeds_up_large_writes():
    eng = Engine()
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=0.0)
    single = Disk(eng, spec)
    arr = StorageArray(eng, 4, spec, stripe_unit=100)
    f_single = single.write(800)
    f_arr = arr.write(800)
    eng.run()
    assert f_single.value == pytest.approx(8.0)
    assert f_arr.value == pytest.approx(2.0)  # 2 chunks per disk
    assert arr.bytes_written() == 800


def test_array_zero_byte_write_resolves_immediately():
    eng = Engine()
    arr = StorageArray(eng, 2)
    fut = arr.write(0)
    assert fut.resolved


def test_array_validation():
    eng = Engine()
    with pytest.raises(StorageError):
        StorageArray(eng, 0)
    with pytest.raises(StorageError):
        StorageArray(eng, 2, stripe_unit=0)
    arr = StorageArray(eng, 2)
    with pytest.raises(StorageError):
        arr.write(-1)


def test_fail_next_writes_resolves_none_and_counts():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=0.5))
    disk.fail_next_writes(1)
    got = []
    disk.write(100).add_callback(got.append)
    disk.write(100).add_callback(got.append)
    eng.run()
    assert got[0] is None                 # injected failure
    assert got[1] == pytest.approx(3.0)   # FIFO: queued behind the failure
    assert disk.writes_failed == 1
    assert disk.ops == 2
    assert disk.bytes_written == 100      # lost bytes never count
    assert disk.busy_time == pytest.approx(3.0)  # the disk still spun


def test_fail_next_writes_budget_accumulates():
    eng = Engine()
    disk = Disk(eng, SCSI_ULTRA320)
    disk.fail_next_writes(2)
    results = []
    for _ in range(3):
        disk.write(10).add_callback(results.append)
    eng.run()
    assert results[0] is None and results[1] is None
    assert results[2] is not None
    assert disk.writes_failed == 2


def test_fail_next_writes_validation():
    disk = Disk(Engine(), SCSI_ULTRA320)
    with pytest.raises(StorageError):
        disk.fail_next_writes(0)


# -- reservations -------------------------------------------------------------

def test_reserve_matches_write_timing_and_defers_accounting():
    eng = Engine()
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=1.0)
    disk, ref = Disk(eng, spec), Disk(eng, spec)
    d1, r1 = disk.reserve(100, at=1.0)
    d2, r2 = disk.reserve(100, at=1.5)
    assert (d1, d2) == (3.0, 5.0)          # FIFO: the second queues
    assert r1.failed is None and disk.ops == 0   # nothing issued yet
    assert disk.queue_delay() == 0.0       # reservations ahead don't count
    got = []

    def issue_ref():
        ref.write(100).add_callback(got.append)

    eng.schedule_at(1.0, issue_ref)
    eng.schedule_at(1.5, issue_ref)
    eng.run()
    disk.settle(eng.now)
    assert got == [d1, d2]                 # one timing path
    assert (r1.failed, r2.failed) == (False, False)
    assert (disk.ops, disk.bytes_written, disk.busy_time) == \
        (ref.ops, ref.bytes_written, ref.busy_time)


def test_settle_issues_only_reservations_whose_time_has_come():
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=1.0))
    disk.reserve(100, at=1.0)
    disk.reserve(100, at=3.0)
    disk.settle(2.0)
    assert disk.ops == 1
    disk.settle(3.0)                       # inclusive of the issue instant
    assert disk.ops == 2


def test_reservations_must_be_issued_in_time_order():
    disk = Disk(Engine(), SCSI_ULTRA320)
    disk.reserve(10, at=2.0)
    with pytest.raises(StorageError, match="time order"):
        disk.reserve(10, at=1.0)
    with pytest.raises(StorageError):
        disk.reserve(-1, at=3.0)


def test_fault_hits_only_writes_issued_after_it():
    """A failure budget added mid-flight applies to reservations whose
    issue time is still ahead; one issued at the fault's own instant
    already reached the disk (it settles first)."""
    eng = Engine()
    disk = Disk(eng, DiskSpec("t", bandwidth=100.0, seek_latency=0.5))
    _, early = disk.reserve(100, at=1.0)
    _, tied = disk.reserve(100, at=2.0)
    _, late = disk.reserve(100, at=3.0)
    eng.schedule_at(2.0, disk.fail_next_writes, 1)
    eng.run(until=3.0)
    disk.settle(eng.now)
    assert (early.failed, tied.failed, late.failed) == (False, False, True)
    assert disk.writes_failed == 1
    assert disk.bytes_written == 200


def test_array_reserve_spans_member_disks():
    eng = Engine()
    spec = DiskSpec("t", bandwidth=100.0, seek_latency=0.0)
    arr = StorageArray(eng, 2, spec, stripe_unit=100)
    done_at, stripe = arr.reserve(300, at=1.0)
    assert done_at == pytest.approx(3.0)   # d0 holds two chunks
    assert len(stripe.chunks) == 3
    arr.disks[1].fail_next_writes(1)
    arr.settle(1.0)
    assert stripe.failed
    assert arr.bytes_written() == 200


def test_array_write_with_failed_chunk_resolves_none():
    eng = Engine()
    arr = StorageArray(eng, 2, DiskSpec("t", bandwidth=100.0,
                                        seek_latency=0.0), stripe_unit=100)
    arr.disks[0].fail_next_writes(1)
    fut = arr.write(200)
    eng.run()
    assert fut.value is None
