"""The reference-speed clock times only the work inside its blocks.

    python3 -m pytest -q perfbench/test_speed.py
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_adds_its_blocks_and_leaves_out_the_gaps(monkeypatch):
    # A probe that always reads the reference time makes both times equal.
    monkeypatch.setattr(speed, "probe", lambda: speed.REF_PROBE_S)
    before = signal.getsignal(signal.SIGALRM)
    clock = speed.Clock()
    start = time.perf_counter()
    for _ in range(2):
        with clock:
            busy(0.1)
        busy(0.1)
    elapsed = time.perf_counter() - start
    assert 0.2 <= clock.seconds < elapsed - 0.15
    assert abs(clock.reference_seconds - clock.seconds) < 1e-9
    assert signal.getsignal(signal.SIGALRM) is before


def test_a_slower_machine_reads_the_same_reference_time(monkeypatch):
    # Work that takes twice as long while the probes take twice as long.
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REF_PROBE_S)
    clock = speed.Clock()
    with clock:
        busy(0.2)
    assert abs(clock.reference_seconds - clock.seconds / 2) < 1e-9


def test_the_probe_runs_while_the_work_runs(monkeypatch):
    calls = []
    probe = speed.probe

    def counted():
        calls.append(time.perf_counter())
        return probe()

    monkeypatch.setattr(speed, "probe", counted)
    with speed.Clock():
        busy(0.2)
    # One probe before, one after, and about one per interval between.
    assert len(calls) >= 2 + 0.2 / speed.INTERVAL / 2
