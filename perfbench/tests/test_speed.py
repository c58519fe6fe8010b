"""The speed kernel runs on its timer, its time is left out of ``Speed.clock``,
``factor`` averages the samples taken in a window, and ``held`` keeps the
timer's signal from breaking a write to a pipe."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
from speed import INTERVAL_S, KERNEL_REF_S, WINDOW_S, Speed, factor, reference_seconds


def test_clock_excludes_the_kernel():
    speed = Speed()
    wall_started, started = time.perf_counter(), speed.clock()
    speed.start()
    try:
        while time.perf_counter() - wall_started < 20 * INTERVAL_S:
            sum(range(1000))
    finally:
        speed.stop()
    wall = time.perf_counter() - wall_started
    measured = speed.clock() - started
    assert len(speed.took) >= 5
    assert abs(wall - speed.spent - measured) < 1e-3
    assert speed.spent == sum(speed.took)
    assert list(speed.at) == sorted(speed.at)
    assert started <= speed.at[0] and speed.at[-1] <= speed.clock()
    count = len(speed.took)
    time.sleep(3 * INTERVAL_S)
    assert len(speed.took) == count


def test_factor_averages_the_speed_in_the_window():
    at = [0.0, 1.0, 2.0, 3.0]
    took = [KERNEL_REF_S, KERNEL_REF_S / 2, KERNEL_REF_S / 4, KERNEL_REF_S]
    assert factor(at, took) == (1 + 2 + 4 + 1) / 4
    assert factor(at, took, 0.5, 2.0) == 3.0
    # No sample in the window: fall back to all of them.
    assert factor(at, took, 1.2, 1.8) == 2.0
    assert reference_seconds(at, took, 2.0 - WINDOW_S / 2, 2.0) == pytest.approx(WINDOW_S / 2 * 4)


def test_held_writes_reach_a_slow_reader_whole():
    code = (
        "import json, time\n"
        "from speed import SPEED\n"
        "SPEED.start()\n"
        "data = json.dumps(list(range(300000)))\n"
        "with SPEED.held():\n"
        "    print(data, flush=True)\n"
        "SPEED.stop()\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                            cwd=Path(speed.__file__).parent)
    chunks = []
    while chunk := proc.stdout.read(65536):
        chunks.append(chunk)
        time.sleep(0.005)
    assert proc.wait() == 0
    assert json.loads("".join(chunks)) == list(range(300000))
