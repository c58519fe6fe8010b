"""One measured process: set up a workload, run it, report raw results.

Run by ``run.py`` in a fresh interpreter so that partsem's module-level
caches start empty.  Reads a JSON spec on standard input and starts the
speed timer (``speed.py``) before partsem is imported.  Prints
``ready <json>`` once its set-up is done, then whatever the workload streams,
then one JSON result line.  Every time it reports is a ``SPEED.clock``
reading or difference, which excludes the speed kernel; the result carries
the kernel samples that convert them to reference seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from speed import SPEED

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads(sys.stdin.read())
    SPEED.start()
    try:
        return measure(spec)
    finally:
        SPEED.stop()


def measure(spec: dict) -> int:
    import partsem

    if Path(partsem.__file__).resolve().parent != ROOT / "src" / "partsem":
        print(f"partsem imported from {partsem.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer().install()
    region_started = SPEED.clock()
    setup, run = workloads.WORKLOADS[spec["kind"]]
    state = setup(spec)
    ready = {"kernel_s": SPEED.spent, "speed_factor": SPEED.factor()}
    with SPEED.held():
        print("ready " + json.dumps(ready), flush=True)
    if spec.get("setup_only"):
        return 0
    result = run(state, spec)
    SPEED.stop()
    result["region"] = [region_started, SPEED.clock()]
    result["peak_rss_mb"] = peak_rss_mb()
    result["speed"] = SPEED.samples()
    if tracer is not None:
        tracer.uninstall()
        from layers import summarize

        start, end = result["region"]
        result["trace"] = summarize(tracer, end - start)
        result["spans_dropped"] = tracer.spans_dropped
        if spec.get("spans_path"):
            tracer.write_spans(ROOT / spec["spans_path"])
    print(json.dumps(result))
    return 0


def peak_rss_mb() -> float:
    """This process image's peak resident set size.

    Not ``ru_maxrss``: Linux carries the spawning process's peak RSS over
    an exec into it, so a child of a parent holding large reference tables
    reported the parent's peak.  ``VmHWM`` belongs to the new image alone.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
