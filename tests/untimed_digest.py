"""The untimed digest of a ``partsem verify --format machine`` report.

Each record loses its ``millis``, is dumped again with sorted keys, one record
a line, and the digest is the first 16 hex digits of the SHA-256 of those
lines.  Run as a script, it reads a report on standard input, prints the
record count and the digest, and with an expected digest as its argument
exits 1 unless they match:

    PYTHONPATH=src python -m partsem verify --max-n 3 --seed 7 --format machine \\
        | python tests/untimed_digest.py 29a09fcf611d2607
"""

import hashlib
import json
import sys


def untimed_digest(lines) -> tuple[int, str]:
    """The record count and untimed digest of a machine report's lines."""
    records = [json.loads(line) for line in lines]
    for record in records:
        del record["millis"]
    untimed = "\n".join(json.dumps(record, sort_keys=True) for record in records)
    return len(records), hashlib.sha256(untimed.encode()).hexdigest()[:16]


if __name__ == "__main__":
    count, digest = untimed_digest(sys.stdin.read().splitlines())
    print(f"{count} records, untimed digest {digest}")
    sys.exit(len(sys.argv) > 1 and digest != sys.argv[1])
