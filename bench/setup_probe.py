"""dqc's set-up in a fresh interpreter: import, validate_prime, enum_tables.

Usage: ``python3 setup_probe.py SRC_DIR P``.  Prints one JSON
object of ``time.monotonic()`` readings and reference-loop times.
``ready - started`` is dqc's set-up once the interpreter runs; ``ref``
is the mean of the reference loop run just before and just after it in
this interpreter, by which the parent scales it.  The clock is
system-wide on Linux, so the parent also subtracts the moment it started
this interpreter, and ``ref_before``, from ``ready`` to get the time with
interpreter start-up included; that part no change to dqc can move, and
it swings with the host.
"""

import json
import sys
import time

from reference import reference_s


def main() -> None:
    ref_before = reference_s()
    started = time.monotonic()
    src, p = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, src)
    import dqc

    imported = time.monotonic()
    field = dqc.validate_prime(p)
    validated = time.monotonic()
    dqc.census.enum_tables(field.p)
    ready = time.monotonic()
    ref_after = reference_s()
    print(json.dumps({
        "started": started,
        "imported": imported,
        "validated": validated,
        "ready": ready,
        "ref_before": ref_before,
        "ref": (ref_before + ref_after) / 2,
    }))


if __name__ == "__main__":
    main()
