"""Census of verify over the seeded corpus of random graded systems.

Usage: python tools/census.py

Runs verify_closure_identity on tests/helpers.py:random_graded_system for
seeds 0-199, with and without refinement and with and without smoothing,
at power_bound=2 and power_checks=1, in two passes: with no zero ideal,
then with one allowed at the seeds divisible by 3.  Each run is sorted by
the exit code the command line would give: VERIFIED (0), FALSIFIED (1),
or an error, counted by its class.  Prints one count line per pass and a
SHA-256 over every run's outcome: the report's to_dict() as sorted JSON,
or the error's class and message.  Equal digests mean equal reports.

It imports conefan from the checkout's src/ and the generator from
tests/helpers.py, and needs nothing outside the standard library.  It
takes about 25 s on one core of a 2-vCPU host.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conefan.errors import ConefanError, InternalError, NotInConeError  # noqa: E402
from conefan.graded import verify_closure_identity  # noqa: E402
from helpers import random_graded_system  # noqa: E402

SEEDS = range(200)


def outcome(system, refine: bool, smooth: bool) -> tuple[str, str]:
    """(the run's tally key, its text for the digest)."""
    try:
        report = verify_closure_identity(
            system, power_bound=2, power_checks=1, refine=refine, smooth=smooth
        )
    except ConefanError as exc:
        if isinstance(exc, InternalError):
            code = 3
        elif isinstance(exc, NotInConeError):
            code = 1
        else:
            code = 2
        name = type(exc).__name__
        return f"exit {code} {name}", f"{name}: {exc}"
    key = "VERIFIED" if report.verified else "FALSIFIED"
    return key, json.dumps(report.to_dict(), sort_keys=True)


def main() -> int:
    digest = hashlib.sha256()
    for zeros in (False, True):
        tally: Counter = Counter()
        for seed in SEEDS:
            system = random_graded_system(
                random.Random(seed), allow_zero=zeros and seed % 3 == 0
            )
            for refine in (True, False):
                for smooth in (True, False):
                    key, text = outcome(system, refine, smooth)
                    tally[key] += 1
                    digest.update(f"{zeros} {seed} {refine} {smooth} {text}\n".encode())
        label = "with zero ideals" if zeros else "without zero ideals"
        counts = ", ".join(
            f"{tally[k]} {k}" for k in ("VERIFIED", "FALSIFIED")
        ) + "".join(
            f", {n} {k}" for k, n in sorted(tally.items()) if k.startswith("exit")
        )
        print(f"{label}: {counts}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
