"""Self-test of the verdict benchmark's own checks.

    python3 perfbench/selftest.py [--workloads detect smooth corpus]

For each workload:

* a run with one corrupted reference must report ``failed`` > 0 and
  ``correct`` false, so the reference checks can fail;
* two traced runs with the same seed must give identical ``*.calls``,
  ``*.dense_calls``, ``*.rejected``, ``*.timeouts`` and ``*.basis_size``
  counts, so later changes can cite them as exact counts.

Exits 0 when every check holds and prints one line per check.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
EXACT_COUNTS = (".calls", ".dense_calls", ".rejected", ".timeouts", ".basis_size")


def result(*extra) -> dict:
    cmd = [sys.executable, str(RUN), "--seed", "11", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["detect", "smooth", "corpus"])
    args = p.parse_args(argv)
    ok = True
    for w in args.workloads:
        bad = result("--workload", w, "--trace", "0", "--corrupt-reference")
        caught = bad["failed"] > 0 and not bad["correct"]
        print(f"{w}: corrupted reference -> failed={bad['failed']} of "
              f"{bad['attempted']}: {'ok' if caught else 'NOT DETECTED'}")
        runs = [result("--workload", w, "--trace", "1")["metrics"] for _ in range(2)]
        counts = [{k: v["value"] for k, v in m.items() if k.endswith(EXACT_COUNTS)}
                  for m in runs]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        print(f"{w}: {len(counts[0])} counts over two traced runs: "
              f"{'identical' if not diff else 'differ in ' + ', '.join(diff)}")
        ok = ok and caught and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
