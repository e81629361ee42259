"""cat-lab benchmark: run one workload, or all four, each in its own process.

    python3 perfbench/run.py --workload clf-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter with BLAS and OpenMP threads
capped at the usable core count.  The worker's last stdout line is the
result JSON; with ``--workload all`` a table of every metric precedes one
JSON object keyed by workload.  Full records (run facts, per-round values,
check problems) and traces land in ``.perfbench_out/`` at the repository
root.  Without cat-lab's sources under ``src/`` the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def revision() -> str:
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=True)
            return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, args, env: dict, info: dict) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--info", json.dumps(info)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(done.returncode or 1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small round per workload, for testing the harness")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cat_lab" / "__init__.py").is_file():
        print(f"perfbench: no cat-lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, **{v: cap for v in THREAD_VARS})
    info = {"revision": revision(), "source_sha256": source_digest(),
            "cpu_count": os.cpu_count(), "thread_cap": int(cap)}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, env, info) for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']}  failed {result['failed']}  "
              f"correct {result['correct']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<28s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
