"""End-to-end benchmark of ``tune`` and the tuning service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune-default --seed 1 --seconds 30 --trace 0

prints a human-readable report and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are the per-layer breakdown of a traced repeat of
the same requests.  The exit code is non-zero when any request failed,
any correctness or work-identity check failed, or the program source is
missing.

Steadiness mode runs one workload N times on consecutive seeds and prints
each end-to-end metric's median, quartiles and max/min ratio next to its
bound::

    python3 perfbench/run.py --workload tune-bigpool --seed 1 --seconds 30 --steadiness 10

See NOTES.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters set up per untraced run; setup_s is their median.
#: Half of them set up before the timed phase and half after it, so the
#: median spans the run and not one short spell of the machine's speed.
SETUPS = 7
#: A run must finish within this many seconds, children included.
RUN_BUDGET_S = 170.0


def monotonic() -> float:
    """A clock the launcher and its children share (system-wide)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunFailed(Exception):
    pass


def child(role: str, args, workdir: Path, deadline: float, store: str | None = None):
    """Run one worker process; returns (setup seconds or None, stdout lines)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if store is not None:
        cmd += ["--store", store]
    start = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{role} process exceeded the run budget") from None
    if proc.returncode != 0:
        raise RunFailed(f"{role} process exited with code {proc.returncode}")
    lines = out.splitlines()
    setup = None
    for line in lines:
        if line.startswith("READY "):
            setup = float(line.split()[1]) - start
    return setup, [line for line in lines if not line.startswith("READY ")]


def run_once(args) -> int:
    deadline = monotonic() + RUN_BUDGET_S
    workdir = HERE / ".work" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    serve = args.workload == "serve-mixed"
    try:
        if serve:
            child("prefill", args, workdir, deadline)
        if args.trace:
            roles = ["main"]
        else:
            before = (SETUPS - 1) // 2
            roles = ["probe"] * before + ["main"] + ["probe"] * (SETUPS - 1 - before)
        setups = []
        for k, role in enumerate(roles):
            store = None
            if serve:
                # Every set-up re-opens its own copy of the prefilled store.
                store = f"store-{k}"
                shutil.copytree(workdir / "prefill" / "store", workdir / store)
            setup, out = child(role, args, workdir, deadline, store)
            if setup is None:
                raise RunFailed(f"{role} process never reported ready")
            setups.append(setup)
            if role == "main":
                lines = out
        result = json.loads((workdir / "result.json").read_text())
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    if not args.trace:
        value = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        print(f"  {'setup_s':34s} {value:14.6g} {'s':10s} "
              f"(n={len(setups)} fresh interpreters: "
              f"{', '.join(f'{s:.3f}' for s in setups)})")
    declared = {
        m["name"]: m["unit"]
        for m in benchmark()["per_layer" if args.trace else "end_to_end"]
    }
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        print(f"perfbench: metrics {sorted(reported.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(args) -> int:
    """Run the workload ``args.steadiness`` times on seeds seed, seed+1, ..."""
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    import stats

    values: dict[str, list[float]] = {}
    ok = True
    for i in range(args.steadiness):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed + i), "--seconds", str(args.seconds),
            "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {args.seed + i}: run failed (exit {proc.returncode})")
            ok = False
            continue
        metrics = json.loads(last)["metrics"]
        for name, entry in metrics.items():
            values.setdefault(name, []).append(entry["value"])
        # The machine-speed diagnostic, so a slow or fast spell shows
        # next to the metrics it moved.
        env = [line for line in proc.stdout.splitlines() if line.startswith("  env: ")]
        loop = json.loads(env[0][len("  env: "):])["reference_loop_s"] if env else []
        print(f"seed {args.seed + i}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(metrics.items())
        ) + ", reference_loop_s=" + "/".join(f"{x:.3f}" for x in loop), flush=True)
    print(f"\n{args.workload}: {args.steadiness} runs of {args.seconds} s")
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}  verdict")
    for name in sorted(values):
        if len(values[name]) < 2:
            continue
        s = stats.spread(values[name])
        bound = bounds.get(name)
        verdict = "-"
        if bound is not None:
            verdict = ("steady" if s["iqr_share"] < bound / 3
                       else "within bound" if s["iqr_share"] <= bound
                       else "TOO NOISY")
            ok = ok and s["iqr_share"] <= bound
        print(f"{name:24s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['iqr_share']:8.4f} {s['max_over_min']:8.4f} "
              f"{bound if bound is not None else '':>6}  {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of tune and the tuning service"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", type=int, default=0, metavar="N",
        help="run the workload N times on consecutive seeds and report "
        "each end-to-end metric's spread against its bound",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "nothing to measure", file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
