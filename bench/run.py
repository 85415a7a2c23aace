"""Cold time-to-verdict of the strandcheck command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each invocation of a workload runs in its own
fresh ``python3`` process with ``src`` on ``PYTHONPATH``, one process at a
time, and its verdict is checked against a known answer. A round is the
workload's list of invocations, built from a seed of its own that is drawn
from the workload seed; rounds repeat until ``--seconds`` have passed, and
timings are medians over rounds.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-module metrics of
``tracer.py``, from traced rounds alternated with untraced ones. A
human-readable table goes to stderr. ``--workload all`` runs every
workload in turn. See DESIGN.md for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"  # mutant files and trace dumps
RUN_LIMIT_S = 170  # a workload's run ends within this, set-up included;
# a child still running then is killed and counted as a crash
MIN_ROUNDS = 2  # untraced runs; a traced run needs one traced round
SETUP_SAMPLES = 7  # at least; one is also taken before every round
SETUP = ("-c", "import strandcheck.cli")  # what setup_s times
DECISION_BOUND_S = 10.0  # acceptance criterion 1 of the repository
CLI = ("-c", "import sys; from strandcheck.cli import main; "
             "sys.exit(main(sys.argv[1:]))")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    ok: bool = False  # verdict matched the known answer


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Users run from compiled bytecode, so let the children write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, deadline: float) -> Child:
    """Run one process to completion, or kill it at ``deadline``
    (a ``time.perf_counter`` value), and read its own resource usage.

    ``os.wait4`` gives this child's rusage; ``RUSAGE_CHILDREN`` would give
    a running maximum of ``ru_maxrss`` over every child ever waited for.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, proc.returncode,
                     out.read().decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"))


class Tally:
    """Invocations attempted and wrong verdicts, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.reasons: list = []

    def judge(self, inv: workloads.Invocation, child: Child) -> bool:
        self.attempted += 1
        why = inv.judge(child.code, child.stdout, child.stderr)
        if why is None:
            return True
        self.wrong += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"strandcheck {' '.join(inv.args)}: {why}\n"
                                f"{child.stderr[-2000:]}")
        return False


def run_round(invocations: list, tally: Tally, deadline: float,
              trace_dir: Path | None = None):
    """Run one round; returns the children and, when traced, the dumps."""
    children, dumps = [], []
    for i, inv in enumerate(invocations):
        if trace_dir is None:
            child = run_child([*CLI, *inv.args], deadline)
        else:
            dump = trace_dir / f"{i}.json"
            child = run_child([str(HERE / "tracer.py"), str(dump), "--",
                               *inv.args], deadline)
            if dump.exists():
                dumps.append(json.loads(dump.read_text(encoding="utf-8")))
        child.ok = tally.judge(inv, child)
        children.append(child)
    return children, dumps


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds: list, setup: list) -> dict:
    walls = [sum(c.wall_s for c in r) for r in rounds]
    cpus = [sum(c.cpu_s for c in r) for r in rounds]
    every = [c for r in rounds for c in r]
    decided = [c.ok and c.wall_s <= DECISION_BOUND_S for c in every]
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "verdict_s.p50": _metric(
            statistics.median(c.wall_s for c in every), "s"),
        "verdict_s.max": _metric(
            statistics.median(max(c.wall_s for c in r) for r in rounds), "s"),
        "peak_rss_mb": _metric(
            statistics.median(max(c.rss_mb for c in r) for r in rounds), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "decided_within_10s": _metric(sum(decided) / len(decided), "share"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run workload ``name`` for about ``seconds``; returns the tally and
    the metrics of the requested kind."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}.", dir=WORK))
    try:
        tally = Tally()
        run_child(SETUP, deadline)  # writes the bytecode; not measured
        start = time.perf_counter()
        setup = []  # spread over the run, so drift affects it like the rest
        plain, traced = [], []  # rounds of children; traced: (children, dumps)
        while True:
            # A traced run repeats round 0, so that its counts repeat.
            invocations = workloads.build(name, seed, run_dir / "inputs",
                                          0 if trace else len(plain))
            if not trace:
                setup.append(run_child(SETUP, deadline).wall_s)
            plain.append(run_round(invocations, tally, deadline)[0])
            if trace:
                trace_dir = run_dir / f"trace{len(traced)}"
                trace_dir.mkdir()
                traced.append(run_round(invocations, tally, deadline,
                                        trace_dir))
            now = time.perf_counter()
            # Start another round only if it should end within half a
            # round of the budget, so a run lasts about ``seconds``.
            per_round = (now - start) / len(plain)
            enough = trace or len(plain) >= MIN_ROUNDS
            if (enough and now - start + per_round / 2 > seconds
                    or now + per_round > deadline):
                break
        if not trace:
            while len(setup) < SETUP_SAMPLES:
                setup.append(run_child(SETUP, deadline).wall_s)
            return tally, end_to_end(plain, setup)
        plain_wall = statistics.median(sum(c.wall_s for c in r) for r in plain)
        traced_wall = statistics.median(
            sum(c.wall_s for c in r) for r, _ in traced)
        metrics = tracer.layer_metrics([d for _, d in traced])
        metrics["trace.overhead_ratio"] = _metric(traced_wall / plain_wall,
                                                  "ratio")
        return tally, metrics
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _table(name: str, tally: Tally, metrics: dict) -> str:
    share = tally.wrong / tally.attempted
    lines = [f"== {name}: {tally.attempted} invocations, "
             f"wrong_verdict_share {share:.4f}"]
    for key, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"   {key:32s} {value:>12s} {m['unit']}")
    return "\n".join(lines + tally.reasons)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "strandcheck" / "cli.py").is_file():
        print(f"error: no strandcheck sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        tally, metrics = measure(name, args.seed, args.seconds,
                                 bool(args.trace))
        print(_table(name, tally, metrics), file=sys.stderr)
        results[name] = (tally, metrics)
    attempted = sum(t.attempted for t, _ in results.values())
    failed = sum(t.wrong for t, _ in results.values())
    metrics = (results[args.workload][1] if args.workload != "all"
               else {n: m for n, (_, m) in results.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
