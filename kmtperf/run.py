"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root::

    python3 kmtperf/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
environment block and per-workload details, which are also written to
``kmtperf_out/``.

Set-up time is measured from outside: this launcher starts a fresh
interpreter for the workload :data:`SETUPS` times, each time timing the span
from spawning it to the workload reporting ``READY`` (imports, theory
construction, warm-up, servers started).  The last of those interpreters then
runs the timed phase; ``setup_s`` is the median of the set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "kmtperf_out")
WORKLOADS = ("paper-cold", "compare-warm", "serve-routed")
SETUPS = 5
READY = "READY"
SETUP_TIMEOUT_S = 60.0
#: Time the workload may spend after its measured window: checking answers,
#: replaying witnesses, stopping servers.
CHECK_TIMEOUT_S = 60.0


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _program_present():
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _kill_group(proc):
    """Stop the child and anything it started that is still alive."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _spawn(args, role):
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--role", role]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    return proc, started


def _lines(proc):
    """A queue fed with ``proc``'s non-empty stdout lines, ``None`` at EOF."""
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            if line.strip():
                lines.put(line.strip())
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return lines


def _next_line(lines, deadline):
    try:
        return lines.get(timeout=max(0.0, deadline - time.perf_counter()))
    except queue.Empty:
        return None


def _launch(args):
    setups = []
    result = None
    for index in range(SETUPS):
        role = "main" if index == SETUPS - 1 else "probe"
        proc, started = _spawn(args, role)
        try:
            lines = _lines(proc)
            line = _next_line(lines, started + SETUP_TIMEOUT_S)
            if line != READY:
                raise RuntimeError(f"workload set-up failed (got {line!r})")
            setups.append(time.perf_counter() - started)
            if role == "main":
                deadline = time.perf_counter() + args.seconds + CHECK_TIMEOUT_S
                line = _next_line(lines, deadline)
                if line is None:
                    raise RuntimeError("workload produced no result")
                result = json.loads(line)
            if proc.wait(timeout=CHECK_TIMEOUT_S) != 0:
                raise RuntimeError(f"workload exited with code {proc.returncode}")
        finally:
            _kill_group(proc)
    return setups, result


def _main_parent(args):
    if not _program_present():
        print("error: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    spec = _load_spec()
    setups, result = _launch(args)
    measured = dict(result["metrics"])
    if args.trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        measured["setup_s"] = statistics.median(setups)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            raise RuntimeError(f"workload did not measure {name}")
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    context = {"environment": result["environment"], "setup_s_samples": setups,
               "details": result["details"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(dict(context, result=summary), handle, indent=1, sort_keys=True)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _build(name, seed):
    if name == "paper-cold":
        from kmtperf.paper_cold import PaperCold
        return PaperCold(seed)
    if name == "compare-warm":
        from kmtperf.compare_warm import CompareWarm
        return CompareWarm(seed)
    from kmtperf.serve_routed import ServeRouted
    return ServeRouted(seed)


def _main_child(args):
    from kmtperf import measure

    workload = _build(args.workload, args.seed)
    try:
        print(READY, flush=True)
        if args.role == "probe":
            return 0
        result = workload.measure(args.seconds, bool(args.trace))
    finally:
        workload.close()
    tracer = result.pop("tracer", None)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.spans.jsonl"))
    result["environment"] = measure.environment(ROOT, args.workload, args.seed, args.seconds,
                                                args.trace, workload.params)
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "main"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.role is None:
        return _main_parent(args)
    return _main_child(args)


if __name__ == "__main__":
    sys.exit(main())
