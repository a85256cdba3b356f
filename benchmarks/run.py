"""suslovkit benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload {transport,orbits,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from the
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the details behind each metric.  See README.md beside this file.
"""
from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy loads, so runs do not race for cores
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracing import (  # noqa: E402  (imported after the BLAS pin)
    EXACT_COUNTS, Direct, Traced, Tracer, layer_metrics, span_violations, unattributed_frac,
)
from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".out"

SETUP_ROUNDS = 11
MIN_PASSES = 2
#: fixed tail percentile, so a faster program's extra ops do not move it; a
#: one-pass orbits run (111 ops) keeps >= 10 ops above it, transport cannot
TAIL_PCT = 90.0
#: seconds of CPU time between two timings of the reference kernel
REF_EVERY_S = 0.5
#: size of one block allocated and freed before set-up.  glibc raises its mmap
#: threshold to the size of the first large block freed; doing so up front keeps
#: the run's arrays of up to this size on the heap from the start, rather than
#: leaving it to the run's own history which of them are mapped afresh
MALLOC_WARMUP_BYTES = 30 * 2**20
#: the benchmark's own share of a traced pass above which its spans are rejected
MAX_UNATTRIBUTED = 0.05

FAILED = object()


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


class Pass:
    """One pass of a workload: each op timed under a time limit, outputs kept
    for checking after the timed region."""

    def __init__(self, limit_s: float, tracer: Tracer | None = None,
                 ref: Reference | None = None) -> None:
        self.limit_s = limit_s
        self.tracer = tracer
        self.ref = ref
        self.ops: list[tuple[str, float, object, object]] = []
        #: perf_counter at the start and end of each op
        self.spans: list[tuple[float, float]] = []
        self.errors: list[str] = []
        self.wall = 0.0

    def call(self, label, check, fn, *args, **kwargs):
        span = self.tracer.open("bench.op") if self.tracer else None
        spent = self.ref.spent if self.ref else 0.0
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising op is a failed op, never a dropped one
            out = FAILED
            self.errors.append(f"{label}: {exc!r}")
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # the reference kernel's timings inside the op are not the op's
            dt = t1 - t0 - ((self.ref.spent - spent) if self.ref else 0.0)
            if span is not None:
                self.tracer.close(span)
        self.ops.append((label, dt, out, check))
        self.spans.append((t0, t1))
        return out

    def checked(self, planned: int) -> tuple[int, int, list]:
        """Failed ops (unreached planned ops included), ops whose output failed
        its check, and the output digests."""
        failed, wrong = max(0, planned - len(self.ops)), 0
        digests = []
        for label, _, out, check in self.ops:
            ok, digest = False, None
            if out is not FAILED:
                try:
                    ok, digest = check(out)
                except Exception as exc:  # a check that cannot run fails the op
                    self.errors.append(f"{label} check: {exc!r}")
                if not ok:
                    wrong += 1
                    self.errors.append(f"{label}: check failed")
            failed += not ok
            digests.append(digest)
        return failed, wrong, digests


def run_pass(wl, api, k: int, tracer: Tracer | None = None,
             ref: Reference | None = None) -> Pass:
    inputs = wl.inputs(k)
    rec = Pass(wl.op_limit_s, tracer, ref)
    root = tracer.open("bench.pass") if tracer else None
    spent = ref.spent if ref else 0.0
    t0 = perf_counter()
    try:
        wl.run(api, inputs, rec.call)
    except Exception as exc:  # glue failed: the unreached ops count as failed
        rec.errors.append(f"pass {k}: {exc!r}")
    rec.wall = perf_counter() - t0 - ((ref.spent - spent) if ref else 0.0)
    if tracer is not None:
        tracer.close(root)
    return rec


def setup(name: str, seed: int):
    """Import suslovkit afresh, build the workload's params and specs."""
    for mod in [m for m in sys.modules if m == "suslovkit" or m.startswith("suslovkit.")]:
        del sys.modules[mod]
    t0 = perf_counter()
    sk = importlib.import_module("suslovkit")
    wl = WORKLOADS[name](sk, seed)
    return perf_counter() - t0, sk, wl


def untraced(wl, sk, seconds: float) -> tuple[dict, dict, int, int, int]:
    api = Direct(sk)
    ref = Reference(REF_EVERY_S)
    passes, walls, lats, failed, wrong, errors, ops = 0, [], [], 0, 0, [], []
    t0 = perf_counter()
    ref.start()
    try:
        while passes < MIN_PASSES or perf_counter() - t0 + max(walls) <= seconds:
            rec = run_pass(wl, api, passes, ref=ref)
            f, w, _ = rec.checked(wl.ops_per_pass)
            failed += f
            wrong += w
            errors += rec.errors
            walls.append(rec.wall)
            lats += [dt for _, dt, _, _ in rec.ops]
            ops.append([(dt, span) for (_, dt, _, _), span in zip(rec.ops, rec.spans)])
            passes += 1
    finally:
        ref.stop()
    # each op in units of the reference timings made during and around it
    rel_passes = [[dt / ref.around(*span) for dt, span in p] for p in ops]
    rel = [x for p in rel_passes for x in p]
    attempted = passes * wl.ops_per_pass
    metrics = {
        "wall_rel": (statistics.median(sum(p) for p in rel_passes), "ref"),
        "op_p50_rel": (statistics.median(rel), "ref"),
        "op_tail_rel": (_tail_mean(rel), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "raw": {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(lats),
            "op_tail_s": _tail_mean(lats),
            "ref_s": statistics.median(ref.times),
        },
        "ref_timings": len(ref.times),
        "passes": passes, "op_samples": len(lats), "op_tail_pct": TAIL_PCT,
        "ops_beyond_tail": int(len(lats) * (1.0 - TAIL_PCT / 100.0)),
        "fail_frac": failed / attempted, "errors": errors[:10],
    }
    return metrics, info, attempted, failed, wrong


def traced(wl, sk) -> tuple[dict, dict, int, int, int]:
    """Pass 0 traced, plain, traced again, then through the CLI."""
    tracers = [Tracer(), Tracer()]
    recs = [run_pass(wl, Traced(sk, tracers[0]), 0, tracers[0])]
    recs.append(run_pass(wl, Direct(sk), 0))
    recs.append(run_pass(wl, Traced(sk, tracers[1]), 0, tracers[1]))
    plain = recs[1]
    failed, wrong, errors, digests = 0, 0, [], []
    for rec in recs:
        f, w, d = rec.checked(wl.ops_per_pass)
        failed += f
        wrong += w
        errors += rec.errors
        digests.append(d)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        codes = wl.cli(wl.inputs(0), WORKDIR, partial(_cli_call, wl.op_limit_s))
        t_cli = perf_counter() - t0
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    t_api = sum(dt for label, dt, _, _ in plain.ops if label not in wl.cli_skip)

    layers = [layer_metrics(tr) for tr in tracers]
    unattributed = max(unattributed_frac(tr) for tr in tracers)
    problems = [f"{key} differs between two traced passes"
                for key in EXACT_COUNTS if layers[0][key] != layers[1][key]]
    if not digests[0] == digests[1] == digests[2]:
        problems.append("traced outputs differ from plain outputs")
    for tr in tracers:
        problems += span_violations(tr)[:5]
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(f"benchmark spans hold {unattributed:.3f} of the traced time")
    if any(codes):
        errors.append(f"{sum(1 for c in codes if c)} CLI calls failed, exit codes "
                      f"{sorted(set(codes))} (-1: time limit)")
    errors += problems
    # a CLI call cut short by the time limit failed; any other non-zero exit is wrong
    failed += len(problems) + sum(1 for c in codes if c != 0)
    wrong += len(problems) + sum(1 for c in codes if c not in (0, -1))

    metrics = {}
    for key, v0 in layers[0].items():
        is_time = key.endswith("_s") or key.endswith("_ns_per_row_eval")
        value = (v0 + layers[1][key]) / 2.0 if is_time else v0
        metrics[key] = (value, _unit(key))
    traced_wall = (recs[0].wall + recs[2].wall) / 2.0
    metrics["cli.overhead_frac"] = ((t_cli - t_api) / t_api, "frac")
    metrics["trace_overhead_frac"] = ((traced_wall - plain.wall) / plain.wall, "frac")
    info = {
        "pass_walls_s": [rec.wall for rec in recs],
        "cli_s": t_cli, "cli_api_s": t_api, "cli_calls": len(codes),
        "unattributed_frac": unattributed, "spans": [len(tr.names) for tr in tracers],
        "errors": errors[:10],
    }
    attempted = 3 * wl.ops_per_pass + len(codes)
    return metrics, info, attempted, min(attempted, failed), wrong


def _tail_mean(values) -> float:
    """Mean of the values at or above the TAIL_PCT percentile.  A single order
    statistic jumps between op kinds of different cost from run to run; the
    mean of the tail moves smoothly."""
    values = np.asarray(values)
    return float(values[values >= np.percentile(values, TAIL_PCT)].mean())


def _cli_call(limit_s: float, argv: list[str]) -> int:
    """``suslov`` as a shell would run it, under the op time limit: the exit
    code, or -1 when the limit cut the call short."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return importlib.import_module("suslovkit.cli").main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OpTimeout:
        return -1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _unit(key: str) -> str:
    if key.endswith("_ns_per_row_eval"):
        return "ns"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_frac"):
        return "frac"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    seed = args.seed % 2**64  # numpy seeds are non-negative
    if not (SRC / "suslovkit" / "__init__.py").is_file():
        print(f"error: no suslovkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    np.ones(MALLOC_WARMUP_BYTES // 8)
    # one CPU for the whole run, so that each op and the reference timings
    # beside it run on the same core rather than on whichever is free
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setups = []
    for _ in range(SETUP_ROUNDS):
        dt, sk, wl = setup(args.workload, seed)
        setups.append(dt)
    if Path(sk.__file__).resolve().parent != (SRC / "suslovkit").resolve():
        print(f"error: suslovkit imported from {sk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, info, attempted, failed, wrong = traced(wl, sk)
    else:
        metrics, info, attempted, failed, wrong = untraced(wl, sk, args.seconds)
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_rounds_s": setups,
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "machine": platform.machine(),
        },
    })
    print(json.dumps(info))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
