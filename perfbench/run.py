"""Benchmark of patternlab: seeded workloads, checked outputs, and per-layer
figures from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense|exact --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics.  The workload's job list runs again and again, with the
package's caches cleared before each pass, until another pass would overrun
``--seconds``; times are medians over passes.  A traced run alternates
untraced and traced passes, so the tracing overhead is measured in one
process.  Every output is checked after the timed region.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5  # fresh processes that repeat the set-up, for setup_s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("dense", "exact"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time import and input generation; print the seconds")
    return ap.parse_args(argv)


def _hygiene() -> None:
    # PATTERNLAB_SEED silently overrides every --seed the CLI receives.
    os.environ.pop("PATTERNLAB_SEED", None)
    # One single-threaded process: steadier than BLAS threads on a shared
    # machine, and the same on every box.
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _set_up(workload: str, seed: int, workdir: str):
    """Import patternlab from the checkout and make the workload's inputs.

    Returns (seconds taken, jobs).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import patternlab
    if Path(patternlab.__file__).resolve().parent != ROOT / "src" / "patternlab":
        raise SystemExit(f"patternlab imported from {patternlab.__file__}, not from src/")
    import workloads
    jobs = workloads.WORKLOADS[workload](seed, workdir)
    return time.perf_counter() - start, jobs


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _clear_caches() -> None:
    """Empty every functools cache of the package, so each pass starts as a
    fresh process would."""
    for name, module in list(sys.modules.items()):
        if name == "patternlab" or name.startswith("patternlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@dataclass
class Pass:
    """One run of the job list: (output, error text or None) per job, its
    wall time, and the tracer of a traced pass."""

    outputs: list
    wall_s: float
    tracer: spans.Tracer | None = None

    def layers(self) -> dict[str, float]:
        out = spans.layer_metrics(self.tracer)
        out["cli.main.stdout_bytes"] = sum(
            len(res.stdout.encode()) for res, _ in self.outputs if hasattr(res, "stdout"))
        return out


def run_pass(jobs, tracer=None) -> Pass:
    _clear_caches()
    patched = spans.install(tracer) if tracer is not None else []
    outputs = []
    try:
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            try:
                outputs.append((job.run(), None))
            except Exception:  # a failing job is counted, not fatal
                outputs.append((None, traceback.format_exc(limit=3)))
        wall = time.perf_counter() - start
    finally:
        spans.uninstall(patched)
    return Pass(outputs, wall, tracer)


def measure(jobs, seconds: float, traced: bool) -> list[Pass]:
    """Passes until another would overrun ``seconds``; a traced run makes at
    least one untraced and one traced pass, alternating."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        tracer = None
        if traced and len(passes) % 2 == 1:
            tracer = spans.Tracer()
        passes.append(run_pass(jobs, tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if not (traced and len(passes) < 2) and elapsed + typical > seconds:
            return passes


def check_passes(jobs, passes) -> tuple[int, int]:
    """(attempted, failed) over every job of every pass; failures go to stderr."""
    attempted = failed = 0
    for number, p in enumerate(passes):
        for job, (out, error) in zip(jobs, p.outputs):
            attempted += 1
            if error is None:
                try:
                    error = job.check(out)
                except Exception:
                    error = "check raised:\n" + traceback.format_exc(limit=3)
            if error is not None:
                failed += 1
                print(f"FAIL pass {number} job {job.name!r}: {error}", file=sys.stderr)
    return attempted, failed


def stdout_digest(p: Pass) -> str | None:
    """sha256 over the CLI stdout of a pass, None when it ran no CLI job."""
    h = hashlib.sha256()
    seen = False
    for out, _ in p.outputs:
        if hasattr(out, "stdout"):
            h.update(out.stdout.encode())
            seen = True
    return h.hexdigest() if seen else None


def deterministic(workload: str, seed: int, passes) -> bool:
    """CLI output must be byte-identical across the passes of this run and
    across every earlier run of this checkout with the same workload and seed."""
    digests = {stdout_digest(p) for p in passes} - {None}
    if not digests:
        return True
    if len(digests) > 1:
        print("FAIL: CLI stdout differs between passes of one run", file=sys.stderr)
        return False
    digest = digests.pop()
    record = OUT / "stdout-sha256.json"
    known = json.loads(record.read_text()) if record.exists() else {}
    key = f"{workload}/{seed}"
    if known.setdefault(key, digest) != digest:
        print(f"FAIL: CLI stdout of {key} differs from an earlier run", file=sys.stderr)
        return False
    record.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def write_spans(path: Path, jobs, passes) -> None:
    """Every span of the traced passes, one JSON object a line."""
    with path.open("w") as fh:
        for number, p in enumerate(passes):
            if p.tracer is None:
                continue
            for span in p.tracer.spans:
                fh.write(json.dumps({"pass": number, "job_name": jobs[span.job].name,
                                     **asdict(span)}) + "\n")


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ[THREAD_VARS[0]]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "patternlab" / "__init__.py").is_file():
        print(f"perfbench: no src/patternlab under {ROOT}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"perfbench: no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    _hygiene()
    # A fixed relative work directory keeps file paths, and so CLI stdout,
    # identical from run to run.
    workdir = OUT / ("probe" if args.setup_probe else args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    own_setup, jobs = _set_up(args.workload, args.seed, str(workdir.relative_to(ROOT)))
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    setup = [own_setup] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = measure(jobs, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = check_passes(jobs, passes)
    correct = failed == 0 and deterministic(args.workload, args.seed, passes)

    plain = [p.wall_s for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    spec = json.loads(spec_file.read_text())
    if args.trace:
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", jobs, passes)
        layers = [p.layers() for p in traced]
        values = {name: statistics.median(figures[name] for figures in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(plain))
        declared = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(plain),
                  "peak_rss_mb": peak_rss_mb}
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    print(f"fail_rate {failed / attempted:.4g} ({failed}/{attempted} jobs)")
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    print("pass walls (s): " + " ".join(
        f"{p.wall_s:.4f}{'*' if p.tracer is not None else ''}" for p in passes) + "  (* traced)")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
