"""ddscatter benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's fixed batch of operations is repeated, serially
and with ``jobs=1``, until the next batch would overrun ``--seconds``
(at least once).  Every batch's outputs are checked against the
workload's gates.

--trace 0 prints the end-to-end metrics: ``setup_s`` (median over
fresh processes that import, generate inputs and build kernels),
``solve_s`` (one batch, the sum of its steps' median times) and
``peak_rss_mb``.  Times are scaled to the reference box's speed; see
BoxSampler.
--trace 1 spends half the time untraced and half traced, at least two
batches each, and prints the per-layer metrics measured by the
outside-in tracer (tracer.py).

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every operation passed its gate.
Scratch files go under .perfbench_tmp/ (removed at exit); the full
result record and the traced spans go under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("scan-pt", "pair-kernels", "energy-sweep", "matrix")
SETUP_SAMPLES = 4
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric name -> unit; the layers are the ddscatter modules
PER_LAYER = {
    "numerics.integrate_1d.calls": "count",
    "numerics.integrate_1d.evals": "count",
    "numerics.integrate_1d.self_s": "s",
    "numerics.count_zeros.calls": "count",
    "numerics.count_zeros.evals": "count",
    "numerics.count_zeros.self_s": "s",
    "numerics.refine_root.calls": "count",
    "numerics.refine_root.evals": "count",
    "numerics.refine_root.ok_ratio": "ratio",
    "numerics.refine_root.self_s": "s",
    "numerics.erf_complex.calls": "count",
    "numerics.erf_complex.self_s": "s",
    "model.m22.calls": "count",
    "model.m22.points": "count",
    "model.m22.self_s": "s",
    "spectrum.find_spectral_singularities.self_s": "s",
    "spectrum.count_bound_states.self_s": "s",
    "spectrum.bound_state_roots.calls": "count",
    "spectrum.cell_p50_ms": "ms",
    "spectrum.cell_p90_ms": "ms",
    "spectrum.bound_cell_share": "ratio",
    "kernels.kernel_pair.calls": "count",
    "kernels.kernel_pair.self_s": "s",
    "kernels.kernel_eval.calls": "count",
    "kernels.kernel_eval.self_s": "s",
    "kernels.regular_part_grid.self_s": "s",
    "metric.metric_de_residual.self_s": "s",
    "metric.eta1_appendixA.self_s": "s",
    "hermitianize.energy_quadrature.calls": "count",
    "hermitianize.energy_quadrature.self_s": "s",
    "hermitianize.energy_gaussian.self_s": "s",
    "hermitianize.u_fn.calls": "count",
    "hermitianize.u_fn.self_s": "s",
    "hermitianize.w_fn.calls": "count",
    "hermitianize.w_fn.self_s": "s",
    "perturbation.matrix_from_json.self_s": "s",
    "perturbation.solve_q1.self_s": "s",
    "perturbation.solve_q2.self_s": "s",
    "perturbation.eta_from_q.self_s": "s",
    "perturbation.conjugated_h.self_s": "s",
    "grid.pseudo_hermiticity_residual.self_s": "s",
    "grid.weak_pseudo_hermiticity_residual.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up the workload, print 'ready' and exit")
    ap.add_argument("--sampler", metavar="LOG",
                    help="internal: run the calibration sampler, writing to LOG")
    ap.add_argument("--kinds", default="interp", help="internal: the sampler's unit kinds")
    return ap.parse_args(argv)


def blas_cap():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def source_digest():
    """sha256 over src/**/*.py: identifies the measured code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree
    (the search stops at the checkout root, never reaching a parent repo)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ[BLAS_VARS[0]],
        "jobs": 1,
        "platform": platform.platform(),
    }


# seconds each calibration unit takes on the reference box (2-core x86-64
# VM, Python 3.11, numpy 2.4, scipy 1.17) while no other tenant is busy
CAL_REF_S = {"interp": 0.0017, "dense": 0.0023}
# pause between the sampler's calibration units
SAMPLE_EVERY_S = 0.05


def _interp_unit():
    """0-d complex numpy arithmetic shaped like the transfer-matrix
    element, QUADPACK with a Python integrand, and an interpreter loop."""
    import numpy as np
    import scipy.integrate

    z, acc = 0.3 + 0.2j, 0j
    for i in range(300):
        k = np.asarray(0.5 + 0.01j * i, dtype=complex)
        u = z / (2j * k)
        acc += complex((1 - u) * (1 - u) - u * u * np.exp(4j * k))
    scipy.integrate.quad(lambda x: np.exp(-x * x) * np.cos(3 * x), -4, 4,
                         epsabs=1e-10, epsrel=1e-10, limit=200)
    for i in range(3000):
        acc = acc * 0.999 + cmath.exp(1j * i * 1e-3)
    return acc


@functools.cache
def _dense_matrix():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
    return a + a.conj().T


def _dense_unit():
    """A Hermitian eigendecomposition and two products of 96 x 96 complex
    matrices, on one BLAS thread."""
    import numpy as np

    h = _dense_matrix()
    w, v = np.linalg.eigh(h)
    return (v * w) @ v.conj().T @ h


CAL_UNITS = {"interp": _interp_unit, "dense": _dense_unit}


def run_sampler(path, kinds):
    """Body of the sampler process: time one calibration unit of every
    kind, then sleep SAMPLE_EVERY_S, until terminated or orphaned.  Each
    unit appends a line 'kind start seconds' to ``path``."""
    parent = os.getppid()
    for kind in kinds:
        CAL_UNITS[kind]()  # imports numpy, which starts the BLAS threads
    pin_timed_thread()
    with open(path, "w") as fh:
        while os.getppid() == parent:
            for kind in kinds:
                t0 = time.perf_counter()
                CAL_UNITS[kind]()
                fh.write(f"{kind} {t0!r} {time.perf_counter() - t0!r}\n")
            fh.flush()
            time.sleep(SAMPLE_EVERY_S)


class BoxSampler:
    """Measures the speed of the box while the workload runs.

    The box is shared: other tenants slow the program by up to a factor
    of two, for seconds to minutes at a time, and its two cores are
    slowed by different amounts.  A sampler process, on the same core as
    the timed thread, times a fixed calibration unit of each kind every
    SAMPLE_EVERY_S, so the units see the box as the program sees it.
    The units are written here, so that no change to ddscatter can move
    them.  Interpreter-bound work and dense linear algebra on two BLAS
    threads slow by different factors, hence one unit per kind.  The
    sampler takes about 4% of its core.  A change that puts more threads
    on that core slows the units too, and so reads faster than it is;
    the plain wall times are kept in the record for that case."""

    def __init__(self, kinds, workdir):
        self.path = os.path.join(workdir, "sampler.log")
        # one BLAS thread: a second one would spin between units on the
        # other core, where the program's BLAS worker runs
        env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                      "--workload", WORKLOAD_NAMES[0], "--seed", "0",
                                      "--seconds", "0", "--sampler", self.path,
                                      "--kinds", ",".join(kinds)], env=env)
        self.samples = None
        deadline = time.perf_counter() + 60
        while not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("calibration sampler did not start")
            time.sleep(0.05)

    def stop(self):
        if self.samples is not None:
            return
        self.proc.terminate()
        self.proc.wait()
        samples = defaultdict(list)
        with open(self.path) as fh:
            for line in fh:
                kind, start, seconds = line.split()
                samples[kind].append((float(start), float(seconds)))
        self.samples = samples

    def scale(self, kind, t0, t1):
        """Reference-box seconds per wall second of work of ``kind`` done
        between t0 and t1: the median unit time in that window, widened
        until it holds at least five units."""
        units = self.samples[kind]
        pad = 0.0
        while True:
            inside = [s for start, s in units if t0 - pad <= start <= t1 + pad]
            if len(inside) >= 5 or pad > 60:
                break
            pad += SAMPLE_EVERY_S
        return CAL_REF_S[kind] / statistics.median(inside)

    def scaled(self, spans, dense):
        """Reference-box seconds of every step, by label."""
        return {label: [(t1 - t0) * self.scale("dense" if label in dense else "interp", t0, t1)
                        for t0, t1 in v] for label, v in spans.items()}


# seconds a fresh interpreter takes to import what ddscatter imports
# (IMPORT_PROBE) on the reference box while no other tenant is busy
IMPORT_REF_S = 0.75
IMPORT_PROBE = "import numpy, scipy.integrate, scipy.special; print('ready', flush=True)"


def time_to_ready(cmd):
    """Wall seconds from starting ``cmd`` to its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode} before 'ready'")
    return wall


def measure_setup(args):
    """Reference-speed and wall seconds of fresh processes that import the
    package, generate the inputs and build the kernels, from process start
    (interpreter start included) to their 'ready' line.

    Most of set-up is importing numpy and scipy, which slows with the box
    much as the whole set-up does.  Each set-up process therefore runs
    between two processes that only do those imports, and its wall time
    is scaled by IMPORT_REF_S over their mean."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    imports = [sys.executable, "-c", IMPORT_PROBE]
    scaled, wall = [], []
    last = time_to_ready(imports)
    for _ in range(SETUP_SAMPLES):
        wall.append(time_to_ready(probe))
        cal = time_to_ready(imports)
        scaled.append(wall[-1] * 2 * IMPORT_REF_S / (last + cal))
        last = cal
    return scaled, wall


def run_batches(wl, seconds, tracer=None, min_batches=1):
    """Run whole batches, timing each step, until the next batch would
    overrun ``seconds`` (at least ``min_batches``).
    Returns the (start, end) of every step by label, wall seconds per
    batch, the checked operations and the traced batches' recorders."""
    spans = defaultdict(list)
    batches, ops, recorders = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            recorders.append(tracer.start_batch())
        out = {}
        for label, step in wl.steps():
            t0 = time.perf_counter()
            out[label] = step()
            spans[label].append((t0, time.perf_counter()))
        batches.append(sum(t1 - t0 for t0, t1 in (v[-1] for v in spans.values())))
        ops += wl.check(out)
        if (len(batches) >= min_batches
                and time.perf_counter() + statistics.median(batches) > deadline):
            return spans, batches, ops, recorders


def wall_times(spans):
    return {label: [t1 - t0 for t0, t1 in v] for label, v in spans.items()}


def batch_time(samples):
    """Sum over the batch's steps of each step's median time."""
    return sum(statistics.median(v) for v in samples.values())


def layer_metrics(recorders, untraced, traced):
    """Per-layer metrics of the traced batches: counts of the first batch,
    times as medians over batches."""
    first = recorders[0]
    counts = first.counts()
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            fn = name[: -len(".self_s")]
            out[name] = statistics.median(r.self_s.get(fn, 0.0) for r in recorders)
        elif name.endswith((".calls", ".evals", ".points")):
            out[name] = counts.get(name, 0)
    calls = first.calls["numerics.refine_root"]
    out["numerics.refine_root.ok_ratio"] = (
        first.returns["numerics.refine_root"] / calls if calls else 0.0
    )
    # pooled over the traced batches, so p90 has more than ten cells beyond it
    cells = sorted(1e3 * s for r in recorders for s in r.cell_s.values())
    if cells:
        q = statistics.quantiles(cells, n=10, method="inclusive")
        out["spectrum.cell_p50_ms"] = statistics.median(cells)
        out["spectrum.cell_p90_ms"] = q[8]
        out["spectrum.bound_cell_share"] = sum(first.cell_bound.values()) / len(first.cell_bound)
    else:
        out["spectrum.cell_p50_ms"] = out["spectrum.cell_p90_ms"] = 0.0
        out["spectrum.bound_cell_share"] = 0.0
    out["trace.overhead_frac"] = batch_time(traced) / batch_time(untraced) - 1
    return {name: out[name] for name in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ddscatter" / "__init__.py").is_file():
        print(f"error: no ddscatter sources under {SRC}", file=sys.stderr)
        return 2
    if not args.sampler:
        for var in BLAS_VARS:
            os.environ[var] = str(blas_cap())
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.sampler:
        run_sampler(args.sampler, args.kinds.split(","))

    if not args.setup_probe and args.trace == 0:
        setup_scaled, setup_wall = measure_setup(args)

    TMP_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_DIR)
    sampler = None
    try:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        dense = getattr(wl, "DENSE_STEPS", frozenset())
        sampler = BoxSampler(("interp", "dense") if dense else ("interp",), workdir)
        pin_timed_thread()
        if hasattr(wl, "prepare_oracles"):
            wl.prepare_oracles()
        if args.trace == 0:
            spans, batches, ops, _ = run_batches(wl, args.seconds)
        else:
            from tracer import Tracer

            # two batches or more on each side, so that the count-repeat
            # gate compares two recorders and the overhead is a median
            spans, untraced_batches, ops, _ = run_batches(wl, args.seconds / 2, min_batches=2)
            tracer = Tracer()
            tracer.install()
            try:
                traced_spans, traced_batches, traced_ops, recorders = run_batches(
                    wl, args.seconds / 2, tracer, min_batches=2)
            finally:
                tracer.uninstall()
        sampler.stop()
        if args.trace == 0:
            scaled, wall = sampler.scaled(spans, dense), wall_times(spans)
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "solve_s": batch_time(scaled),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = dict(END_TO_END)
            n_batches = len(batches)
            detail = {"setup_wall_s": setup_wall, "setup_scaled_s": setup_scaled,
                      "solve_wall_s": batch_time(wall), "batch_wall_s": batches,
                      "step_wall_s": wall, "step_scaled_s": scaled}
        else:
            ops += traced_ops
            counts = [r.counts() for r in recorders]
            ops.append(("trace.counts_repeat", all(c == counts[0] for c in counts),
                        f"{len(counts)} traced batches of one input"))
            metrics = layer_metrics(recorders, sampler.scaled(spans, dense),
                                    sampler.scaled(traced_spans, dense))
            units = PER_LAYER
            n_batches = len(untraced_batches) + len(traced_batches)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            recorders[0].save(spans_path)
            detail = {"untraced_batch_s": untraced_batches, "traced_batch_s": traced_batches,
                      "spans": str(spans_path.relative_to(ROOT)),
                      "counts": recorders[0].counts()}
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if not op[1]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": wl.inputs,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "failures": [{"op": o, "detail": d} for o, _, d in failed],
        "checks": [{"op": o, "ok": ok, "detail": d} for o, ok, d in ops[: len(ops) // n_batches]],
        "diagnostics": wl.diagnostics(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, default=str)

    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {record['fail_frac']:.6g} ratio "
          f"({record['failed']}/{record['attempted']} operations)")
    for key, value in record["diagnostics"].items():
        print(f"diagnostic {key} = {value}")
    for f in record["failures"][:20]:
        print(f"FAILED {f['op']}: {f['detail']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0 if not failed else 1


def pin_timed_thread():
    """Keep the thread that runs the workload, and the calibrations, on one
    core.  The cores of the shared box are slowed by different amounts at
    the same time, so a thread that moves between them changes speed in a
    way that calibrations cannot follow.  BLAS worker threads started when
    numpy was imported keep every core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
