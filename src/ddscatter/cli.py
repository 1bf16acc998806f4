"""Command-line frontend.

Subcommands: scan (coupling-plane maps), energy (Gaussian-packet energy
sweeps), kernel (metric/Hamiltonian/observable kernel dumps), inm
(closed-form vs quadrature of the Fourier integral family), verify (the
named validation suites).

Exit codes: 0 success, 2 usage, 3 unsupported coupling class,
4 numerical failure, 5 verification failure.

Data files are byte-stable across runs for identical flags: CSV output
carries no timestamps; run metadata lives in a sidecar .meta.json.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from . import hermitianize as herm
from . import metric as metricmod
from .errors import (
    BranchError,
    ContourError,
    DdscatterError,
    DomainError,
    NoConvergenceError,
    QuadratureError,
    UnsupportedCouplingError,
)
from .model import Couplings, PhysicalContext
from .spectrum import ScanMode, scan_region

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5


def _finite_float(text):
    """The one parser of float values and range endpoints on the command
    line: text that is not a finite number (nan and +-inf included) is a
    usage error, exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_range(text):
    """MIN:MAX -> (min, max)."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}")
    return tuple(_finite_float(p) for p in parts)


def _float_grid(text):
    """MIN:MAX:N -> (min, max, n), with n >= 1 points."""
    parts = text.split(":")
    try:
        n = int(parts[-1])
    except ValueError:
        n = None
    if len(parts) != 3 or n is None:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:N, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"N must be at least 1, got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1]), n


_SWEEP_VARS = ("sigma", "k", "x0")


def _sweep(text):
    """VAR=MIN:MAX:STEPS -> (var, (min, max, steps))."""
    var, sep, grid = text.partition("=")
    var = var.strip()
    if not sep or var not in _SWEEP_VARS:
        raise argparse.ArgumentTypeError(
            f"expected VAR=MIN:MAX:STEPS with VAR one of {','.join(_SWEEP_VARS)}; got {text!r}"
        )
    return var, _float_grid(grid)


def _write_sidecar(path, payload):
    # argparse's handler (``fn``) prints a memory address: not data
    payload = {key: value for key, value in payload.items() if not callable(value)}
    payload["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


def _cmd_scan(args):
    mode_map = {"antisym": "antisymmetric", "pt": "pt_symmetric", "general": "general"}
    mode = ScanMode(
        mode_map[args.mode],
        z_minus_fixed=complex(args.z_minus_re, args.z_minus_im),
    )
    grid = scan_region(
        mode, args.r, args.s, args.n, a=args.a, jobs=args.jobs
    )
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["r", "s", "n_bound", "n_bound_real", "n_spectral_singularities",
             "quasi_hermitian", "status"]
        )
        for si in range(grid.shape[0]):
            for ri in range(grid.shape[1]):
                cell = grid[si, ri]
                w.writerow(
                    [f"{cell.r:.12g}", f"{cell.s:.12g}", cell.n_bound,
                     cell.n_bound_real_energy, len(cell.spectral_singularities),
                     str(cell.quasi_hermitian).lower(), cell.status]
                )
    _write_sidecar(args.out, vars(args))
    failed = sum(cell.status != "ok" for cell in grid.flat)
    if failed:
        print(
            f"numerical failure: {failed} of {grid.size} scan cells failed; "
            f"see the status column of {args.out}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _couplings_from_args(args):
    zp = complex(args.re_z, args.im_z)
    re_minus = args.re_z_minus if args.re_z_minus is not None else args.re_z
    im_minus = args.im_z_minus if args.im_z_minus is not None else -args.im_z
    zm = complex(re_minus, im_minus)
    return Couplings(zp, zm, args.a)


def _energy_scale(args):
    """The total_physical column's factor: all of --mass, --hbar and --ell,
    or none of them (no column); a partial set is a usage error."""
    flags = {"--mass": args.mass, "--hbar": args.hbar, "--ell": args.ell}
    missing = [flag for flag, value in flags.items() if value is None]
    if len(missing) == len(flags):
        return None
    if missing:
        raise DomainError(
            f"total_physical needs --mass, --hbar and --ell; missing {', '.join(missing)}"
        )
    ctx = PhysicalContext(
        mass=args.mass, hbar=args.hbar, length_scale=args.ell,
        alpha=args.a * args.ell, zeta_plus=0.0, zeta_minus=0.0,
    )
    return ctx.energy_scale()


def _cmd_energy(args):
    c = _couplings_from_args(args)
    if not c.im_antisymmetric:
        raise UnsupportedCouplingError("energy command needs Im(z_+) = -Im(z_-)")
    scale = _energy_scale(args)

    base = {"sigma": args.sigma, "k": args.k, "x0": args.x0}
    rows = [base]
    sweep_var = None
    if args.sweep:
        sweep_var, (lo, hi, steps) = args.sweep
        rows = [{**base, sweep_var: float(v)} for v in np.linspace(lo, hi, steps)]
    # every packet is built before --out is opened, so a bad row is a
    # usage error that leaves no file
    packets = [herm.GaussianPacket(row["sigma"], row["k"], row["x0"]) for row in rows]

    header = [
        "sigma", "k0", "x0",
        "kinetic", "local", "nonlocal", "total",
        "quad_total", "abs_diff",
    ]
    if scale is not None:
        header.append("total_physical")
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for packet in packets:
            closed = herm.energy_gaussian(c, packet)
            oracle = herm.energy_quadrature(c, packet)
            out = [
                f"{packet.sigma:.12g}", f"{packet.k0:.12g}", f"{packet.x0:.12g}",
                f"{closed.kinetic:.12g}", f"{closed.local_potential:.12g}",
                f"{closed.nonlocal_part:.12g}", f"{closed.total:.12g}",
                f"{oracle.total:.12g}", f"{abs(closed.total - oracle.total):.3e}",
            ]
            if scale is not None:
                out.append(f"{closed.total * scale:.12g}")
            w.writerow(out)
    _write_sidecar(args.out, {**vars(args), "sweep_var": sweep_var})
    return EXIT_OK


def _cmd_kernel(args):
    lo, hi, n = args.grid
    if args.which == "appendixA":
        p = metricmod.AppendixAParams(
            r_plus=args.r_plus, r_minus=args.r_minus,
            eps_plus=args.eps_plus, eps_minus=args.eps_minus,
            gamma=args.gamma, a=args.a,
        )
        kern = metricmod.eta1_appendixA(p)
    else:
        c = _couplings_from_args(args)
        builder = {
            "eta1": metricmod.eta1_bounded,
            "h": herm.h_kernel,
            "X": herm.x_kernel,
            "P": herm.p_kernel,
        }[args.which]
        kern = builder(c)

    with open(str(args.out) + ".terms.json", "w") as fh:
        json.dump(kern.to_records(), fh, indent=2)

    from .kernels import regular_part_grid, singular_mask

    xs = np.linspace(lo, hi, n)
    values = regular_part_grid(kern, xs, xs)
    singular = singular_mask(kern, xs, xs)
    coords = [f"{x:.12g}" for x in xs.tolist()]
    # the csv module's excel dialect, written as one text: comma-separated
    # fields that need no quoting, \r\n after every row
    lines = ["x,y,re,im"]
    for x, row, on_line in zip(coords, values.tolist(), singular.tolist()):
        lines.extend(
            f"{x},{y},nan,nan" if s else f"{x},{y},{v.real:.12g},{v.imag:.12g}"
            for y, v, s in zip(coords, row, on_line)
        )
    lines.append("")
    with open(args.out, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    _write_sidecar(args.out, vars(args))
    return EXIT_OK


def _cmd_inm(args):
    delta, regular = metricmod.inm(args.n, args.m, args.alpha)
    quad = metricmod.inm_quadrature(args.n, args.m, args.alpha)
    print(f"I[n={args.n}, m={args.m}](alpha={args.alpha}):")
    print(f"  delta coefficient : {delta}")
    print(f"  regular (closed)  : {regular}")
    print(f"  regular (quad)    : {quad}")
    print(f"  |difference|      : {abs(regular - quad):.3e}")
    return EXIT_OK


def _cmd_verify(args):
    if args.perturbation:
        if args.json is not None or args.level is not None:
            raise DomainError("--perturbation writes FILE.out.json and takes no --json or --level")
        from .perturbation import run_instance

        with open(args.perturbation) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise DomainError(f"{args.perturbation} is not JSON text: {exc}") from exc
        result = run_instance(payload)
        out_path = args.perturbation + ".out.json"
        with open(out_path, "w") as fh:
            fh.write(json.dumps(result))
        print(f"instance solved; results in {out_path}")
        print(f"pseudo-hermiticity residual: {result['pseudo_hermiticity_residual']:.3e}")
        return EXIT_OK

    from .verify import run_verify

    ok, report = run_verify(args.level or "fast")
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"{mark}  {check['name']:45s} ({check['seconds']:6.2f}s)  {check['detail']}")
    print(f"{'ALL PASSED' if ok else 'FAILURES PRESENT'} at level {report['level']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ddscatter",
        description="Pseudo-Hermitian toolkit for the complex double-delta potential",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scan", help="coupling-plane map of bound states and singularities")
    sc.add_argument("--mode", choices=("antisym", "pt", "general"), required=True)
    sc.add_argument("--r", type=_float_range, required=True, help="MIN:MAX")
    sc.add_argument("--s", type=_float_range, required=True, help="MIN:MAX")
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--a", type=_finite_float, default=1.0)
    sc.add_argument("--jobs", type=int, default=1, help="0 = all cores")
    sc.add_argument("--z-minus-re", type=_finite_float, default=0.0, help="general mode only")
    sc.add_argument("--z-minus-im", type=_finite_float, default=0.0, help="general mode only")
    sc.add_argument("--out", required=True)
    sc.set_defaults(fn=_cmd_scan)

    en = sub.add_parser("energy", help="Gaussian-packet energy expectation values")
    en.add_argument("--sigma", type=_finite_float, default=1.5)
    en.add_argument("--k", type=_finite_float, default=0.0)
    en.add_argument("--x0", type=_finite_float, default=0.0)
    en.add_argument("--re-z", type=_finite_float, default=0.0)
    en.add_argument("--im-z", type=_finite_float, required=True)
    en.add_argument("--re-z-minus", type=_finite_float, default=None,
                    help="defaults to --re-z (PT-symmetric pair)")
    en.add_argument("--im-z-minus", type=_finite_float, default=None,
                    help="defaults to -(--im-z); other values are outside the supported class")
    en.add_argument("--a", type=_finite_float, default=1.0)
    en.add_argument("--sweep", type=_sweep, default=None, help="VAR=MIN:MAX:STEPS")
    en.add_argument("--mass", type=_finite_float, default=None)
    en.add_argument("--hbar", type=_finite_float, default=None)
    en.add_argument("--ell", type=_finite_float, default=None)
    en.add_argument("--out", required=True)
    en.set_defaults(fn=_cmd_energy)

    ke = sub.add_parser("kernel", help="dump a distributional kernel (terms + samples)")
    ke.add_argument("--which", choices=("eta1", "h", "X", "P", "appendixA"), required=True)
    ke.add_argument("--a", type=_finite_float, default=1.0)
    ke.add_argument("--im-z", type=_finite_float, default=0.1)
    ke.add_argument("--re-z", type=_finite_float, default=0.0)
    ke.add_argument("--re-z-minus", type=_finite_float, default=None)
    ke.add_argument("--im-z-minus", type=_finite_float, default=None)
    ke.add_argument("--r-plus", type=_finite_float, default=1.0)
    ke.add_argument("--r-minus", type=_finite_float, default=1.0)
    ke.add_argument("--eps-plus", type=_finite_float, default=0.0)
    ke.add_argument("--eps-minus", type=_finite_float, default=0.0)
    ke.add_argument("--gamma", type=_finite_float, default=1.0)
    ke.add_argument("--grid", type=_float_grid, required=True, help="MIN:MAX:N")
    ke.add_argument("--out", required=True)
    ke.set_defaults(fn=_cmd_kernel)

    im = sub.add_parser("inm", help="Fourier integral family: closed form vs quadrature")
    im.add_argument("--n", type=int, required=True)
    im.add_argument("--m", type=int, required=True)
    im.add_argument("--alpha", type=_finite_float, required=True)
    im.set_defaults(fn=_cmd_inm)

    ve = sub.add_parser("verify", help="run the named validation suites")
    ve.add_argument("--level", choices=("fast", "full"), default=None, help="default fast")
    ve.add_argument("--json", default=None)
    ve.add_argument("--perturbation", default=None, metavar="FILE",
                    help="solve a JSON matrix instance (dense row-major [re,im] arrays) "
                         "through the perturbative engine instead of the suites")
    ve.set_defaults(fn=_cmd_verify)

    return ap


@functools.cache
def _parser():
    """The parser main uses, built once per process: parse_args leaves
    no state in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedCouplingError as exc:
        print(f"unsupported coupling class: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (QuadratureError, NoConvergenceError, ContourError, BranchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DdscatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
