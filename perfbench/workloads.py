"""The four benchmark workloads.

Each workload is built from a seed (``__init__``: input generation and
kernel construction, the part timed as set-up).  ``steps()`` lists its
fixed batch as (label, thunk) pairs that call into the package; each
step is timed on its own.  ``check`` (untimed) takes the steps' results
by label and returns one (operation, ok, detail) triple per operation;
an operation fails on a typed error, a scan cell whose status is not
``ok``, or a gate miss.

The package is reached only through module attributes looked up at
call time (``cli.main``, ``kernels.kernel_pair``, ...), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

from ddscatter import cli, errors, grid, hermitianize, kernels, metric, model, perturbation

import reference


def _cli(argv):
    """Run the ddscatter command line in-process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _guarded(fn, *args):
    """fn(*args), or the typed ddscatter error it raised."""
    try:
        return fn(*args)
    except errors.DdscatterError as exc:
        return exc


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class ScanPT:
    """README fig-4 map: ``scan --mode pt`` on a seeded window, reduced n."""

    name = "scan-pt"
    N = 9

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-0.005, 0.005)
        half = 0.49 * rng.uniform(0.99, 1.0)
        self.out = os.path.join(workdir, "scan.csv")
        self.argv = [
            "scan", "--mode", "pt",
            f"--r={-0.99 + shift!r}:{-0.01 + shift!r}",
            f"--s={-half!r}:{half!r}",
            "--n", str(self.N), "--a", "1", "--jobs", "1", "--out", self.out,
        ]
        self.inputs = {"argv": self.argv[:-1]}
        self.bound_cell_share = None

    def steps(self):
        return [("scan", lambda: _cli(self.argv))]

    def check(self, out):
        n, rc = self.N, out["scan"]
        if rc != 0:
            return [(f"cell[{i}]", False, f"scan exit code {rc}") for i in range(n * n)]
        rows = _read_csv(self.out)
        counts = [(int(r["n_bound"]), int(r["n_bound_real"]), int(r["n_spectral_singularities"]))
                  for r in rows]
        ops = []
        for idx, row in enumerate(rows):
            si, ri = divmod(idx, n)
            r, s = float(row["r"]), float(row["s"])
            nb, nbr, _ = counts[idx]
            misses = []
            if row["status"] != "ok":
                misses.append(f"status {row['status']!r}")
            if nbr > nb:
                misses.append(f"n_bound_real {nbr} > n_bound {nb}")
            if counts[(n - 1 - si) * n + ri] != counts[idx]:
                misses.append("counts change under s -> -s")
            if (r + 0.5) ** 2 + s**2 < 0.23**2 and nb < 1:
                misses.append("no bound state inside the criterion-04 circle")
            ops.append((f"cell(r={r:.6g},s={s:.6g})", not misses, "; ".join(misses)))
        self.bound_cell_share = sum(c[0] >= 1 for c in counts) / len(counts)
        return ops

    def diagnostics(self):
        return {"bound_cell_share": self.bound_cell_share}


def _jitter(rng, value, rel=0.02):
    """value * U(1 - rel, 1 + rel): seeds move the inputs, not the cost."""
    return value * rng.uniform(1 - rel, 1 + rel)


def _packet(rng, sigma, k0, x0):
    return (_jitter(rng, sigma), _jitter(rng, k0), _jitter(rng, x0))


class PairKernels:
    """Quadrature pairings, the metric DE residual, and kernel dumps.

    The appendix-A *pairing* is left out: one call costs about 94 s.
    """

    name = "pair-kernels"
    DUMP_N = 41

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.lam = _jitter(rng, 0.1, 0.1)
        re_p, re_m = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
        self.c = model.Couplings(complex(re_p, self.lam), complex(re_m, -self.lam), 1.0)
        self.bra, self.ket = _packet(rng, 1.1, 0.3, 0.2), _packet(rng, 0.9, -0.2, -0.3)
        self.lam_de = _jitter(rng, 0.1, 0.1)
        self.c_de = model.Couplings(1j * self.lam_de, -1j * self.lam_de, 1.0)
        self.de_bra, self.de_ket = _packet(rng, 1.3, 0.4, 0.2), _packet(rng, 1.1, -0.3, -0.4)
        half = _jitter(rng, 3.0)
        self.grid = (-half, half, self.DUMP_N)
        self.appendix = metric.AppendixAParams(
            r_plus=_jitter(rng, 1.0), r_minus=_jitter(rng, 0.8),
            eps_plus=_jitter(rng, 0.1, 0.3), eps_minus=_jitter(rng, 0.07, 0.3),
            gamma=_jitter(rng, 1.1), a=1.0,
        )
        self.eta1_out = os.path.join(workdir, "eta1.csv")
        self.appendix_out = os.path.join(workdir, "etaA.csv")
        grid_arg = f"--grid={-half!r}:{half!r}:{self.DUMP_N}"
        self.eta1_argv = ["kernel", "--which", "eta1", "--im-z", repr(self.lam),
                          "--re-z", repr(re_p), "--re-z-minus", repr(re_m),
                          grid_arg, "--out", self.eta1_out]
        p = self.appendix
        self.appendix_argv = ["kernel", "--which", "appendixA",
                              "--r-plus", repr(p.r_plus), "--r-minus", repr(p.r_minus),
                              "--eps-plus", repr(p.eps_plus), "--eps-minus", repr(p.eps_minus),
                              "--gamma", repr(p.gamma), grid_arg, "--out", self.appendix_out]
        # kernel construction
        self.eta1 = metric.eta1_bounded(self.c)
        self.xk = hermitianize.x_kernel(self.c)
        self.eta1_de = metric.eta1_bounded(self.c_de)
        self.appendix_records = metric.eta1_appendixA(self.appendix).to_records()
        self.inputs = {"couplings": [str(self.c.z_plus), str(self.c.z_minus)],
                       "bra": self.bra, "ket": self.ket, "de_lambda": self.lam_de,
                       "de_bra": self.de_bra, "de_ket": self.de_ket,
                       "eta1_argv": self.eta1_argv[:-1], "appendix_argv": self.appendix_argv[:-1]}
        self.ref = None

    def prepare_oracles(self):
        a = self.c.a
        self.ref = {
            "eta1_pair": reference.eta1_pair(self.lam, a, self.bra, self.ket),
            "x_pair": reference.x_pair(self.lam, a, self.bra, self.ket),
        }

    def steps(self):
        bra, ket = hermitianize.GaussianPacket(*self.bra), hermitianize.GaussianPacket(*self.ket)
        de_bra = hermitianize.GaussianPacket(*self.de_bra)
        de_ket = hermitianize.GaussianPacket(*self.de_ket)
        return [
            ("eta1_pair", lambda: _guarded(kernels.kernel_pair, self.eta1, bra, ket)),
            ("x_pair", lambda: _guarded(kernels.kernel_pair, self.xk, bra, ket)),
            ("de_residual", lambda: _guarded(
                metric.metric_de_residual, self.eta1_de, self.c_de, de_bra, de_ket)),
            ("eta1_dump", lambda: _cli(self.eta1_argv)),
            ("appendix_dump", lambda: _cli(self.appendix_argv)),
        ]

    def check(self, out):
        ops = []
        for label in ("eta1_pair", "x_pair"):
            v = out[label]
            if isinstance(v, Exception):
                ops.append((label, False, f"{type(v).__name__}: {v}"))
                continue
            diff = abs(v - self.ref[label])
            ops.append((label, diff <= 1e-8, f"|pair - reference| = {diff:.2e} (<= 1e-8)"))
        v = out["de_residual"]
        if isinstance(v, Exception):
            ops.append(("de_residual", False, f"{type(v).__name__}: {v}"))
        else:
            limit = 0.09 * self.lam_de**2
            ops.append(("de_residual", bool(abs(v) <= limit),
                        f"|residual| = {abs(v):.2e} (<= 0.09 lambda^2 = {limit:.2e})"))
        ops.append(self._check_eta1_dump(out["eta1_dump"]))
        ops.append(self._check_appendix_dump(out["appendix_dump"]))
        return ops

    def _dump_values(self, path):
        xs = np.linspace(*self.grid)
        rows = _read_csv(path)
        vals = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
        return xs, vals.reshape(len(xs), len(xs))

    def _check_eta1_dump(self, rc):
        if rc != 0:
            return ("eta1_dump", False, f"kernel exit code {rc}")
        xs, got = self._dump_values(self.eta1_out)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        want = reference.eta1_regular(self.lam, 1.0, X, Y)
        diag = np.eye(len(xs), dtype=bool)
        nan_ok = np.array_equal(np.isnan(got.real), diag)
        err = np.abs(got - want)[~diag]
        tol = 1e-11 * np.abs(want[~diag]) + 1e-15
        ok = nan_ok and bool(np.all(err <= tol))
        return ("eta1_dump", ok, f"max |dump - closed form| = {err.max():.1e}, "
                                 f"NaN exactly on x = y: {nan_ok}")

    def _check_appendix_dump(self, rc):
        if rc != 0:
            return ("appendix_dump", False, f"kernel exit code {rc}")
        xs, got = self._dump_values(self.appendix_out)
        with open(self.appendix_out + ".terms.json") as fh:
            terms_ok = json.load(fh) == json.loads(json.dumps(self.appendix_records))
        diag = np.eye(len(xs), dtype=bool)
        mirrored = np.conj(got.T)
        # 1e-14, plus one unit in the 12th significant digit: two values
        # equal to 1e-16 can round to neighbouring 12-digit texts
        d_re = np.abs(got.real - mirrored.real)[~diag]
        d_im = np.abs(got.imag - mirrored.imag)[~diag]
        ok_re = d_re <= 1e-14 + _text_unit(got.real[~diag])
        ok_im = d_im <= 1e-14 + _text_unit(got.imag[~diag])
        ok = terms_ok and bool(np.all(ok_re & ok_im))
        return ("appendix_dump", ok,
                f"max Hermiticity defect {max(d_re.max(), d_im.max()):.1e}, terms match: {terms_ok}")

    def diagnostics(self):
        return {}


def _text_unit(v):
    """One unit in the last place of v printed with 12 significant digits."""
    mag = np.abs(v)
    with np.errstate(divide="ignore"):
        return np.where(mag > 0, 10.0 ** (np.floor(np.log10(mag)) - 11), 0.0)


class EnergySweep:
    """README ``energy`` sweeps over sigma, k and x0, and the U/W maps."""

    name = "energy-sweep"
    ROWS = 41

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.1, 0.3)
        re_z = rng.uniform(-0.3, 0.3)
        base = ["energy", "--im-z", repr(lam), "--re-z", repr(re_z),
                "--sigma", repr(_jitter(rng, 1.5)),
                "--k", repr(_jitter(rng, 0.25)), "--x0", repr(_jitter(rng, 0.25))]
        sweeps = {
            "sigma": (_jitter(rng, 0.4), _jitter(rng, 4.5)),
            "k": (_jitter(rng, -1.75), _jitter(rng, 1.75)),
            "x0": (_jitter(rng, -2.5), _jitter(rng, 2.5)),
        }
        self.runs = []
        for var, (lo, hi) in sweeps.items():
            out = os.path.join(workdir, f"energy_{var}.csv")
            self.runs.append(base + ["--sweep", f"{var}={lo!r}:{hi!r}:{self.ROWS}", "--out", out])
        self.u_sigma = np.linspace(_jitter(rng, 0.5), _jitter(rng, 3.0), 60)
        self.u_k = np.arange(-60, 61) * _jitter(rng, 0.05)
        self.w_sigma = np.linspace(_jitter(rng, 0.5), _jitter(rng, 4.0), 60)
        self.w_x0 = np.arange(-50, 51) * _jitter(rng, 0.05)
        self.inputs = {"argv": [r[:-1] for r in self.runs],
                       "u_sigma": [self.u_sigma[0], self.u_sigma[-1]], "u_dk": self.u_k[1],
                       "w_sigma": [self.w_sigma[0], self.w_sigma[-1]], "w_dx0": self.w_x0[1]}

    def steps(self):
        out = [(argv[-3].split("=")[0], lambda argv=argv: _cli(argv)) for argv in self.runs]
        out.append(("u_map", lambda: np.array(
            [[hermitianize.u_fn(1.0, s, k) for k in self.u_k] for s in self.u_sigma])))
        out.append(("w_map", lambda: np.array(
            [[hermitianize.w_fn(1.0, s, x) for x in self.w_x0] for s in self.w_sigma])))
        return out

    def check(self, out):
        u_map, w_map = out["u_map"], out["w_map"]
        ops = []
        for argv in self.runs:
            var = argv[-3].split("=")[0]
            rc = out[var]
            if rc != 0:
                ops += [(f"{var}[{i}]", False, f"energy exit code {rc}") for i in range(self.ROWS)]
                continue
            for i, row in enumerate(_read_csv(argv[-1])):
                diff, quad = float(row["abs_diff"]), float(row["quad_total"])
                ops.append((f"{var}[{i}]", diff <= 1e-6 * abs(quad),
                            f"abs_diff {diff:.3e} vs 1e-6 |quad_total| = {1e-6 * abs(quad):.3e}"))
        _, j = np.unravel_index(np.argmax(u_map), u_map.shape)
        ops.append(("u_map", self.u_k[j] == 0.0, f"U argmax at k = {self.u_k[j]:.4g} (0 exactly)"))
        parity = float(np.max(np.abs(w_map - w_map[:, ::-1])))
        ops.append(("w_map", parity <= 1e-10, f"W parity {parity:.1e} (<= 1e-10)"))
        return ops

    def diagnostics(self):
        return {}


class Matrix:
    """Seeded perturbative instances, solved through ``verify
    --perturbation`` and through the ``perturbation`` functions, plus the
    grid residuals.

    The CLI path spends most of its time reading and writing dense JSON
    in Python loops, and that share grows with n, so it runs at a small
    n.  The in-memory path runs the same solver calls as ``verify``
    (solve_q1, solve_q2, equivalent_h, eta_from_q, conjugated_h) at a
    size where LAPACK/BLAS do most of the work.
    """

    name = "matrix"
    CLI_SIZE = 96
    API_SIZE = 384
    # steps that are mostly LAPACK/BLAS; run.py scales their times by a
    # dense linear algebra calibration instead of the interpreter one
    DENSE_STEPS = frozenset({"solve_api", "grid_residuals"})

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        h0, gens, z = _instance(rng, self.CLI_SIZE)
        self.cli_files = []
        for tag, zz in (("z", z), ("half", z / 2)):
            path = os.path.join(workdir, f"instance_{tag}.json")
            payload = {
                "h0": _to_json(h0),
                "generators": [_to_json(g) for g in gens],
                "couplings": [[zz, 0.0], [0.0, zz]],
            }
            with open(path, "w") as fh:
                json.dump(payload, fh)
            self.cli_files.append(path)
        self.api_h0, self.api_gens, self.api_z = _instance(rng, self.API_SIZE)
        lam = rng.uniform(0.08, 0.12)
        self.grid_couplings = [model.Couplings(1j * l, -1j * l, 1.0) for l in (lam, lam / 2)]
        self.inputs = {"cli_size": self.CLI_SIZE, "cli_z": z, "api_size": self.API_SIZE,
                       "api_z": self.api_z, "grid_lambda": lam}
        self.frobenius_factor = None
        self.weak_factor = None

    def _solve(self, zz):
        p = perturbation.PerturbedOperator(self.api_h0, self.api_gens, (zz, 1j * zz))
        q1 = perturbation.solve_q1(p)
        q2 = perturbation.solve_q2(p, q1)
        h = perturbation.equivalent_h(p, q1)
        eta = perturbation.eta_from_q(q1, q2)
        return p.total, h, eta, perturbation.conjugated_h(p, perturbation.QExpansion(q1, q2))

    def steps(self):
        return [
            ("verify_cli", lambda: [_cli(["verify", "--perturbation", path])
                                    for path in self.cli_files]),
            ("solve_api", lambda: [_guarded(self._solve, zz)
                                   for zz in (self.api_z, self.api_z / 2)]),
            ("grid_residuals", lambda: [
                _guarded(lambda c: (grid.pseudo_hermiticity_residual(c),
                                    grid.weak_pseudo_hermiticity_residual(c)), c)
                for c in self.grid_couplings]),
        ]

    def check(self, out):
        ops = []
        rcs = out["verify_cli"]
        if any(rc != 0 for rc in rcs):
            ops.append(("verify_cli", False, f"verify exit codes {rcs}"))
        else:
            res = []
            for path in self.cli_files:
                with open(path + ".out.json") as fh:
                    r = json.load(fh)
                res.append((r["pseudo_hermiticity_residual"],
                            r["conjugated_h_antihermitian_residual"]))
            ops.append(_halving_op("verify_cli", res))
        solved = out["solve_api"]
        bad = [r for r in solved if isinstance(r, Exception)]
        if bad:
            ops.append(("solve_api", False, f"{type(bad[0]).__name__}: {bad[0]}"))
        else:
            res, herm = [], []
            for H, h, eta, ch in solved:
                res.append((np.linalg.norm(eta @ H - H.conj().T @ eta),
                            np.linalg.norm(ch - ch.conj().T)))
                herm.append(np.linalg.norm(h - h.conj().T) / np.linalg.norm(h))
            name, ok, detail = _halving_op("solve_api", res)
            herm_ok = bool(max(herm) <= 1e-12)
            ops.append((name, ok and herm_ok,
                        f"{detail}; equivalent_h Hermitian to {max(herm):.1e} (<= 1e-12)"))
        residuals = out["grid_residuals"]
        bad = [r for r in residuals if isinstance(r, Exception)]
        finite = not bad and all(np.isfinite(v) for r in residuals for v in r)
        ops.append(("grid_residuals", finite, f"{bad[0]!r}" if bad else "finite"))
        if finite:
            self.frobenius_factor = residuals[0][0] / residuals[1][0]
            self.weak_factor = residuals[0][1] / residuals[1][1]
        return ops

    def diagnostics(self):
        # criterion 06: the pointwise-sampled Frobenius factor is pinned
        # near 2 by lattice artifacts; reported, never gated
        return {"frobenius_halving_factor": self.frobenius_factor,
                "weak_halving_factor": self.weak_factor}


def _instance(rng, n):
    """H0 levels, a real-symmetric zero-diagonal generator, an
    imaginary-antisymmetric generator, and a coupling z."""
    # unit level spacing with +-0.3 jitter keeps every gap >= 0.4,
    # so the couplings below stay perturbative
    h0 = np.diag(np.arange(n) + 0.3 * rng.uniform(-1, 1, n))
    A = rng.normal(size=(n, n))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 0)
    B = rng.normal(size=(n, n))
    T = 1j * (B - B.T) / 2
    return h0, (S, T), rng.uniform(0.008, 0.012)


def _halving_op(name, res):
    """Both residuals of the z instance over those of the z/2 instance,
    gated at 6 as in ``verify``'s ``perturbation.scalings``."""
    fe, fh = res[0][0] / res[1][0], res[0][1] / res[1][1]
    return (name, bool(fe >= 6.0 and fh >= 6.0), f"halving factors eta {fe:.2f}, h {fh:.2f} (>= 6)")


def _to_json(M):
    """Dense row-major [re, im] pairs, the format ``verify --perturbation`` reads."""
    M = np.asarray(M, dtype=complex)
    return [[[v.real, v.imag] for v in row] for row in M]


WORKLOADS = {w.name: w for w in (ScanPT, PairKernels, EnergySweep, Matrix)}
