"""Command-line frontend: file outputs, exit codes, verification runner,
and the mutation fixture proving the verifier catches injected errors."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddscatter
from ddscatter import spectrum as spectrum_mod
from ddscatter.cli import EXIT_NUMERICAL, EXIT_USAGE, main
from ddscatter.errors import ContourError
from ddscatter import verify as verify_mod
from ddscatter import metric as metric_mod
from ddscatter.kernels import DistributionalKernel, KernelTerm


# SHA-256 of the README fig-4 scan CSV; any change to a cell's counts,
# flag or status changes it
FIG4_SHA256 = "46fe0df2f3768f3a0489c34f5233e0371d638650e14cfabdf377a8eb7fd6a818"

# SHA-256 of the README energy sweep's CSV; any change to a printed
# closed-form value or to the quadrature oracle's abs_diff changes it
README_ENERGY_SHA256 = "f3b1915a00dc7ff8deb3055a916751783d1cd886194be71bef5cdcd695fb3918"

# SHA-256 of the README verify --perturbation instance's .out.json; any
# change to a written matrix or residual changes it
README_PERTURBATION_SHA256 = "e927e3fc3aa4b95c7e8c3d6d451891ccaadddcaa4a618ae1a997d468b8c87bbb"

# SHA-256 of the README's two kernel dumps (--grid=-3:3:121) and their
# term lists; any change to a printed value or a term changes them
README_KERNEL_DUMPS = {
    "eta1": (
        ["--which", "eta1", "--im-z", "0.1"],
        "5471dba602d817572c0a03044367bd1eba628f5880dccb69632517f7322a3de8",
        "85ee42ace1b7900cfbad6aebb65bbb73db162a769a1acbab21d75f1af1faf9c4",
    ),
    "appendixA": (
        ["--which", "appendixA", "--r-plus", "1", "--r-minus", "0.8", "--gamma", "1.1"],
        "3bfaa26368fa6a503e8be006c1d0aaa00d0fa35875f3b9e1e25d904bdf1d7189",
        "88b549be79d1534b3af26fcce0506c4b0a4650cb60143fdc5af21775924c0365",
    ),
}


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestScanCommand:
    def test_real_row_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--mode", "antisym", "--r", "0.1:0.5", "--s", "0:0",
            "--n", "2", "--out", str(out),
        ])
        # s = 0 twice: real antisymmetric couplings, the Hermitian row
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["n_spectral_singularities"] == "0"
            assert row["quasi_hermitian"] == "true"

    def test_readme_fig4_csv_digest(self, tmp_path):
        # the README's fig-4 command; its CSV does not depend on --jobs
        # (test_parallel_matches_serial), so it runs serially here
        out = tmp_path / "fig4.csv"
        rc = main(["scan", "--mode", "pt", "--r=-0.99:-0.01", "--s=-0.49:0.49", "--n", "41",
                   "--a", "1", "--jobs", "1", "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG4_SHA256

    def test_grid_output_and_invariants(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--mode", "antisym", "--r", "0.1:0.4", "--s=-0.1:0.1",
            "--n", "2", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert int(row["n_bound_real"]) <= int(row["n_bound"])
            if row["quasi_hermitian"] == "true":
                assert row["n_spectral_singularities"] == "0"
        assert (tmp_path / "scan.csv.meta.json").exists()

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--mode", "pt", "--r=-0.6:-0.4", "--s", "0:0.2",
                "--n", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_stable_across_processes(self, tmp_path):
        # two interpreters: a recorded object address would differ between them
        out = tmp_path / "scan.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(ddscatter.__file__).parents[1]))
        argv = [sys.executable, "-m", "ddscatter.cli", "scan", "--mode", "pt",
                "--r=-0.6:-0.4", "--s", "0:0.2", "--n", "2",
                "--out", str(out)]
        sidecars = []
        for _ in range(2):
            subprocess.run(argv, env=env, check=True, timeout=120)
            sidecars.append(json.loads((tmp_path / "scan.csv.meta.json").read_text()))
        for payload in sidecars:
            assert "fn" not in payload
            del payload["written_at"]
        assert sidecars[0] == sidecars[1]

    def test_failed_cell_exits_numerical(self, tmp_path, monkeypatch, capsys):
        real = spectrum_mod.count_bound_states

        def fail_upper(c):
            if c.z_plus.imag > 0:
                raise ContourError("zero on the contour")
            return real(c)

        monkeypatch.setattr(spectrum_mod, "count_bound_states", fail_upper)
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--mode", "pt", "--r=-0.6:-0.4", "--s=-0.2:0.2", "--n", "2",
                   "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "2 of 4 scan cells failed" in capsys.readouterr().err
        statuses = [row["status"] for row in read_csv(out)]
        assert statuses[:2] == ["ok", "ok"]
        assert all(st.startswith("error: ContourError") for st in statuses[2:])

    def test_window_overflow_cells_exit_numerical(self, tmp_path, capsys):
        # at r >= 1e308 the bound-state window overflows: each cell records
        # a DomainError where the scan once ended in an OverflowError
        # traceback with exit 1
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--mode", "pt", "--r=1e308:1.7e308", "--s=0.1:0.2", "--n", "2",
                   "--jobs", "1", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "4 of 4 scan cells failed" in capsys.readouterr().err
        statuses = [row["status"] for row in read_csv(out)]
        assert all(st.startswith("error: DomainError") for st in statuses)


def test_one_parser_serves_every_call(tmp_path):
    # main keeps one parser per process: a command, another command and a
    # usage error leave nothing behind that changes the next command
    out = tmp_path / "kern.csv"
    kernel = ["kernel", "--which", "X", "--im-z", "0.3", "--grid=-2:2:7", "--out", str(out)]
    sidecar = Path(str(out) + ".meta.json")
    runs = []
    for _ in range(2):
        assert main(kernel) == 0
        runs.append((out.read_bytes(), json.loads(sidecar.read_text())))
        assert main(["energy", "--im-z", "0.2", "--out", str(tmp_path / "energy.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--which", "eta1", "--grid=-3:3", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
    (first, first_meta), (second, second_meta) = runs
    assert first == second
    del first_meta["written_at"], second_meta["written_at"]
    assert first_meta == second_meta


NON_FINITE_ARGS = [
    ["inm", "--n", "1", "--m", "3", "--alpha", "nan"],
    ["scan", "--mode", "pt", "--r=-0.99:nan", "--s=-0.4:0.4", "--n", "2"],
    ["scan", "--mode", "pt", "--r=-0.99:-0.01", "--s=-inf:0.4", "--n", "2"],
    ["scan", "--mode", "pt", "--r=-0.99:-0.01", "--s=-0.4:0.4", "--n", "2", "--a", "inf"],
    ["energy", "--im-z", "nan"],
    ["energy", "--im-z", "0.2", "--sweep", "sigma=0.2:nan:5"],
    ["kernel", "--which", "eta1", "--grid=-3:inf:5"],
    ["kernel", "--which", "appendixA", "--gamma=-inf", "--grid=-3:3:5"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGS, ids=lambda argv: " ".join(argv))
def test_non_finite_value_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] != "inm":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["kernel", "--which", "eta1", "--grid=-3:3:{n}"],
     ["energy", "--im-z", "0.2", "--sweep", "sigma=1:2:{n}"]],
    ids=["kernel", "energy"],
)
def test_grid_without_points_is_usage_error(argv, n, tmp_path, capsys):
    # N < 1 is no grid: neither an empty CSV nor a traceback
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(n=n) for arg in argv] + ["--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "N must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n", "1"], ["--a", "0"], ["--jobs", "-2"]])
def test_bad_scan_input_is_usage_error(flags, tmp_path, capsys):
    # rejected before any cell runs, so no cell fails and no CSV is written
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--mode", "pt", "--r=-0.99:-0.01", "--s=-0.4:0.4", "--n", "2",
               *flags, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,missing",
    [(["--hbar", "0"], "--mass, --ell"),
     (["--mass", "1"], "--hbar, --ell"),
     (["--hbar", "1"], "--mass, --ell"),
     (["--ell", "1"], "--mass, --hbar"),
     (["--mass", "1", "--hbar", "1"], "--ell"),
     (["--mass", "1", "--ell", "1"], "--hbar"),
     (["--hbar", "1", "--ell", "1"], "--mass")],
)
def test_partial_dimensionful_flags_are_usage_error(flags, missing, tmp_path, capsys):
    # without all three there is no energy scale: not a CSV that drops total_physical
    out = tmp_path / "energy.csv"
    rc = main(["energy", "--im-z", "0.2", *flags, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert f"missing {missing}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--sigma", "0"], ["--sweep", "sigma=-1:1:5"], ["--sweep", "sigma=1:-1:5"]],
    ids=["sigma=0", "sweep-first-row", "sweep-third-row"],
)
def test_bad_packet_is_usage_error(flags, tmp_path, capsys):
    # every row's packet is built before the CSV is opened: no partial file
    out = tmp_path / "energy.csv"
    rc = main(["energy", "--im-z", "0.2", *flags, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestEnergyCommand:
    def test_sweep_sigma_u_peak(self, tmp_path):
        out = tmp_path / "energy.csv"
        rc = main([
            "energy", "--im-z", "0.2", "--k", "0", "--a", "1",
            "--sweep", "sigma=0.2:5:25", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        sig = np.array([float(r["sigma"]) for r in rows])
        nl = np.array([float(r["nonlocal"]) for r in rows])
        peak_sigma = sig[np.argmax(nl)]
        assert 1.2 <= peak_sigma <= 1.8
        # oracle column agrees with the closed form
        assert all(float(r["abs_diff"]) < 1e-8 for r in rows)

    def test_readme_energy_csv_digest(self, tmp_path):
        out = tmp_path / "energy.csv"
        rc = main(["energy", "--im-z", "0.2", "--re-z", "0.1", "--sweep", "sigma=0.2:5:241",
                   "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == README_ENERGY_SHA256

    def test_sweep_x0_symmetric(self, tmp_path):
        out = tmp_path / "energy.csv"
        rc = main([
            "energy", "--im-z", "0.2", "--sweep=x0=-3:3:13", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        nl = np.array([float(r["nonlocal"]) for r in rows])
        assert np.allclose(nl, nl[::-1], atol=1e-10)

    def test_zero_imaginary_no_nonlocal(self, tmp_path):
        out = tmp_path / "energy.csv"
        rc = main(["energy", "--im-z", "0", "--re-z", "0.4", "--out", str(out)])
        assert rc == 0
        assert all(float(r["nonlocal"]) == 0 for r in read_csv(out))

    def test_unsupported_class_exit_3(self, tmp_path):
        out = tmp_path / "energy.csv"
        rc = main([
            "energy", "--im-z", "0.2", "--im-z-minus", "0.2", "--out", str(out),
        ])
        assert rc == 3

    def test_dimensionful_column(self, tmp_path):
        out = tmp_path / "energy.csv"
        rc = main([
            "energy", "--im-z", "0.2", "--mass", "2.0", "--hbar", "1.0",
            "--ell", "0.5", "--out", str(out),
        ])
        assert rc == 0
        row = read_csv(out)[0]
        scale = 1.0 / (2 * 2.0 * 0.25)
        assert abs(float(row["total_physical"]) - float(row["total"]) * scale) < 1e-10


class TestKernelCommand:
    def test_eta1_dump(self, tmp_path):
        out = tmp_path / "kern.csv"
        rc = main([
            "kernel", "--which", "eta1", "--im-z", "0.1", "--grid=-2:2:9",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 81
        terms = json.load(open(str(out) + ".terms.json"))
        assert complex(*terms["identity_coefficient"]) == 1.0
        assert len(terms["terms"]) == 2
        # round-trip through the serialized records
        kern = DistributionalKernel.from_records(terms)
        from ddscatter import eta1_bounded, Couplings

        assert kern == eta1_bounded(Couplings(0.1j, -0.1j, 1.0))

    def test_appendixA_dump(self, tmp_path):
        out = tmp_path / "kern.csv"
        rc = main([
            "kernel", "--which", "appendixA", "--r-plus", "1", "--r-minus", "0.8",
            "--gamma", "1.1", "--grid=-1:1:5", "--out", str(out),
        ])
        assert rc == 0
        vals = read_csv(out)
        assert any(r["re"] not in ("0", "nan") for r in vals)

    @pytest.mark.parametrize("which", sorted(README_KERNEL_DUMPS))
    def test_readme_dump_digest(self, tmp_path, which):
        flags, csv_sha256, terms_sha256 = README_KERNEL_DUMPS[which]
        out = tmp_path / "kern.csv"
        assert main(["kernel", *flags, "--grid=-3:3:121", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        terms = Path(str(out) + ".terms.json").read_bytes()
        assert hashlib.sha256(terms).hexdigest() == terms_sha256

    def test_singular_points_nan(self, tmp_path):
        out = tmp_path / "kern.csv"
        main(["kernel", "--which", "eta1", "--im-z", "0.1", "--grid=-1:1:3",
              "--out", str(out)])
        diag = [r for r in read_csv(out) if r["x"] == r["y"]]
        assert all(r["re"] == "nan" for r in diag)


class TestInmCommand:
    def test_prints_cross_check(self, capsys):
        rc = main(["inm", "--n", "1", "--m", "3", "--alpha", "2.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "difference" in out
        line = [ln for ln in out.splitlines() if "difference" in ln][0]
        assert float(line.split(":")[1]) < 1e-10


class TestVerifyCommand:
    def test_perturbation_instance_roundtrip(self, tmp_path):
        from ddscatter.perturbation import matrix_from_json, matrix_to_json

        rng = np.random.default_rng(3)
        n = 4
        H0 = np.diag(np.arange(n) + 0.1)
        A = rng.normal(size=(n, n))
        S = (A + A.T) / 2
        np.fill_diagonal(S, 0)
        B = rng.normal(size=(n, n))
        T = 1j * (B - B.T) / 2
        payload = {
            "h0": matrix_to_json(H0),
            "generators": [matrix_to_json(S), matrix_to_json(T)],
            "couplings": [[0.01, 0.0], [0.0, 0.01]],
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(payload))
        rc = main(["verify", "--perturbation", str(path)])
        assert rc == 0
        result = json.load(open(str(path) + ".out.json"))
        q1 = matrix_from_json(result["q1"])
        assert np.linalg.norm(q1 - q1.conj().T) < 1e-12
        assert result["pseudo_hermiticity_residual"] < 1e-4

    def test_readme_perturbation_output_digest(self, tmp_path):
        # the README's two-level instance, written as the README writes it
        path = tmp_path / "instance.json"
        path.write_text(
            '{"h0": [[0.0, 0.0], [0.0, 1.0]],\n'
            '       "generators": [[[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]],\n'
            '       "couplings": [[0.0, 0.01]]}\n'
        )
        assert main(["verify", "--perturbation", str(path)]) == 0
        out = Path(str(path) + ".out.json")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == README_PERTURBATION_SHA256

    def test_perturbation_output_is_compact_json_of_result(self, tmp_path):
        from ddscatter.perturbation import matrix_to_json, run_instance

        rng = np.random.default_rng(4)
        n = 5
        A = rng.normal(size=(n, n))
        S = (A + A.T) / 2
        np.fill_diagonal(S, 0)
        payload = {
            "h0": matrix_to_json(np.diag(np.arange(n) + 0.2)),
            "generators": [matrix_to_json(S)],
            "couplings": [[0.0, 0.01]],
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--perturbation", str(path)]) == 0
        text = open(str(path) + ".out.json").read()
        assert "\n" not in text
        assert json.loads(text) == json.loads(json.dumps(run_instance(payload)))

    @pytest.mark.parametrize(
        "defect",
        ["nan", "ragged", "no-generators", "empty-generators", "short-coupling", "bigint",
         "list", "not-json"],
    )
    def test_bad_perturbation_input_is_usage_error(self, tmp_path, capsys, defect):
        h0 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        if defect == "nan":
            h0[0][0][0] = float("nan")
        elif defect == "ragged":
            h0[1] = [[0.0, 0.0]]
        gen = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        payload = {"h0": h0, "generators": [gen], "couplings": [[0.0, 0.01]]}
        if defect == "no-generators":
            del payload["generators"]
        elif defect == "empty-generators":
            payload["generators"], payload["couplings"] = [], []
        elif defect == "bigint":
            payload["couplings"] = [[10**400, 0]]  # no float holds it
        elif defect == "short-coupling":
            payload["couplings"] = [[0.1]]
        elif defect == "list":
            payload = [payload]
        text = json.dumps(payload)
        if defect == "not-json":
            text = text[:-1]
        path = tmp_path / "instance.json"
        path.write_text(text)
        assert main(["verify", "--perturbation", str(path)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--json", "R"], ["--level", "full"], ["--level", "fast"]],
        ids=["json", "level-full", "level-fast"],
    )
    def test_perturbation_with_suite_flags_is_usage_error(self, tmp_path, capsys, extra):
        # --perturbation runs no suite: a report path or a level it would
        # ignore is refused before the (valid) instance is solved
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "h0": [[0.0, 0.0], [0.0, 1.0]],
            "generators": [[[0.0, 1.0], [1.0, 0.0]]],
            "couplings": [[0.0, 0.01]],
        }))
        assert main(["verify", "--perturbation", str(path)]) == 0
        (tmp_path / "instance.json.out.json").unlink()
        extra = [str(tmp_path / v) if v == "R" else v for v in extra]
        assert main(["verify", "--perturbation", str(path), *extra]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "R").exists()
        assert not (tmp_path / "instance.json.out.json").exists()

    def test_fast_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--level", "fast", "--json", str(report_path)])
        assert rc == 0
        report = json.load(open(report_path))
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_mutation_caught(self, monkeypatch, capsys):
        # inject a sign error into the bounded-metric kernel coefficient
        # and require the metric suite to fail by name
        real = metric_mod.eta1_bounded

        def mutated(c):
            kern = real(c)
            flipped = tuple(
                KernelTerm(-t.coefficient, t.factors) for t in kern.terms
            )
            return DistributionalKernel(
                identity_coefficient=kern.identity_coefficient,
                terms=flipped,
            )

        monkeypatch.setattr(metric_mod, "eta1_bounded", mutated)
        # the metric suite alone: test_fast_passes and tests/test_verify.py
        # already run every fast check unmutated
        metric_checks = {
            name: entry for name, entry in verify_mod.CHECKS.items()
            if name.startswith("metric.")
        }
        monkeypatch.setattr(verify_mod, "CHECKS", metric_checks)
        ok, report = verify_mod.run_verify("fast")
        assert not ok
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"metric.eta1_spot_values"}
