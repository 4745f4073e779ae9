import json

import numpy as np
import pytest

import dfsdca.cli as cli
import dfsdca.diagnostics as diagnostics
from dfsdca.cli import TRACE_COLUMNS, main
from dfsdca.dataset import gen_synthetic
from dfsdca.losses import quadratic_family

from csr_rows import from_rows

RIDGE = "1 1:1\n3 1:1\n"


@pytest.fixture
def ridge_file(tmp_path):
    path = tmp_path / "ridge.libsvm"
    path.write_text(RIDGE)
    return str(path)


def read_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestRun:
    def test_ridge_reaches_closed_form(self, ridge_file, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "trace.csv"
        assert main([
            "reference", "--data", ridge_file, "--loss", "squared",
            "--lambda", "1", "--out", str(ref),
        ]) == 0
        payload = json.loads(ref.read_text())
        assert abs(payload["w"][0] - 1.0) <= 1e-10
        assert main([
            "run", "--data", ridge_file, "--loss", "squared", "--lambda", "1",
            "--sampling", "serial-uniform", "--theta", "auto-convex",
            "--epochs", "200", "--seed", "0",
            "--reference", str(ref), "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert ",".join(header) == TRACE_COLUMNS
        assert float(rows[-1]["subopt"]) <= 1e-6

    def test_lambda_token_resolved(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--synthetic", "100,8,0.4,linear-sign", "--lambda", "1/n",
            "--epochs", "1", "--out", str(out),
        ]) == 0
        meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("lambda=0.01" in l for l in meta)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--synthetic", "60,10,0.5,linear-sign", "--lambda", "0.1",
            "--sampling", "nice:4", "--epochs", "3", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_fanout_aggregates(self, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "agg.csv"
        base = ["--synthetic", "40,8,0.5,linear-sign", "--lambda", "0.2"]
        assert main(["reference"] + base + ["--out", str(ref)]) == 0
        assert main([
            "run", *base, "--sampling", "serial-uniform", "--epochs", "2",
            "--seeds", "4", "--reference", str(ref), "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert "E_mean" in header and "E_stderr" in header
        assert float(rows[-1]["E_mean"]) < float(rows[0]["E_mean"])

    def test_envelope_columns_present(self, ridge_file, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "t.csv"
        main(["reference", "--data", ridge_file, "--loss", "squared",
              "--lambda", "1", "--out", str(ref)])
        main(["run", "--data", ridge_file, "--loss", "squared", "--lambda", "1",
              "--epochs", "10", "--reference", str(ref), "--out", str(out)])
        _, rows = read_rows(out)
        e0 = float(rows[0]["E"])
        theta = float(rows[0]["theta"])
        for row in rows:
            expected = e0 * np.exp(-theta * int(row["t"]))
            assert float(row["envelope_E"]) == pytest.approx(expected, rel=1e-12)

    def test_exit_codes(self, tmp_path, ridge_file, capsys):
        # usage: unknown sampling descriptor / missing source / bad loss combo
        assert main(["run", "--synthetic", "10,3,1,linear-sign",
                     "--sampling", "bogus"]) == 1
        assert main(["run"]) == 1
        assert main(["run", "--synthetic", "10,3,1,linear-sign",
                     "--loss", "quadfam"]) == 1
        # data: missing and malformed files
        assert main(["run", "--data", str(tmp_path / "nope")]) == 2
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 3:1 2:1\n")
        assert main(["run", "--data", str(bad)]) == 2
        # validation: explicit theta above min p_i
        assert main(["run", "--data", ridge_file, "--loss", "squared",
                     "--lambda", "1", "--theta", "0.9"]) == 3
        # success: a label-only row parses, so it must also run (v_i = 0)
        empty_row = tmp_path / "empty_row.libsvm"
        empty_row.write_text("+1 1:1 2:0.5\n-1\n+1 2:2\n-1 1:-1.5\n")
        for extra in (["--sampling", "serial-uniform"], ["--sampling", "nice:2"],
                      ["--sampling", "chunked:1"], ["--theta", "auto-nonconvex"]):
            assert main(["run", "--data", str(empty_row), "--epochs", "2",
                         *extra, "--out", str(tmp_path / "e.csv")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--seeds", "--epochs"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, flag, value, capsys):
        code = main(["run", "--synthetic", "20,4,0.5,linear-sign", flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_default_header_reads_one_seed(self, capsys):
        assert main(["run", "--synthetic", "20,4,0.5,linear-sign",
                     "--epochs", "1"]) == 0
        assert "# seed=0 seeds=1 epochs=1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("descriptor", [
        "nice:abc", "nice:", "nice", "chunked:x", "serial-random:x",
    ])
    def test_malformed_sampling_is_usage_error(self, descriptor, capsys):
        code = main(["run", "--synthetic", "20,4,0.5,linear-sign",
                     "--sampling", descriptor])
        assert code == 1
        err = capsys.readouterr().err
        assert "--sampling" in err and repr(descriptor) in err

    @pytest.mark.parametrize("descriptor,name", [
        ("nice:0", "tau"), ("chunked:0", "tau"), ("serial-random:1", "c"),
        ("serial-random:nan", "c"), ("serial-random:inf", "c"),
    ])
    def test_sampling_out_of_range_exits_3(self, descriptor, name, capsys):
        code = main(["run", "--synthetic", "20,4,0.5,linear-sign",
                     "--sampling", descriptor])
        assert code == 3
        assert name in capsys.readouterr().err

    def test_label_only_rows_keep_D_finite(self, tmp_path):
        data = tmp_path / "label_only.libsvm"
        data.write_text("+1 1:1\n-1\n+1 2:0.5\n")
        ref, out = tmp_path / "ref.json", tmp_path / "t.csv"
        assert main(["reference", "--data", str(data), "--out", str(ref)]) == 0
        assert main(["run", "--data", str(data), "--epochs", "3",
                     "--reference", str(ref), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0]["D"]) > 0.0
        for row in rows:
            assert np.isfinite(float(row["D"]))
            assert np.isfinite(float(row["envelope_D"]))

    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_index_beyond_int32_exits_3(self, command, tmp_path, capsys):
        # rejected before any d-sized array exists, up to the largest index
        # the parser takes
        for d in (3_000_000_000, 2**63 - 1):
            data = tmp_path / "wide.libsvm"
            data.write_text(f"+1 {d}:1\n-1 2:0.5\n")
            assert main([command, "--data", str(data)]) == 3
            err = capsys.readouterr().err
            assert f"d={d}" in err and "2147483647" in err

    @pytest.mark.parametrize("index", [2**63, 10**20])
    def test_index_beyond_int64_exits_2(self, index, tmp_path, capsys):
        data = tmp_path / "wider.libsvm"
        data.write_text(f"-1 2:0.5\n+1 {index}:1\n")
        assert main(["run", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"line 2: index {index} exceeds 2**63 - 1" in err

    def test_non_utf8_byte_exits_2(self, tmp_path, capsys):
        data = tmp_path / "latin1.libsvm"
        data.write_bytes(b"+1 1:0.5\n-1 2:\xff\n")
        assert main(["run", "--data", str(data)]) == 2
        assert "data error: line 2: non-ASCII byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("text, flags, message", [
        ("+1 1:nan\n-1 2:1\n", [], "row 0 (0-based): norm nan is not finite"),
        ("+1 1:1\nnan 2:1\n", ["--loss", "squared"],
         "row 1 (0-based): label nan is not finite"),
        ("+1 1:1e200\n-1 2:1\n", [], "row 0 (0-based): norm inf is not finite"),
        ("+1 1:1e200\n-1 2:1\n", ["--normalize"], "row 0 (0-based): norm inf"),
        ("+1 1:1\n-1 2:-inf\n", ["--normalize"], "row 1 (0-based): norm inf"),
    ], ids=["nan-value", "nan-label", "overflow", "overflow-normalize", "inf-value"])
    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_non_finite_data_exits_2(self, command, text, flags, message, tmp_path,
                                     capsys):
        # warnings are errors here, so an overflow RuntimeWarning fails too
        data = tmp_path / "bad.libsvm"
        data.write_text(text)
        code = main([command, "--data", str(data), *flags, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {message}" in err and "Traceback" not in err

    def test_vanishing_stepsize_names_its_example(self, tmp_path, capsys):
        # finite data, but v_1 = 1e308 against lambda = 1e-20 underflows theta
        data = tmp_path / "huge.libsvm"
        data.write_text("+1 1:1\n-1 2:1e154\n")
        assert main(["run", "--data", str(data), "--lambda", "1e-20",
                     "--out", str(tmp_path / "trace.csv")]) == 3
        err = capsys.readouterr().err
        assert ("auto-convex stepsize 0.0 is not finite and positive: it is set by "
                "example 1, with p_1=0.5, v_1=1") in err
        assert "l_1=0.25 (lambda=1e-20, n=2)" in err

    @pytest.mark.parametrize("sampling, code", [("nice:2", 0), ("chunked:2", 3)])
    def test_near_overflow_norm_reports_only_the_stepsize(self, sampling, code,
                                                          tmp_path, capsys):
        # ||A_2||^2 = 1e308: tau-nice's cap keeps v_2 finite, the chunked
        # cardinality bound 2e308 is inf; neither leaks an overflow warning
        data = tmp_path / "huge.libsvm"
        data.write_text("+1 1:1\n-1 2:1e154\n")
        assert main(["run", "--data", str(data), "--sampling", sampling,
                     "--out", str(tmp_path / "trace.csv")]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.splitlines() == [
                "dfsdca: auto-convex stepsize 0.0 is not finite and positive: it is "
                "set by example 1, with p_1=1.0, v_1=inf, l_1=0.25 (lambda=0.5, n=2)"
            ]

    def test_divergent_instance_exits_3(self, tmp_path, capsys):
        assert main([
            "run", "--synthetic", "20,4,0.5,linear-sign", "--loss", "logistic",
            "--lambda", "1e-9", "--theta", "0.05", "--epochs", "2000",
        ]) == 3
        assert "at iteration 20:" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["auto-convex", "1", "1.0000000000001"])
    def test_unit_theta_envelope(self, tmp_path, theta):
        # one label-only row: v_1 = 0 and p_1 = 1, so auto-convex gives
        # theta = 1; the guard's rounding slack admits a little more
        data, ref, out = (tmp_path / f for f in ("one.libsvm", "ref.json", "t.csv"))
        data.write_text("+1\n")
        assert main(["reference", "--data", str(data), "--out", str(ref)]) == 0
        assert main(["run", "--data", str(data), "--theta", theta, "--epochs", "3",
                     "--reference", str(ref), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        e0 = float(rows[0]["E"])
        assert e0 > 0.0
        expect = 1.0 if theta == "auto-convex" else float(theta)
        for row in rows:
            assert float(row["theta"]) == expect
            assert float(row["envelope_E"]) == pytest.approx(
                e0 * np.exp(-expect * int(row["t"])), rel=1e-15)

    @pytest.mark.parametrize("descriptor", [
        "serial-importance", "serial-random:3", "nice:5", "chunked:2",
    ])
    def test_every_sampling_descriptor_runs(self, tmp_path, descriptor):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--synthetic", "30,8,0.5,linear-sign", "--lambda", "0.2",
            "--sampling", descriptor, "--epochs", "2", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        assert float(rows[-1]["primal"]) < float(rows[0]["primal"])

    def test_header_v_is_the_scheme_eso(self, tmp_path):
        def v_range(sampling):
            out = tmp_path / "t.csv"
            assert main([
                "run", "--synthetic", "60,10,0.3,linear-sign", "--seed", "0",
                "--sampling", sampling, "--epochs", "1", "--out", str(out),
            ]) == 0
            line = next(l for l in out.read_text().splitlines() if " v_max=" in l)
            fields = dict(tok.split("=") for tok in line[1:].split())
            return float(fields["v_min"]), float(fields["v_max"])

        # the tau-nice bound lies below the cardinality bound tau ||A_i||^2
        # and is the serial ||A_i||^2 at tau = 1
        norms = gen_synthetic(60, 10, 0.3, "linear-sign", 0).norms
        assert v_range("nice:6")[1] < 6 * float(np.max(norms**2))
        assert v_range("nice:1") == v_range("serial-uniform")

    def test_nonconvex_synthetic_model(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--synthetic", "40,8,0.5,nonconvex", "--loss", "quadfam",
            "--lambda", "1", "--theta", "auto-nonconvex", "--epochs", "5",
            "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        assert float(rows[-1]["primal"]) < float(rows[0]["primal"])


class TestChunkStats:
    def test_uniform_nnz_all_zero(self, tmp_path, capsys):
        data = tmp_path / "uniform.libsvm"
        data.write_text("".join(f"1 1:1 2:{i + 2}\n" for i in range(12)))
        out = tmp_path / "cs.csv"
        assert main([
            "chunk-stats", "--data", str(data), "--tau", "3",
            "--draws", "50", "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        assert header == ["row", "standard", "chunked"]
        assert all(float(r["standard"]) == 0.0 for r in rows)
        assert all(float(r["chunked"]) == 0.0 for r in rows)

    def test_skewed_improvement_and_side_file(self, tmp_path):
        out = tmp_path / "cs.csv"
        assert main([
            "chunk-stats", "--synthetic", "500,100,0.05,skewed-nnz",
            "--tau", "8", "--draws", "2000", "--seed", "3", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        mean_row = [r for r in rows if r["row"] == "mean"][0]
        assert float(mean_row["chunked"]) < float(mean_row["standard"])
        side = json.loads((tmp_path / "cs.csv.chunks.json").read_text())
        assert side["k"] >= 8
        assert sum(side["g"]) == 500

    def test_index_beyond_int32_still_runs(self, tmp_path):
        # chunk-stats builds no problem, so a wide file is fine here
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 3000000000:1\n-1 2:0.5\n")
        out = tmp_path / "cs.csv"
        assert main(["chunk-stats", "--data", str(data), "--tau", "1",
                     "--draws", "5", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 6

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_draws_below_one_is_usage_error(self, draws, capsys):
        code = main(["chunk-stats", "--synthetic", "50,10,0.3,skewed-nnz",
                     "--tau", "2", "--draws", draws])
        assert code == 1
        captured = capsys.readouterr()
        assert "--draws" in captured.err and captured.out == ""

    def test_tau_exceeding_chunks_exits_3(self, tmp_path, capsys):
        data = tmp_path / "two.libsvm"
        data.write_text("1 1:1\n1 1:1\n")
        code = main(["chunk-stats", "--data", str(data), "--tau", "5"])
        assert code == 3
        assert "k=2" in capsys.readouterr().err


class TestValidate:
    def test_full_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert len(report["suites"]) >= 6
        names = {s["name"] for s in report["suites"]}
        assert {"eso", "lemma1", "lemma2", "contraction",
                "gradcheck", "fixedpoint"} <= names

    def test_injected_bad_theta_surfaces_guard(self, capsys):
        code = main(["validate", "--suite", "lemma1", "--theta", "0.9"])
        assert code == 3
        assert "exceeds p" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["validate", "--suite", "nope"]) == 1
        capsys.readouterr()


class TestReference:
    def test_rerun_identical(self, ridge_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["reference", "--data", ridge_file, "--loss", "squared",
                "--lambda", "1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unreachable_tol_exits_3(self, capsys):
        # the gradient norm stalls near 4e-17 here, far above the target
        code = main([
            "reference", "--synthetic", "50,10,0.8,linear-sign",
            "--lambda", "0.5", "--tol", "1e-30",
        ])
        assert code == 3
        assert "grad" in capsys.readouterr().err

    def test_nonconvex_objective_exits_3(self, monkeypatch, capsys):
        # one example of curvature -1 > lam = 0.5: P has no minimum
        ds = from_rows([([0], [1.0])], [0.0], 1)
        monkeypatch.setattr(cli, "build_nonconvex_instance",
                            lambda n, d, seed: (ds, quadratic_family([-1.0], [1.0])))
        code = main(["reference", "--synthetic", "1,1,1,nonconvex",
                     "--loss", "quadfam", "--lambda", "0.5"])
        assert code == 3
        assert "Newton iteration 1: p^T H p" in capsys.readouterr().err

    def test_cg_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(diagnostics, "_CG_PER_DIM", 0)
        monkeypatch.setattr(diagnostics, "_CG_EXTRA", 1)
        code = main(["reference", "--synthetic", "50,10,0.8,linear-sign",
                     "--lambda", "0.5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Newton iteration 1: CG hit its cap of 1 iterations" in err
        assert "residual" in err

    @pytest.mark.parametrize("command,flag,value,name", [
        ("run", "--lambda", "nan", "lam"), ("run", "--lambda", "inf", "lam"),
        ("reference", "--lambda", "nan", "lam"),
        ("reference", "--lambda", "inf", "lam"),
        ("reference", "--tol", "nan", "tol"), ("reference", "--tol", "-1", "tol"),
    ])
    def test_invalid_parameter_exits_3(self, command, flag, value, name, capsys):
        assert main([command, "--synthetic", "10,4,0.8,linear-sign",
                     flag, value]) == 3
        assert name in capsys.readouterr().err

    def test_reference_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        main(["reference", "--synthetic", "10,4,0.8,linear-sign",
              "--lambda", "0.5", "--out", str(ref)])
        code = main([
            "run", "--synthetic", "12,4,0.8,linear-sign", "--lambda", "0.5",
            "--reference", str(ref),
        ])
        assert code == 2
        capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["run", "--synthetic", "20,4,0.5,linear-sign"],
    ["reference", "--synthetic", "20,4,0.5,linear-sign"],
    ["chunk-stats", "--synthetic", "20,4,0.5,skewed-nnz", "--tau", "2"],
    ["validate"],
], ids=lambda command: command[0])
def test_negative_seed_is_usage_error(command, capsys):
    assert main([*command, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "argument --seed: must be at least 0, got -1" in captured.err
    assert captured.out == ""


class TestHelp:
    def test_run_help_documents_columns(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "t,epoch,primal" in capsys.readouterr().out
