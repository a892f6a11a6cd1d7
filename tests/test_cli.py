import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pfkern.cli import main


def test_usage_error_exit_code(capsys):
    assert main(["kernel", "--family", "charlier"]) == 1


def test_unknown_argument_exits_one(capsys, tmp_path):
    # a complete kernel argv, so parsing reaches the unknown argument
    code = main(["kernel", "--family", "charlier", "--theta", "1", "--beta", "4",
                 "--N", "4", "--out", str(tmp_path), "--bogus"])
    assert code == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_kernel_command_shape_and_metadata(tmp_path):
    code = main(["kernel", "--family", "charlier", "--theta", "1", "--beta", "4",
                 "--N", "4", "--window", "0:16", "--out", str(tmp_path)])
    assert code in (0, 3)
    csv = tmp_path / "kernel_charlier_b4_N4.csv"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,y,S,SD,epsS"
    assert len(lines) == 1 + 17 * 17
    meta = json.loads((tmp_path / "kernel_charlier_b4_N4.json").read_text())
    assert meta["metadata"]["provenance"] == "contour"
    assert meta["metadata"]["beta"] == 4
    assert "composition_adjudication" in meta


def test_kernel_oracle_provenance(tmp_path):
    main(["kernel", "--family", "charlier", "--theta", "1", "--beta", "1",
          "--N", "4", "--window", "0:10", "--oracle", "--out", str(tmp_path)])
    meta = json.loads((tmp_path / "kernel_charlier_b1_N4.json").read_text())
    assert meta["metadata"]["provenance"] == "oracle"


@pytest.mark.parametrize("beta, oracle", [(4, False), (1, False), (4, True), (1, True)],
                         ids=["contour-b4", "contour-b1", "oracle-b4", "oracle-b1"])
def test_kernel_metadata_names_the_contour_checks(tmp_path, beta, oracle):
    # the contour route records its composition outcome (beta = 4) or its
    # rank-one degrees (beta = 1); the oracle route records neither
    from pfkern.families import Charlier
    from pfkern.kernels import adjudicate_composition
    main(["kernel", "--family", "charlier", "--theta", "1", "--beta", str(beta), "--N", "4",
          "--window", "0:10", *(["--oracle"] if oracle else []), "--out", str(tmp_path)])
    meta = json.loads((tmp_path / f"kernel_charlier_b{beta}_N4.json").read_text())["metadata"]
    extra = {} if oracle else (
        {"adjudication": adjudicate_composition(Charlier(theta=1.0))["outcome"]} if beta == 4
        else {"rank_one_indices": [4, 3]})
    assert {k: meta[k] for k in ("adjudication", "rank_one_indices") if k in meta} == extra


def test_kernel_dump_ops_on_the_block_lattice(tmp_path):
    from pfkern.families import Charlier
    from pfkern.kernels import oracle_lattice
    from pfkern.lattice_ops import build_d, build_epsilon_direct
    main(["kernel", "--family", "charlier", "--theta", "1", "--beta", "4", "--N", "4",
          "--window", "0:16", "--oracle", "--dump-ops", "--out", str(tmp_path)])
    fam = Charlier(theta=1.0)
    lat = oracle_lattice(fam, 4, np.arange(17))
    for suffix, ref in (("d", build_d(fam, lat)), ("eps", build_epsilon_direct(fam, lat))):
        rows = np.loadtxt(tmp_path / f"kernel_charlier_b4_N4_{suffix}.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        got = np.zeros((lat.size, lat.size))
        got[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
        assert np.array_equal(got, ref.mat)
        if suffix == "d":
            assert rows[:, :2].max() == lat.x_max    # D reaches the last site


def test_kernel_rerun_byte_identical(tmp_path):
    args = ["kernel", "--family", "krawtchouk", "--M", "30", "--p", "0.4",
            "--beta", "1", "--N", "4", "--window", "0:12", "--out", str(tmp_path)]
    main(args)
    first = (tmp_path / "kernel_krawtchouk_b1_N4.csv").read_bytes()
    main(args)
    assert (tmp_path / "kernel_krawtchouk_b1_N4.csv").read_bytes() == first


def test_density_csv(tmp_path):
    code = main(["asym", "density", "--family", "meixner", "--xi", "0.25",
                 "--grid", "40", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "density_meixner.csv").read_text().strip().splitlines()
    assert rows[0] == "u,cos_theta,rho,delta,rho_site"
    us = np.array([float(r.split(",")[0]) for r in rows[1:]])
    assert us[0] > 1 / 3 and us[-1] < 3.0
    rho, delta = np.array([[float(v) for v in r.split(",")[2:4]] for r in rows[1:]]).T
    assert np.max(np.abs(2 * np.pi * delta * rho - 1.0)) <= 1e-15


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=charlier\ntheta=1\nbeta=4\nN=4\nwindow=0:8\n"
                   f"out={tmp_path}\n")
    code = main(["--config", str(cfg), "kernel", "--family", "charlier",
                 "--theta", "1", "--beta", "4", "--N", "4", "--window", "0:8",
                 "--out", str(tmp_path)])
    assert code in (0, 3)
    meta = json.loads((tmp_path / "kernel_charlier_b4_N4.json").read_text())
    assert meta["config"]["window"] == "0:8"


def test_config_values_take_the_declared_type(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi=0.25\n")
    code = main(["--config", str(cfg), "kernel", "--family", "meixner", "--beta", "4",
                 "--N", "2", "--window", "0:4", "--out", str(tmp_path)])
    assert code in (0, 3)
    meta = json.loads((tmp_path / "kernel_meixner_b4_N2.json").read_text())
    assert meta["config"]["xi"] == 0.25
    cfg.write_text("xi=abc\n")
    code = main(["--config", str(cfg), "kernel", "--family", "meixner", "--beta", "4",
                 "--N", "2", "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "argument --xi: invalid float value: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_config_keys_the_command_lacks_are_refused(tmp_path, capsys):
    # keys are the command's option names: asym has no --beta-m and no --bogus
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# asym bulk\nbeta-m = 2\n\nbogus = 7\n")
    code = main(["--config", str(cfg), "asym", "bulk", "--family", "meixner", "--xi", "0.25",
                 "--u", "1", "--A-list", "32,64", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --beta-m=2 --bogus=7" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_config_flags_and_command_line_precedence(tmp_path):
    # `true` sets a flag; the command line wins over the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"oracle = true\ndump-ops = false\nN = 6\nwindow = 0:3\nout = {tmp_path}\n")
    code = main(["--config", str(cfg), "kernel", "--family", "charlier", "--theta", "1",
                 "--beta", "4", "--N", "4"])
    assert code in (0, 3)
    config = json.loads((tmp_path / "kernel_charlier_b4_N4.json").read_text())["config"]
    assert (config["oracle"], config["dump_ops"], config["N"]) == (True, False, 4)
    assert config["window"] == "0:3"
    assert not list(tmp_path.glob("*_d.csv"))


def _outputs(folder):
    return {str(p.relative_to(folder)): p.read_bytes() for p in sorted(folder.rglob("*"))
            if p.is_file() and p.suffix != ".cfg"}


def test_consecutive_calls_match_fresh_processes(tmp_path, capsys):
    # one parser serves every main call of a process: a sequence of calls,
    # one of them with --config and one a usage error, gives the exit codes,
    # printed lines and files that the same argvs give in fresh processes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"window = 0:6\nout = {tmp_path / 'k'}\n")
    density = ["asym", "density", "--family", "charlier", "--tau", "1", "--grid", "5",
               "--out", str(tmp_path / "d")]
    argvs = [density,
             ["--config", str(cfg), "kernel", "--family", "charlier", "--theta", "1",
              "--beta", "4", "--N", "4"],
             ["kernel", "--family", "charlier"],
             density[:-1] + [str(tmp_path / "d2")]]
    seen = []
    for argv in argvs:
        code = main(argv)
        seen.append((code, *capsys.readouterr(), _outputs(tmp_path)))
    for path in tmp_path.rglob("*"):
        if path.is_file() and path.suffix != ".cfg":
            path.unlink()
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "pfkern.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr, _outputs(tmp_path)))
    assert [s[0] for s in seen] == [0, 3, 1, 0]
    assert seen == fresh


def test_json_report_identical_across_processes(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    docs = []
    for _ in range(2):
        subprocess.run([sys.executable, "-m", "pfkern.cli", "splice", "reality",
                        "--family", "charlier", "--theta", "1", "--out", str(tmp_path)],
                       env=env, check=True, capture_output=True, timeout=120)
        docs.append((tmp_path / "reality.json").read_bytes())
    assert docs[0] == docs[1]
    config = json.loads(docs[0])["config"]
    assert "fn" not in config and config["command"] == "splice reality"


def test_asym_bulk_block_k(tmp_path):
    code = main(["asym", "bulk", "--family", "charlier", "--tau", "1", "--beta", "1",
                 "--u", "2.0", "--block", "K", "--A-list", "24,48", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "bulk_charlier_b1.json").read_text())
    assert rep["block"] == "K"
    assert all(abs(e["c_fit"] - 1) < 0.1 for e in rep["entries"])


def test_asym_crossover_refuses_sd(tmp_path, capsys):
    code = main(["asym", "crossover", "--family", "meixner", "--block", "SD",
                 "--N-list", "12", "--out", str(tmp_path)])
    assert code == 1
    assert "SD" in capsys.readouterr().err
    assert not (tmp_path / "crossover.json").exists()


def test_splice_reality(tmp_path):
    code = main(["splice", "reality", "--family", "charlier", "--theta", "1",
                 "--sigma", "1.0", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "reality.json").read_text())
    assert rep["max_imag_unit_circle"] < 1e-10


def test_validate_wrong_nesting_names_loser(tmp_path):
    code = main(["validate", "--family", "charlier", "--theta", "1",
                 "--wrong-nesting", "--out", str(tmp_path)])
    assert code == 3
    rep = json.loads((tmp_path / "validate.json").read_text())
    bad = [i for i in rep["invariants"] if "injected wrong nesting" in i["name"]]
    assert bad and not bad[0]["passes"]
    nest = [f for f in rep["findings"] if f["type"] == "nesting"][0]
    losers = {k: v for k, v in nest["candidates"].items() if k != nest["winner"]}
    assert min(losers.values()) > 1e-3


def test_kernel_contour_route_refuses_inaccurate_rows(tmp_path, capsys):
    # at xi = 0.99, N = 40 the lattice outgrows the extraction circle's node
    # count, the rows alias and K(x, x) leaves [0, 1]: a numerical failure
    code = main(["kernel", "--family", "meixner", "--xi", "0.99", "--beta", "4",
                 "--N", "40", "--out", str(tmp_path)])
    assert code == 2
    assert "K(x, x)" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("family", [("--family", "meixner", "--xi", "0.64", "--N", "16"),
                                    ("--family", "charlier", "--theta", "1", "--N", "32")],
                         ids=["meixner-0.64-N16", "charlier-1-N32"])
def test_splice_kernel_refuses_inaccurate_rows(tmp_path, capsys, family):
    # the spliced contour block takes its rows from the same guarded builder as
    # the kernel command: aliased or cancelled rows are a numerical failure
    code = main(["splice", "kernel", *family, "--out", str(tmp_path)])
    assert code == 2
    assert "K(x, x)" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_splice_kernel_has_no_inserted_blocks(tmp_path):
    # a spliced block's eps is a contour multiplier: SD and epsS stay NaN
    code = main(["splice", "kernel", "--family", "charlier", "--theta", "1", "--N", "6",
                 "--out", str(tmp_path)])
    assert code == 0
    cells = np.loadtxt(next(tmp_path.glob("spliced_*.csv")), delimiter=",", skiprows=1)
    assert np.all(np.isfinite(cells[:, 2])) and np.all(np.isnan(cells[:, 3:]))


def test_asym_crossover_beta4_runs(tmp_path):
    # the beta = 4 Gram is G^-1 in closed form, so xi = 1 - 1/(2N) runs; the
    # antisymmetric S block has ~0 amplitude against the symmetric Bessel
    # kernel, which the report records rather than hides
    code = main(["asym", "crossover", "--family", "meixner", "--alpha", "1", "--beta", "4",
                 "--block", "S", "--N-list", "16,32", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "crossover.json").read_text())
    assert [e["N"] for e in rep["entries"]] == [16, 32]
    for e in rep["entries"]:
        assert np.isfinite(e["err_vs_bessel_alpha"]) and np.isfinite(e["err_vs_bessel_index0"])
        assert abs(e["amp_index0"]) < 0.05


def test_asym_crossover_at_a_large_rate(tmp_path, monkeypatch, meixner_rows_mpmath):
    # alpha = 31.9 takes the Bessel kernel to orders near 33 and sqrt(u) near 75.  The
    # values were recorded from the window rows and are kept to 1e-12; the study gives
    # them too on blocks whose rows phi_0..phi_r come from a 60-digit recurrence
    import pfkern.harness as harness
    from pfkern.kernels import beta1_indices
    from pfkern.symbols import eps_phi_via_contour
    want = [[1.8594577750618246, 0.8798629905727238, 1.0030470020996798, 0.864743530260472, 1.2],
            [1.2762534832388577, 1.0278979800237582, 0.6069995874429853, 0.9676259914953699, 1.6]]
    fields = ("err_vs_bessel_alpha", "amp", "err_vs_bessel_index0", "amp_index0", "offset_index0")

    def exact_block(fam, N, xs, beta, block):
        a, b = beta1_indices(fam, N)
        phi = meixner_rows_mpmath(fam.xi, a, xs)
        return phi[:a].T @ phi[:a] + 0.5 * np.outer(phi[a], eps_phi_via_contour(fam, b, xs))

    for route in ("window", "mpmath"):
        if route == "mpmath":
            monkeypatch.setattr(harness, "crossover_block", exact_block)
        out = tmp_path / route
        code = main(["asym", "crossover", "--family", "meixner", "--alpha", "31.9",
                     "--N-list", "16,32", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "crossover.json").read_text())
        got = [[e[k] for k in fields] for e in rep["entries"]]
        scan = [v for _, v in rep["scan"]]
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(scan))
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert rep["alpha_hat"] == pytest.approx(32.7)
        assert min(scan) == pytest.approx(0.5957233429792538, rel=1e-12)


def test_adjudication_overflow_prints_no_warning(tmp_path):
    # the printed Charlier compositions overflow at theta = 768, N = 740:
    # adjudication scores them inf without a numpy warning, and the contour
    # rows then fail as a numerical failure (exit 2)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "pfkern.cli", "kernel", "--family", "charlier",
                           "--theta", "768", "--beta", "4", "--N", "740", "--out", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    assert "numerical failure" in proc.stderr


@pytest.mark.parametrize("argv, missing", [
    (["asym", "density", "--family", "meixner"], "--xi"),
    (["asym", "edge", "--family", "charlier"], "--tau"),
    (["asym", "edge", "--family", "krawtchouk", "--gamma", "0.25"], "--p"),
    (["asym", "bulk", "--family", "krawtchouk", "--p", "0.4", "--u", "0.3"], "--gamma"),
    (["asym", "bulk", "--family", "charlier", "--u", "2"], "--tau"),
    (["asym", "bulk", "--family", "charlier", "--tau", "1"], "--u"),
    (["asym", "correction", "--family", "charlier", "--tau", "1"], "--u"),
    (["asym", "gap", "--family", "charlier", "--tau", "1"], "--u"),
    (["asym", "density", "--family", "meixner", "--s", "0.5"], "--s"),
    (["asym", "edge", "--family", "meixner"], "--xi"),
    (["splice", "kernel", "--family", "charlier"], "--theta"),
    (["validate", "--family", "meixner", "--xi", "0.3", "--beta-m", "2"], "--beta-m"),
    (["asym", "bulk", "--family", "meixner", "--xi", "0.25", "--beta-m", "2", "--u", "1",
      "--A-list", "32,64"], "--beta-m"),
    (["asym", "bulk", "--family", "charlier", "--tau", "1", "--theta", "9", "--u", "2",
      "--A-list", "24,48"], "--theta"),
], ids=["density-xi", "edge-tau", "edge-p", "bulk-gamma", "bulk-tau", "bulk-u",
        "correction-u", "gap-u", "no-s-option", "edge-xi", "splice-kernel-theta",
        "validate-no-beta-m-option", "asym-no-beta-m-option", "asym-no-theta-option"])
def test_asym_missing_parameter_is_a_usage_error(tmp_path, capsys, argv, missing):
    # --out names a new directory, which a refused request must not create
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert missing in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["asym", "density", "--family", "krawtchouk", "--gamma", "1.5", "--p", "0.4"], "gamma"),
    (["asym", "edge", "--family", "charlier", "--tau", "0"], "tau"),
    (["asym", "bulk", "--family", "charlier", "--tau", "1", "--u", "5", "--A-list", "24,48"],
     "bulk support (0, 4)"),
    (["asym", "correction", "--family", "meixner", "--xi", "0.25", "--u", "0.2"],
     "bulk support (0.333333, 3)"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "4"], "bulk support (0, 4)"),
    (["splice", "edge-ratio", "--family", "meixner", "--xi", "0.25"], "charlier only"),
    (["kernel", "--family", "charlier", "--theta", "1", "--beta", "1", "--N", "0"], "--N"),
    (["splice", "kernel", "--family", "charlier", "--theta", "1", "--N", "0"], "--N"),
    (["kernel", "--family", "charlier", "--theta", "1", "--beta", "4", "--N", "4",
      "--window", "5:2"], "--window"),
    (["kernel", "--family", "charlier", "--theta", "1", "--beta", "4", "--N", "4",
      "--window=-3:5"], "--window"),
    (["kernel", "--family", "krawtchouk", "--M", "20", "--p", "0.4", "--beta", "4", "--N", "4",
      "--window", "0:40"], "--window"),
    (["kernel", "--family", "charlier", "--theta", "1", "--beta", "4", "--N", "4",
      "--window", "7"], "--window"),
    (["kernel", "--family", "charlier", "--theta", "1", "--beta", "4", "--N", "4",
      "--window", "a:b"], "--window"),
    (["asym", "crossover", "--family", "meixner", "--N-list", "0,8"], "--N-list"),
    (["asym", "bulk", "--family", "krawtchouk", "--gamma", "0.25", "--p", "0.4", "--u", "0.3",
      "--A-list", "0,32"], "--A-list"),
    (["asym", "bulk", "--family", "meixner", "--xi", "0.25", "--u", "1", "--A-list", "0,32"],
     "--A-list"),
    (["asym", "correction", "--family", "meixner", "--xi", "0.25", "--u", "1",
      "--A-list", "0,32"], "--A-list"),
    (["asym", "bulk", "--family", "charlier", "--tau", "1", "--u", "2", "--A-list", ","],
     "--A-list"),
    (["asym", "edge", "--family", "krawtchouk", "--gamma", "0.5", "--p", "0.5",
      "--A-list", "16,32"], "right edge u*=1"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "2", "--A", "0"], "--A 0"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "2", "--A", "-5"], "--A -5"),
    (["asym", "density", "--family", "meixner", "--xi", "0.25", "--A", "0"], "--A 0"),
    (["splice", "edge-ratio", "--family", "charlier", "--theta", "1", "--A", "0"], "--A 0"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "2", "--lengths", "0,-1"],
     "--lengths 0,-1"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "2", "--lengths", "abc"],
     "--lengths abc"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "2", "--lengths", "1,inf"],
     "--lengths 1,inf"),
    (["asym", "crossover", "--family", "krawtchouk", "--p", "0.4", "--alpha", "1",
      "--N-list", "8", "--block", "K"], "--family meixner only"),
    (["asym", "crossover", "--family", "meixner", "--xi", "0.5", "--N-list", "8",
      "--block", "K"], "--xi"),
    (["asym", "crossover", "--family", "meixner", "--tau", "1", "--N-list", "8"], "--tau"),
    (["asym", "crossover", "--family", "meixner", "--gamma", "0.3", "--N-list", "8"], "--gamma"),
    (["asym", "crossover", "--family", "meixner", "--p", "0.3", "--N-list", "8"], "--p"),
    (["kernel", "--family", "krawtchouk", "--M", "10", "--p", "0.4", "--beta", "1", "--N", "11",
      "--oracle"], "--N 11"),
    (["kernel", "--family", "krawtchouk", "--M", "10", "--p", "0.4", "--beta", "1", "--N", "12"],
     "--N 12"),
    (["splice", "kernel", "--family", "krawtchouk", "--M", "4", "--p", "0.4", "--N", "5"],
     "M=4"),
    (["kernel", "--family", "charlier", "--theta", "inf", "--beta", "4", "--N", "4"], "theta"),
    (["kernel", "--family", "charlier", "--theta", "nan", "--beta", "4", "--N", "4"], "theta"),
    (["asym", "bulk", "--family", "charlier", "--tau", "inf", "--u", "2", "--A-list", "24"],
     "tau"),
    (["asym", "edge", "--family", "charlier", "--tau", "inf", "--A-list", "24"], "tau"),
    (["splice", "edge-ratio", "--family", "charlier", "--theta", "1", "--tau", "nan"], "tau"),
    (["asym", "bulk", "--family", "charlier", "--tau", "1", "--u", "nan", "--A-list", "24"],
     "--u nan"),
    (["asym", "gap", "--family", "charlier", "--tau", "1", "--u", "inf"], "--u inf"),
    (["splice", "reality", "--family", "charlier", "--theta", "1", "--sigma", "nan"], "sigma"),
    (["splice", "kernel", "--family", "charlier", "--theta", "1", "--sigma", "inf"], "sigma"),
    (["asym", "crossover", "--family", "meixner", "--alpha", "nan"], "--alpha nan"),
    (["asym", "crossover", "--family", "meixner", "--alpha", "-1"], "--alpha -1"),
    (["asym", "crossover", "--family", "meixner", "--alpha", "inf"], "--alpha inf"),
    (["asym", "crossover", "--family", "meixner", "--alpha", "40", "--N-list", "16"],
     "--alpha 40"),
    (["asym", "density", "--family", "charlier", "--tau", "1", "--grid", "0"], "--grid 0"),
    (["asym", "density", "--family", "charlier", "--tau", "1", "--grid", "-3"], "--grid -3"),
    (["asym", "density", "--family", "krawtchouk", "--gamma", "0.25", "--p", "0.4", "--A", "2"],
     "--gamma 0.25 at A = 2"),
    (["asym", "edge", "--family", "krawtchouk", "--gamma", "0.9", "--p", "0.4",
      "--A-list", "2,4"], "--gamma 0.9 at A = 2"),
    # a beta = 4 block of odd rank has no Pfaffian law
    (["kernel", "--family", "charlier", "--theta", "2", "--beta", "4", "--N", "3", "--oracle"],
     "N = 3 gives an odd one"),
    (["splice", "kernel", "--family", "charlier", "--theta", "1", "--N", "5"], "N = 5 gives an odd one"),
    (["asym", "bulk", "--family", "charlier", "--tau", "1", "--beta", "4", "--u", "2",
      "--A-list", "25,49"], "N = 25 at A = 25 gives an odd one"),
], ids=["density-gamma-1.5", "edge-tau-0", "bulk-u-outside", "correction-u-packed",
        "gap-u-at-edge", "edge-ratio-meixner", "kernel-N-0", "splice-kernel-N-0",
        "kernel-window-empty", "kernel-window-negative", "kernel-window-past-M",
        "kernel-window-no-colon", "kernel-window-not-integer", "crossover-N-list-0",
        "krawtchouk-bulk-A-list-0", "meixner-bulk-A-list-0", "meixner-correction-A-list-0",
        "bulk-A-list-empty", "krawtchouk-edge-not-soft", "gap-A-0", "gap-A-negative",
        "density-A-0", "edge-ratio-A-0", "gap-lengths-not-positive", "gap-lengths-not-numbers",
        "gap-lengths-infinite", "crossover-krawtchouk", "crossover-xi", "crossover-tau",
        "crossover-gamma", "crossover-p", "krawtchouk-oracle-N-past-M",
        "krawtchouk-contour-N-past-M", "splice-krawtchouk-N-past-M", "theta-inf", "theta-nan",
        "bulk-tau-inf", "edge-tau-inf", "edge-ratio-tau-nan", "bulk-u-nan", "gap-u-inf",
        "reality-sigma-nan", "splice-kernel-sigma-inf", "crossover-alpha-nan",
        "crossover-alpha-negative", "crossover-alpha-inf", "crossover-alpha-past-2N",
        "density-grid-0", "density-grid-negative", "krawtchouk-density-N-0",
        "krawtchouk-edge-N-M", "kernel-beta4-odd-rank", "splice-odd-rank",
        "bulk-beta4-odd-rank"])
def test_input_outside_the_domain_is_a_usage_error(tmp_path, capsys, argv, named):
    # one error line that names the domain, no warning or traceback, and no
    # output: not even the new --out directory
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and named in err
    assert not list(tmp_path.iterdir())


def test_beta4_K_at_odd_rank_is_the_projection(tmp_path):
    # K is the projection at any rank, so a beta = 4 K request is answered
    assert main(["asym", "bulk", "--family", "charlier", "--tau", "1", "--beta", "4", "--u", "2",
                 "--block", "K", "--A-list", "25,49", "--out", str(tmp_path)]) == 0


def test_small_gamma_edge_study_runs_at_the_A_it_is_given(tmp_path):
    # gamma = 0.005 gives N = 0 at A = 64, which the edge study no longer visits:
    # its coalescence exponent is read at the first A of the list (N = 3)
    assert main(["asym", "edge", "--family", "krawtchouk", "--gamma", "0.005", "--p", "0.4",
                 "--A-list", "512,1024", "--block", "K", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "edge_krawtchouk_b1.json").read_text())
    assert rep["coalescence_exponent"] == pytest.approx(0.5, abs=0.05)


LARGE_A = {"charlier": (["--tau", "1"], "2"), "meixner": (["--xi", "0.25"], "1"),
           "krawtchouk": (["--gamma", "0.25", "--p", "0.4"], "0.3")}


@pytest.mark.parametrize("study", ["bulk-S", "bulk-K", "edge-K"])
@pytest.mark.parametrize("kind", list(LARGE_A))
def test_studies_run_at_A_6144(tmp_path, traced_peak, kind, study):
    # a wave table of all degrees would be 6145 x 28,000 doubles (1.4 GB) for
    # Charlier; the window rows and one full row stay far below 64 MB
    import warnings
    params, u = LARGE_A[kind]
    name, block = study.split("-")
    argv = ["asym", name, "--family", kind, *params, "--beta", "1", "--block", block,
            "--A-list", "6144", "--out", str(tmp_path)] + (["--u", u] if name == "bulk" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, peak = traced_peak(lambda: main(argv))
    assert code == 0 and peak < 64e6


@pytest.mark.parametrize("argv", [
    ["bulk", "--u", "2", "--block", "S"], ["bulk", "--u", "2", "--block", "K"],
    ["bulk", "--u", "2", "--beta", "4", "--block", "K"], ["edge", "--block", "K"],
    ["correction", "--u", "2", "--A-list", "48,96"], ["gap", "--u", "3", "--A", "256"]],
    ids=["bulk-S", "bulk-K", "bulk-beta4-K", "edge-K", "correction", "gap"])
def test_studies_build_no_wave_table(tmp_path, monkeypatch, argv):
    # K and the beta = 1 S come from the window route: rows at the window sites
    from pfkern import kernels, wavefunctions
    def refuse(*args, **kw):
        raise AssertionError("a study built a wave table")
    monkeypatch.setattr(kernels, "wave_table", refuse)
    monkeypatch.setattr(wavefunctions, "wave_table", refuse)
    assert main(["asym", *argv[:1], "--family", "charlier", "--tau", "1", *argv[1:],
                 "--out", str(tmp_path)]) == 0


def test_kernel_on_a_krawtchouk_lattice_shorter_than_the_adjudication(tmp_path):
    # the composition adjudication runs at N = 6 capped at M, so M = 4 is
    # adjudicated at N = 4 and the request ends in its finding
    code = main(["kernel", "--family", "krawtchouk", "--M", "4", "--p", "0.4", "--beta", "4",
                 "--N", "2", "--out", str(tmp_path)])
    assert code == 3
    assert len((tmp_path / "kernel_krawtchouk_b4_N2.csv").read_text().splitlines()) == 1 + 5 ** 2
    rep = json.loads((tmp_path / "kernel_krawtchouk_b4_N2.json").read_text())
    assert rep["composition_adjudication"]["N"] == 4


@pytest.mark.parametrize("M, p", [(29, 0.3), (20, 0.4), (64, 0.3), (65, 0.3)])
def test_validate_on_small_and_even_krawtchouk_lattices(tmp_path, M, p):
    # the Gram check covers the degrees the lattice holds (M + 1 < 31 here for
    # M = 20, 29); the D-eps check runs on the requested p with M made odd,
    # where the antisymmetric D on M + 1 sites is invertible
    code = main(["validate", "--family", "krawtchouk", "--M", str(M), "--p", str(p),
                 "--out", str(tmp_path)])
    assert code == 3
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert all(i["passes"] for i in rep["invariants"])
    assert any(i["name"].startswith(f"Krawtchouk(M={M | 1}, p={p}) D eps mutual inverse")
               for i in rep["invariants"])



@pytest.mark.parametrize("M", range(1, 9))
def test_validate_on_the_smallest_krawtchouk_lattices(tmp_path, M):
    # the projection checks run at N = 8 capped at M, on the M + 1 rows the
    # lattice holds: a rank-M projection on M + 1 sites, not the identity
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["validate", "--family", "krawtchouk", "--M", str(M), "--p", "0.4",
                     "--out", str(tmp_path)])
    assert code in (0, 3)
    rep = json.loads((tmp_path / "validate.json").read_text())
    assert all(np.isfinite(i["residual"]) for i in rep["invariants"])
    from pfkern.families import Krawtchouk
    from pfkern.kernels import adjudicate_projection
    assert adjudicate_projection(Krawtchouk(M=M, p=0.4))["N"] == min(8, M)


def test_validate_on_a_one_site_krawtchouk_lattice_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", "--family", "krawtchouk", "--M", "0", "--p", "0.4",
                 "--out", str(tmp_path / "out")]) == 1
    assert "M=0" in capsys.readouterr().err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "meixner", "--xi", "0.25", "--sigma", "0.01"],
    ["reality", "--family", "charlier", "--theta", "1", "--sigma", "1e-3"],
    ["kernel", "--family", "charlier", "--theta", "1", "--sigma", "0.01"],
], ids=["kernel-meixner", "reality-charlier", "kernel-charlier"])
def test_splice_symbol_overflow_is_a_numerical_failure(tmp_path, capsys, argv):
    # exp(-(log w)^2 / sigma) overflows on the circles at small sigma: one error
    # line, no output and no numpy warning, where it once wrote NaN
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["splice", *argv, "--out", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 2 and not (tmp_path / "out").exists()
    assert out.err.splitlines() == [f"numerical failure: the Gaussian-test symbol m_h "
                                    f"overflows at sigma={float(argv[-1]):g}"]

@pytest.mark.parametrize("argv", [
    ["bulk", "--u", "0.3", "--A-list", "4"],
    ["bulk", "--u", "0.7", "--A-list", "16,32"],
    ["correction", "--u", "0.7", "--A-list", "16,32"],
    ["gap", "--u", "0.7", "--A", "16", "--lengths", "10"],
], ids=["bulk-A-4", "bulk-u-0.7", "correction-u-0.7", "gap-u-0.7"])
def test_krawtchouk_window_past_M_is_cut_to_the_lattice(tmp_path, capsys, argv):
    # a bulk window or gap interval that runs past M keeps the sites 0..M
    code = main(["asym", argv[0], "--family", "krawtchouk", "--gamma", "0.25", "--p", "0.4",
                 *argv[1:], "--out", str(tmp_path)])
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    rep = json.loads(next(tmp_path.glob("*.json")).read_text())
    if argv[0] == "gap":
        assert rep["entries"][0]["points"] == 16 - 12 + 1     # sites ceil(16 * 0.7) = 12 to M
    elif argv[0] == "bulk":
        assert all(np.isfinite(e["sup_err_raw"]) for e in rep["entries"])


def test_krawtchouk_edge_converges_to_airy(tmp_path):
    # the Airy length of a Krawtchouk soft edge, from kappa = -0.554 at
    # gamma = 0.25, p = 0.4
    code = main(["asym", "edge", "--family", "krawtchouk", "--gamma", "0.25", "--p", "0.4",
                 "--block", "K", "--A-list", "64,128,256,512", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "edge_krawtchouk_b1.json").read_text())
    assert rep["monotone_decreasing"]
    assert abs(rep["entries"][-1]["c_fit"] - 1) < 0.05


ASYM_REGIMES = ([("krawtchouk", {"gamma": g, "p": p}) for g in (0.01, 0.25, 0.9)
                 for p in (0.05, 0.4, 0.95)]
                + [("charlier", {"tau": t}) for t in (0.05, 1.0, 20.0)]
                + [("meixner", {"xi": x}) for x in (0.01, 0.5, 0.97)])


@pytest.mark.parametrize("A", [2, 8, 64])
@pytest.mark.parametrize("study", ["density", "bulk", "edge", "gap"])
@pytest.mark.parametrize("kind, params", ASYM_REGIMES,
                         ids=["-".join(map(str, [k, *p.values()])) for k, p in ASYM_REGIMES])
def test_asym_studies_end_in_an_exit_code(tmp_path, capsys, kind, params, study, A):
    # small and extreme regimes, down to Krawtchouk N = round(gamma A) = 0 or M;
    # bulk and gap read u at the middle of the bulk support at A = 64.  Every
    # request ends in an exit code (a RuntimeWarning is an error here): success
    # is silent on stderr, a refusal or a numerical failure is one line
    from pfkern.harness import Regime
    from pfkern.saddles import bulk_support
    argv = ["asym", study, "--family", kind, "--out", str(tmp_path)]
    argv += [f"--{name}={value}" for name, value in params.items()]
    argv += ["--A-list", str(A)] if study in ("bulk", "edge") else ["--A", str(A)]
    if study in ("bulk", "gap"):
        lo, hi = bulk_support(*Regime(kind, **params).family_and_N(64))
        argv.append(f"--u={(lo + hi) / 2!r}")
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or code in (1, 2) and err.count("\n") == 1, (code, err)


def test_density_summary_reports_total_mass(tmp_path, capsys):
    assert main(["asym", "density", "--family", "charlier", "--tau", "1", "--grid", "10",
                 "--out", str(tmp_path)]) == 0
    mass = float(capsys.readouterr().out.rsplit("density_total_mass ", 1)[1].rstrip(")\n"))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_gate_accepts_library_outputs(tmp_path):
    # the benchmark's correctness gate evaluates its references with library
    # code (dense_oracle, spliced_oracle) and reads the study reports' fields;
    # an oracle-route kernel, a spliced kernel and every seed-1 request of the
    # oracle-asym and contour-splice workloads must pass it
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import gate
        import workloads
        from workloads import Request
    finally:
        sys.path.remove(bench)
    requests = [*workloads.requests("oracle-asym", 1), *workloads.requests("contour-splice", 1),
        Request("kernel", ("kernel", "--family", "krawtchouk", "--M", "20", "--p", "0.4",
                           "--beta", "1", "--N", "4", "--oracle"),
                {"family": {"family": "krawtchouk", "M": 20, "p": 0.4}, "beta": 1, "N": 4,
                 "route": "oracle"}),
        Request("splice kernel", ("splice", "kernel", "--family", "charlier", "--theta", "1",
                                  "--sigma", "2", "--N", "6"),
                {"family": {"family": "charlier", "theta": 1.0}, "sigma": 2.0, "N": 6}),
    ]
    for i, req in enumerate(requests):
        outdir = str(tmp_path / f"r{i}")
        code = main([*req.argv, "--out", outdir])
        assert gate.check_all([req], [outdir], [code]) == [None]
