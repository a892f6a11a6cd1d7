import json
import os
import subprocess
import sys

import numpy as np

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
    assert "could not convert string to float: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


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
    code = main(["asym", "crossover", "--family", "meixner", "--xi", "0.5", "--block", "SD",
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
