import numpy as np

from pfkern.families import Charlier, Meixner
from pfkern.kernels import default_window, oracle_block
from pfkern.reports import write_kernel_csv


def _cell_by_cell(blk):
    """The CSV lines, one cell at a time, for x and y both over the window."""
    sd = blk.SD if blk.SD is not None else np.full_like(blk.S, np.nan)
    es = blk.epsS if blk.epsS is not None else np.full_like(blk.S, np.nan)
    lines = ["x,y,S,SD,epsS"]
    for i, x in enumerate(blk.xs):
        for j, y in enumerate(blk.xs):
            lines.append(f"{x},{y},{blk.S[i, j]:.17g},{sd[i, j]:.17g},{es[i, j]:.17g}")
    return lines


def _assert_csv(path, blk):
    # line by line, naming the first difference: pytest's diff of two whole
    # CSV texts of ~20,000 lines does not finish in minutes
    got, want = path.read_text().split("\n"), _cell_by_cell(blk) + [""]
    for i, (line, ref) in enumerate(zip(got, want)):
        assert line == ref, f"line {i}: {line!r} != {ref!r}"
    assert len(got) == len(want), f"{len(got)} lines, expected {len(want)}"


def test_kernel_csv_matches_cell_by_cell_format(tmp_path):
    blk = oracle_block(Charlier(theta=1.0), 4, 4, np.arange(3, 12))
    blk.S[0, 1] = -0.0
    blk.S[2, 2] = 1e-300
    path = tmp_path / "k.csv"
    write_kernel_csv(str(path), blk)
    _assert_csv(path, blk)
    blk.SD = blk.epsS = None
    write_kernel_csv(str(path), blk)
    _assert_csv(path, blk)
    assert path.read_text().splitlines()[1].endswith(",nan,nan")


def test_kernel_csv_streams_a_large_window(tmp_path, traced_peak):
    # the Meixner xi = 0.446, N = 32, beta = 1 oracle window: 129 x 129 cells,
    # a 1.13 MB file.  Formatting every cell at once peaked at 5 MB
    fam = Meixner(xi=0.446)
    blk = oracle_block(fam, 32, 1, default_window(fam, 32))
    blk.SD, blk.epsS    # the lazy blocks are computed before the measurement
    path = tmp_path / "k.csv"
    _, peak = traced_peak(lambda: write_kernel_csv(str(path), blk))
    _assert_csv(path, blk)
    assert peak < 1.5 * 2 ** 20


def test_kernel_csv_one_format_call_matches_cell_by_cell_on_special_values(tmp_path):
    from types import SimpleNamespace
    rng = np.random.default_rng(3)
    S, SD, epsS = (rng.normal(size=(150, 150)) * 10.0 ** rng.integers(-320, 300, (150, 150))
                   for _ in range(3))
    S[0, :6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310]
    SD[1, :3] = [np.nan, -0.0, 1e-320]
    epsS[2, :3] = [-np.inf, 0.0, -5e-324]
    blk = SimpleNamespace(xs=np.arange(7, 157), S=S, SD=SD, epsS=epsS)
    path = tmp_path / "k.csv"
    write_kernel_csv(str(path), blk)
    _assert_csv(path, blk)
