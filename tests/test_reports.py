import numpy as np

from pfkern.families import Charlier
from pfkern.kernels import oracle_block
from pfkern.reports import write_kernel_csv


def _cell_by_cell(blk):
    sd = blk.SD if blk.SD is not None else np.full_like(blk.S, np.nan)
    es = blk.epsS if blk.epsS is not None else np.full_like(blk.S, np.nan)
    lines = ["x,y,S,SD,epsS\n"]
    for i, x in enumerate(blk.xs):
        for j, y in enumerate(blk.ys):
            lines.append(f"{x},{y},{blk.S[i, j]:.17g},{sd[i, j]:.17g},{es[i, j]:.17g}\n")
    return "".join(lines)


def test_kernel_csv_matches_cell_by_cell_format(tmp_path):
    blk = oracle_block(Charlier(theta=1.0), 4, 4, np.arange(3, 12))
    blk.S[0, 1] = -0.0
    blk.S[2, 2] = 1e-300
    path = tmp_path / "k.csv"
    write_kernel_csv(str(path), blk)
    assert path.read_text() == _cell_by_cell(blk)
    blk.SD = blk.epsS = None
    write_kernel_csv(str(path), blk)
    assert path.read_text() == _cell_by_cell(blk)
    assert path.read_text().splitlines()[1].endswith(",nan,nan")
