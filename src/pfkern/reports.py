"""Deterministic CSV/JSON output for kernel windows and study reports."""
from __future__ import annotations

import json
import os

import numpy as np

VERSION = "0.1.0"


def _default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    if isinstance(o, np.ndarray):
        return o.tolist()
    return str(o)


def write_json(path: str, payload: dict, config: dict) -> None:
    doc = {"library_version": VERSION, "config": config, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=_default, sort_keys=True)
        fh.write("\n")


def write_kernel_csv(path: str, blk) -> None:
    """Rows (x, y, S, SD, epsS), x and y both over the window `blk.xs`, with 17
    significant digits, NaN for a block that is None, formatted and written
    about 2048 cells at a time."""
    ys = np.asarray(blk.xs)
    step = max(1, 2048 // max(len(ys), 1))
    with open(path, "w") as fh:
        fh.write("x,y,S,SD,epsS\n")
        for lo in range(0, len(blk.xs), step):
            xs = np.asarray(blk.xs[lo:lo + step])
            cells = np.empty((len(xs), len(ys), 5))
            cells[..., 0] = xs[:, None]
            cells[..., 1] = ys
            for col, block in enumerate((blk.S, blk.SD, blk.epsS), start=2):
                cells[..., col] = np.nan if block is None else block[lo:lo + step]
            fh.write("%d,%d,%.17g,%.17g,%.17g\n" * (cells.size // 5) % tuple(cells.ravel().tolist()))


def write_table_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def output_dir(cli_value: str | None) -> str:
    d = cli_value or os.environ.get("PFKERN_OUT", ".")
    os.makedirs(d, exist_ok=True)
    return d


def block_metadata(blk) -> dict:
    meta = {
        "family": blk.family.name,
        "family_params": {k: v for k, v in vars(blk.family).items()},
        "beta": blk.beta,
        "N": blk.N,
        "window": [int(blk.xs[0]), int(blk.xs[-1])],
        "provenance": blk.provenance,
        "antisymmetry_defect": blk.antisymmetry_defect(),
    }
    meta.update(blk.meta)
    return meta
