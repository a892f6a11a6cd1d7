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


def write_json(path: str, payload: dict, config: dict | None = None) -> None:
    doc = {"library_version": VERSION, "config": config or {}, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=_default, sort_keys=True)
        fh.write("\n")


def write_kernel_csv(path: str, blk) -> None:
    """Rows (x, y, S, SD, epsS) with 17 significant digits."""
    sd = blk.SD if blk.SD is not None else np.full_like(blk.S, np.nan)
    es = blk.epsS if blk.epsS is not None else np.full_like(blk.S, np.nan)
    ys = np.asarray(blk.ys).tolist()
    with open(path, "w") as fh:
        fh.write("x,y,S,SD,epsS\n")
        for x, *rows in zip(np.asarray(blk.xs).tolist(), blk.S.tolist(), sd.tolist(), es.tolist()):
            fh.writelines(f"{x},{y},{s:.17g},{d:.17g},{e:.17g}\n" for y, s, d, e in zip(ys, *rows))


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
