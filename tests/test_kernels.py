import numpy as np
import pytest

from pfkern.families import Charlier, Krawtchouk, Meixner
from pfkern.kernels import (adjudicate_composition, adjudicate_projection,
                            beta1_indices, block_with_symbol_insertions,
                            compose_columns, compose_contour, default_window,
                            oracle_block, projection_contour, projection_direct,
                            rank_of, residual_rank, s1_block, s4_block)
from pfkern.symbols import inverse_eps_symbol, symbol

FAMS = [Meixner(xi=0.25, beta_m=1.0), Charlier(theta=1.0), Krawtchouk(M=60, p=0.4)]
IDS = [f.name for f in FAMS]


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_projection_symmetry_and_trace(fam):
    N = 8
    xs = default_window(fam, N)
    K = projection_direct(fam, N, xs)
    assert np.max(np.abs(K - K.T)) < 1e-14
    # trace equals the rank once the window carries all the mass
    if fam.finite:
        assert np.trace(K) == pytest.approx(rank_of(fam, N), abs=1e-8)
    else:
        big = np.arange(0, 16 * N)
        assert np.trace(projection_direct(fam, N, big)) == pytest.approx(
            rank_of(fam, N), abs=1e-8)


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_projection_idempotent(fam):
    N = 6
    lat = np.arange(0, fam.M + 1 if fam.finite else 140)
    K = projection_direct(fam, N, lat)
    assert np.max(np.abs(K @ K - K)) < 1e-9


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("N", [4, 8, 12])
def test_projection_contour_vs_direct(fam, N):
    xs = np.arange(0, min(4 * N, fam.M) + 1 if fam.finite else 4 * N + 1)
    K = projection_direct(fam, N, xs)
    Kc = projection_contour(fam, N, xs, variant="adjudicated", nodes=1024)
    scale = np.max(np.abs(K))
    assert np.max(np.abs(Kc - K)) / scale < 1e-8


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_nesting_adjudication_unique_winner(fam):
    rep = adjudicate_projection(fam, 8)
    assert rep["passes"]
    losers = [v for k, v in rep["candidates"].items() if k != rep["winner"]]
    assert min(losers) > 1e-3   # the other conventions are decisively rejected


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_oracle_blocks_structure(fam):
    N = 6
    blk = oracle_block(fam, N, 4)
    # K eps K is antisymmetric
    assert blk.antisymmetry_defect() < 1e-9
    blk1 = oracle_block(fam, N, 1)
    # S - K has numerical rank one
    K = projection_direct(fam, N, blk1.xs)
    sv = np.linalg.svd(blk1.S - K, compute_uv=False)
    assert sv[1] < 1e-8 * sv[0]


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("beta", [1, 4])
def test_oracle_block_vs_dense_operators(fam, beta):
    # the Gram form against dense D and the eps matrix of its defining sums
    from pfkern.kernels import oracle_lattice
    from pfkern.lattice_ops import build_d, build_epsilon_direct
    from pfkern.wavefunctions import get_table
    N = 6
    blk = oracle_block(fam, N, beta)
    lat = oracle_lattice(fam, N, blk.xs)
    r = rank_of(fam, N)
    phi = get_table(fam, r + 1, None if fam.finite else lat.x_max).phi[:, :lat.size]
    eps = build_epsilon_direct(fam, lat).mat
    K = phi[:r].T @ phi[:r]
    if beta == 4:
        S = K @ eps @ K
    else:
        a, b = beta1_indices(fam, N)
        S = K + 0.5 * np.outer(phi[a], eps @ phi[b])
    ix = np.ix_(blk.xs, blk.xs)
    for got, ref in ((blk.S, S[ix]), (blk.SD, (S @ build_d(fam, lat).mat)[ix]),
                     (blk.epsS, (eps @ S)[ix])):
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_oracle_block_truncation_stability():
    fam = Charlier(theta=1.0)
    N = 6
    win = np.arange(0, 25)
    from pfkern.families import TruncatedLattice
    a = oracle_block(fam, N, 4, win, TruncatedLattice(x_max=120))
    b = oracle_block(fam, N, 4, win, TruncatedLattice(x_max=240))
    assert np.max(np.abs(a.S - b.S)) < 1e-10


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_compose_columns_vs_oracle_structure(fam):
    # the raw multiplier realization is NOT the lattice eps: its composed
    # block picks up a boundary-kernel defect (rank one for Meixner, where
    # the weighted shifts are genuine multipliers; larger for the others)
    N = 6
    xs = np.arange(0, 20)
    blk = compose_columns(fam, N, xs)
    orc = oracle_block(fam, N, 4, xs)
    R = blk.S - orc.S
    if fam.name == "meixner":
        assert residual_rank(R) == 1
    else:
        assert np.max(np.abs(R)) > 1e-3   # structurally different operator


def test_constant_symbol_degeneracy():
    # The printed composition annihilates constant symbols; K c K = c K does
    # not: the documented zeta = 0 caveat.
    fam = Charlier(theta=1.0)
    xs = np.arange(0, 12)
    S = compose_contour(fam, 4, lambda z: np.ones_like(z), xs)
    assert np.max(np.abs(S)) < 1e-10
    K = projection_direct(fam, 4, xs)
    assert np.max(np.abs(K)) > 0.1


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_composition_adjudication_outcome(fam):
    rep = adjudicate_composition(fam)
    # no printed variant reproduces the lattice K eps K for any family:
    # the composed operator differs from the defining eps by lattice
    # boundary structure; the adjudicator must say so with diagnostics
    assert rep["outcome"] in ("match", "structured", "mismatch")
    assert rep["winner_error"] == min(rep["candidates"].values())
    if fam.name == "meixner":
        # the multiplier realization differs from eps by the rank-one
        # projection of the even constant chain
        assert rep["columns_residual_rank"] == 1


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_s4_block_matches_oracle(fam):
    N = 6
    blk = s4_block(fam, N)
    orc = oracle_block(fam, N, 4)
    scale = np.max(np.abs(orc.S))
    assert np.max(np.abs(blk.S - orc.S)) / scale < 1e-8
    assert np.max(np.abs(blk.SD - orc.SD)) / np.max(np.abs(orc.SD)) < 1e-8
    assert np.max(np.abs(blk.epsS - orc.epsS)) / np.max(np.abs(orc.epsS)) < 1e-8


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_s1_block_matches_oracle_and_rank_one(fam):
    N = 6
    blk = s1_block(fam, N)
    orc = oracle_block(fam, N, 1)
    scale = np.max(np.abs(orc.S))
    assert np.max(np.abs(blk.S - orc.S)) / scale < 1e-8
    a, b = beta1_indices(fam, N)
    assert blk.meta["rank_one_indices"] == (a, b)
    sv = np.linalg.svd(blk.S - projection_direct(fam, N, blk.xs), compute_uv=False)
    assert sv[1] < 1e-8 * sv[0]


def test_beta1_family_indices_differ():
    # Meixner uses degrees (2N, 2N-1); Charlier (N, N-1): different blocks
    assert beta1_indices(Meixner(xi=0.25, beta_m=1.0), 6) == (12, 11)
    assert beta1_indices(Charlier(theta=1.0), 6) == (6, 5)
    mx1 = s1_block(Meixner(xi=0.25, beta_m=1.0), 4, np.arange(10))
    ch1 = s1_block(Charlier(theta=1.0), 4, np.arange(10))
    assert not np.allclose(mx1.S, ch1.S)


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_offdiagonal_symbol_reciprocity(fam):
    # inserting D-hat then eps-hat on the same variable: exact reciprocals
    # give back the block for Charlier/Krawtchouk; the Meixner printed pair
    # composes to the 1/w insertion
    N = 4
    xs = np.arange(0, 12)
    m_eps = lambda z: inverse_eps_symbol(fam, z)
    base = block_with_symbol_insertions(fam, N, xs, m_center=None)
    if fam.name == "meixner":
        dd = lambda z: symbol(fam, "D", z)
        ee = lambda z: symbol(fam, "eps", z)
        both = block_with_symbol_insertions(fam, N, xs, m_y=lambda z: dd(z) * ee(z))
        invw = block_with_symbol_insertions(fam, N, xs, m_y=lambda z: 1.0 / z)
        assert np.max(np.abs(both - invw)) < 1e-9
    else:
        dd = lambda z: symbol(fam, "D", z)
        both = block_with_symbol_insertions(fam, N, xs,
                                            m_y=lambda z: dd(z) * m_eps(z))
        assert np.max(np.abs(both - base)) < 1e-9


# ---------------------------------------------------------------------------
# printed formulas against the naive triple sum on a 64-node grid.  Some of
# the printed forms cancel to 1e-16 of their terms, so the comparison is
# relative to the roundoff scale: the same sum over absolute values.

NAIVE_NODES = 64


def _circle(r):
    return r * np.exp(2j * np.pi * np.arange(NAIVE_NODES) / NAIVE_NODES)


def _naive(A, C, B):
    """(value, sum of absolute terms) of the triple sum."""
    val, mag = (np.einsum("xi,ij,yj->xy", *ops, optimize=False) / NAIVE_NODES ** 2
                for ops in ((A, C, B), (abs(A), abs(C), abs(B))))
    return val.real, mag.real


def _naive_meixner(fam, N, xs, regime, dq=lambda W1, W2: 1.0):
    from pfkern.kernels import _meixner_pair
    s = fam.s
    w1, w2 = (_circle(r) for r in _meixner_pair(fam, regime))
    rows = lambda w: np.array([((1 - s / w) / (1 - s * w)) ** (2 * N) * w ** (2 * N - x)
                               for x in xs])
    W1, W2 = w1[:, None], w2[None, :]
    return _naive(rows(w1), dq(W1, W2) / (W1 * W2 - 1), rows(w2))


def _naive_nested(fam, N, xs, swap, m_func=None):
    from pfkern.symbols import default_contour
    inner, outer = (default_contour(fam, k).radius for k in ("inner", "outer"))
    t1, t2 = (_circle(inner), _circle(outer)) if swap else (_circle(outer), _circle(inner))
    if fam.name == "charlier":
        rows = lambda t: np.array([np.exp(-fam.theta * t) * (1 + t) ** x for x in xs])
    else:
        rows = lambda t: np.array([(1 + fam.p * t) ** (fam.M - x) * (1 - fam.q * t) ** x
                                   for x in xs])
    T1, T2 = t1[:, None], t2[None, :]
    C = (T2 / T1) ** N / (T1 - T2)
    if m_func is not None:
        C = C * (m_func(T1) - m_func(T2)) / (T1 - T2)
    lw = fam.log_weight(np.asarray(xs, dtype=float))
    pref = np.exp(0.5 * (lw[:, None] + lw[None, :]))
    return tuple(pref * v for v in _naive(rows(t1), C, rows(t2)))


def _naive_dual(fam, N, xs):
    from pfkern.kernels import _dual_y_radius
    t = _circle(1.0)
    lw = fam.log_weight(np.asarray(xs, dtype=float))
    if fam.name == "charlier":
        r_in = 0.45
        a = lambda x, z: np.exp(-fam.theta * z) * (1 + z) ** x
    else:
        p, q, M = fam.p, fam.q, fam.M
        r_in = 0.4 * min(1 / p, 1 / q)
        a = lambda x, z: (1 + p * z) ** (M - x) * (1 - q * z) ** x
    tin = r_in * t
    A = np.array([a(x, tin) * np.exp(0.5 * lw[i]) * tin ** (1 - N) for i, x in enumerate(xs)])
    out = np.empty((len(xs), len(xs)))
    mag = np.empty((len(xs), len(xs)))
    for iy, y in enumerate(xs):
        rho = _dual_y_radius(fam, y, N, r_in)
        if fam.name == "charlier":
            center, sign = -1.0, -1.0
            u = center + rho * t
            b = np.exp(fam.theta * u) * (1 + u) ** (-(y + 1))
        else:
            center, sign = (1 / q, 1.0) if y <= M // 2 else (-1 / p, -1.0)
            u = center + rho * t
            b = (1 + p * u) ** (y - M - 1) * (1 - q * u) ** (-(y + 1))
        v = b * np.exp(-0.5 * lw[iy]) * u ** N * (u - center)
        C = 1.0 / (tin[:, None] - u[None, :])
        out[:, iy], mag[:, iy] = (
            np.einsum("xi,ij,j->x", *ops, optimize=False).real / NAIVE_NODES ** 2
            for ops in ((sign * A, C, v), (abs(A), abs(C), abs(v))))
    return out, mag


def _printed_cases():
    mx, ch, kr = FAMS
    m_mx = lambda z: symbol(mx, "eps", z)
    printed = lambda W1, W2: (W2 - W1) / ((W1 ** 2 - 1) * (W2 ** 2 - 1))
    dq = lambda m: (lambda W1, W2: (m(W1) - m(W2)) / (W1 - W2))
    cases = {
        "meixner-paper": (lambda xs: projection_contour(mx, 4, xs, variant="paper", nodes=64),
                          lambda xs: _naive_meixner(mx, 4, xs, "product<1")),
        "meixner-swapped": (lambda xs: projection_contour(mx, 4, xs, variant="paper-swapped",
                                                          nodes=64),
                            lambda xs: _naive_meixner(mx, 4, xs, "product>1")),
        "meixner-compose": (lambda xs: compose_contour(mx, 4, m_mx, xs, nodes=64),
                            lambda xs: _naive_meixner(mx, 4, xs, "product<1", dq(m_mx))),
        "meixner-compose-swapped": (
            lambda xs: compose_contour(mx, 4, m_mx, xs, variant="paper-swapped", nodes=64),
            lambda xs: _naive_meixner(mx, 4, xs, "product>1", dq(m_mx))),
        "meixner-compose-printed": (
            lambda xs: compose_contour(mx, 4, m_mx, xs, numerator="printed", nodes=64),
            lambda xs: _naive_meixner(mx, 4, xs, "product<1", printed)),
    }
    for fam in (ch, kr):
        m = lambda z, fam=fam: inverse_eps_symbol(fam, z)
        for swap in (False, True):
            variant = "paper-swapped" if swap else "paper"
            cases[f"{fam.name}-{variant}"] = (
                lambda xs, fam=fam, v=variant: projection_contour(fam, 4, xs, variant=v, nodes=64),
                lambda xs, fam=fam, s=swap: _naive_nested(fam, 4, xs, s))
            cases[f"{fam.name}-compose-{variant}"] = (
                lambda xs, fam=fam, v=variant, m=m: compose_contour(fam, 4, m, xs, variant=v,
                                                                    nodes=64),
                lambda xs, fam=fam, s=swap, m=m: _naive_nested(fam, 4, xs, s, m))
        cases[f"{fam.name}-dual"] = (
            lambda xs, fam=fam: projection_contour(fam, 4, xs, variant="dual", nodes=64),
            lambda xs, fam=fam: _naive_dual(fam, 4, xs))
    return cases


PRINTED_CASES = _printed_cases()


@pytest.mark.parametrize("case", sorted(PRINTED_CASES))
def test_printed_formula_matches_naive_triple_sum(case):
    fast, naive = PRINTED_CASES[case]
    xs = np.arange(0, 14)
    ref, mag = naive(xs)
    assert np.all(np.abs(fast(xs) - ref) <= 1e-13 * mag)


@pytest.mark.parametrize("M", [58, 63, 64, 65])
def test_composition_winner_is_stable_under_roundoff(M):
    # the printed composition vanishes to roundoff here, so the two symbol
    # candidates tie at 1.0 and the first declared one is named; unrounded,
    # the last digits pick either, depending on the contraction order
    rep = adjudicate_composition(Krawtchouk(M=M, p=0.4))
    assert rep["candidates"]["paper printed-symbol"] == rep["candidates"]["paper inverse-symbol"]
    assert rep["winner"] == "paper printed-symbol"
