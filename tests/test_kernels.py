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
