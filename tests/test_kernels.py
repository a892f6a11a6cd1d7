import numpy as np
import pytest

from pfkern.families import Charlier, Krawtchouk, Meixner
from pfkern.kernels import (_dual_kernel, _meixner_paper_kernel, _printed_nested_kernel,
                            adjudicate_composition, adjudicate_projection,
                            beta1_indices, compose_columns, default_window, gram_block,
                            oracle_block, rank_of, residual_rank)
from pfkern.symbols import inverse_eps_symbol, symbol

FAMS = [Meixner(xi=0.25, beta_m=1.0), Charlier(theta=1.0), Krawtchouk(M=60, p=0.4)]
IDS = [f.name for f in FAMS]


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_projection_symmetry_and_trace(fam):
    N = 8
    xs = default_window(fam, N)
    K = oracle_block(fam, N, 4, xs).K
    assert np.max(np.abs(K - K.T)) < 1e-14
    # trace equals the rank once the window carries all the mass
    if fam.finite:
        assert np.trace(K) == pytest.approx(rank_of(fam, N), abs=1e-8)
    else:
        big = np.arange(0, 16 * N)
        assert np.trace(oracle_block(fam, N, 4, big).K) == pytest.approx(
            rank_of(fam, N), abs=1e-8)


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_projection_idempotent(fam):
    N = 6
    lat = np.arange(0, fam.M + 1 if fam.finite else 140)
    K = oracle_block(fam, N, 4, lat).K
    assert np.max(np.abs(K @ K - K)) < 1e-9


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("N", [4, 8, 12])
def test_projection_contour_vs_direct(fam, N):
    xs = np.arange(0, min(4 * N, fam.M) + 1 if fam.finite else 4 * N + 1)
    K = oracle_block(fam, N, 4, xs).K
    # the adjudicated convention: Meixner's radius product > 1, else the dual form
    Kc = (_meixner_paper_kernel(fam, N, xs, True, 1024) if fam.name == "meixner"
          else _dual_kernel(fam, N, xs, 1024))
    scale = np.max(np.abs(K))
    assert np.max(np.abs(Kc - K)) / scale < 1e-8


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_nesting_adjudication_unique_winner(fam):
    rep = adjudicate_projection(fam)
    assert rep["passes"]
    losers = [v for k, v in rep["candidates"].items() if k != rep["winner"]]
    assert min(losers) > 1e-3   # the other conventions are decisively rejected


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_oracle_blocks_structure(fam):
    N = 6
    blk = oracle_block(fam, N, 4, default_window(fam, N))
    # K eps K is antisymmetric
    assert blk.antisymmetry_defect() < 1e-9
    blk1 = oracle_block(fam, N, 1, default_window(fam, N))
    # S - K has numerical rank one
    sv = np.linalg.svd(blk1.S - blk.K, compute_uv=False)
    assert sv[1] < 1e-8 * sv[0]


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("beta", [1, 4])
def test_named_block_parts_match_their_sums(fam, beta):
    # K is the finite sum of the wave rows' products on the window, and at
    # beta = 1 the rank-one term is what the block adds to it
    from pfkern.wavefunctions import get_table
    N, xs = 6, np.arange(3, 20)
    blk = oracle_block(fam, N, beta, xs)
    r = rank_of(fam, N)
    phi = get_table(fam, r + 1, None if fam.finite else blk.meta["lattice_x_max"]).phi
    K = sum(np.outer(phi[n, xs], phi[n, xs]) for n in range(r))
    assert np.max(np.abs(blk.K - K)) <= 1e-15
    if beta == 4:
        assert blk.rank_one is None
    else:
        assert np.max(np.abs(blk.rank_one - (blk.S - blk.K))) <= 1e-15


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("beta", [1, 4])
def test_oracle_block_vs_dense_operators(fam, beta):
    # the Gram form against dense D and the eps matrix of its defining sums
    from pfkern.kernels import oracle_lattice
    from pfkern.lattice_ops import build_d, build_epsilon_direct
    from pfkern.wavefunctions import get_table
    N = 6
    blk = oracle_block(fam, N, beta, default_window(fam, N))
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
    # the block on its own lattice against the same Gram sandwich, E = Phi eps(Phi)^T,
    # on 241 sites
    fam = Charlier(theta=1.0)
    N = 6
    win = np.arange(0, 25)
    from pfkern.families import TruncatedLattice
    from pfkern.lattice_ops import apply_eps
    from pfkern.wavefunctions import wave_table
    a = oracle_block(fam, N, 4, win)
    phi = wave_table(fam, N - 1, TruncatedLattice(x_max=240)).phi
    b = phi[:, win].T @ (phi @ apply_eps(fam, phi.T)) @ phi[:, win]
    assert a.meta["lattice_x_max"] < 240 and np.max(np.abs(a.S - b)) < 1e-10



@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("beta", [1, 4])
def test_oracle_block_sizes_one_table_of_the_rows_it_reads(monkeypatch, fam, beta):
    # one lattice sizing and one table of rows 0..r, the rows a block reads, on
    # the lattice that sizing the table again by the same rule returns unchanged
    import pfkern.kernels as kernels
    import pfkern.wavefunctions as wavefunctions
    tables, sizings = [], []
    build, size = kernels.wave_table, wavefunctions.truncate
    monkeypatch.setattr(kernels, "wave_table",
                        lambda *args, **kw: tables.append(args[1:3]) or build(*args, **kw))
    monkeypatch.setattr(wavefunctions, "truncate",
                        lambda *args, **kw: sizings.append(args) or size(*args, **kw))
    N = 8
    blk = oracle_block(fam, N, beta, default_window(fam, N))
    r, ((n_max, lattice),) = rank_of(fam, N), tables
    assert len(sizings) == 1 and n_max == r and blk.meta["lattice_x_max"] == lattice.x_max
    assert wavefunctions.table_lattice(fam, r + 1, lattice.x_max) == lattice


def _stacked_blocks(fam, N, beta, xs, route):
    """S, SD, epsS, K and rank_one from factors stacked apart: at beta = 1 the rows
    phi_0..phi_a against R = [phi_0..phi_(a-1), eps phi_b], a copy, with the square
    E = diag(1, .., 1, 1/2); at beta = 4 E = Phi eps(Phi)^T in one product."""
    from pfkern.kernels import oracle_lattice
    from pfkern.lattice_ops import apply_d, apply_eps
    from pfkern.symbols import contour_rows
    from pfkern.wavefunctions import wave_table
    lattice = oracle_lattice(fam, N, xs)
    r = rank_of(fam, N)
    phi = (wave_table(fam, r, lattice).phi if route == "oracle"
           else contour_rows(fam, range(r + 1), np.arange(lattice.size)))
    if beta == 4:
        L = R = phi[:r]
        E = L @ apply_eps(fam, L.T)
    else:
        a, b = beta1_indices(fam, N)
        L, E = phi[:a + 1], np.eye(a + 1)
        E[-1, -1] = 0.5
        R = np.vstack([L[:-1], apply_eps(fam, phi[b])])
    Lx, Rx = L[:, xs], R[:, xs]
    return {"S": Lx.T @ (E @ Rx), "SD": Lx.T @ (E @ (-apply_d(fam, R.T).T)[:, xs]),
            "epsS": apply_eps(fam, L.T).T[:, xs].T @ (E @ Rx),
            "K": phi[:r, xs].T @ phi[:r, xs],       # two copies: a GEMM, not a SYRK
            "rank_one": 0.5 * np.outer(L[-1, xs], R[-1, xs]) if beta == 1 else None}


SMALL = [(fam, 6, default_window(fam, 6)) for fam in FAMS] + [
    (Krawtchouk(M=8, p=0.4), 8, np.arange(9))]           # N = M: no degree M + 1
LARGE = [(Charlier(theta=200.0), 200, np.arange(380, 421)),  # r = 200: two row blocks
         (Meixner(xi=0.25), 100, np.arange(60, 101))]


@pytest.mark.parametrize("beta", [1, 4])
@pytest.mark.parametrize("route, fam, N, xs", [
    pytest.param(route, *case, id=f"{route}-{case[0].name}-N{case[1]}")
    for route, cases in (("oracle", SMALL + LARGE), ("contour", SMALL)) for case in cases])
def test_factors_in_the_table_buffer_match_the_stacked_factors(route, fam, N, xs, beta):
    # the beta = 1 rows share one buffer with eps phi_b under a rectangular E, and
    # eps and D run in row blocks; every entry of E R is one product, and each
    # block's columns are the same sums, so the blocks keep their bits
    blk = gram_block(fam, N, beta, xs, route)
    ref = _stacked_blocks(fam, N, beta, xs, route)
    for name, want in ref.items():
        got = getattr(blk, name)
        assert (got is None) if want is None else np.array_equal(got, want), name


def _charlier_bulk_768():
    """(family, N, window, bytes of the table of rows 0..r) at the A = 768 Charlier
    bulk frame: a 769 x 3925 table."""
    from pfkern.harness import Regime, bulk_frame
    from pfkern.kernels import oracle_lattice
    fam, N, xs, *_ = bulk_frame(Regime(kind="charlier", tau=1.0), 768, 2.0)
    return fam, N, xs, (rank_of(fam, N) + 1) * oracle_lattice(fam, N, xs).size * 8


def test_beta1_block_holds_one_table(traced_peak):
    # eps phi_b is written into the table's spare row, so the table is the
    # block's one lattice-sized array; with R stacked apart S peaked at 2.2 tables
    fam, N, xs, table = _charlier_bulk_768()
    _, peak = traced_peak(lambda: oracle_block(fam, N, 1, xs).S)
    assert peak <= 1.3 * table


def test_beta4_gram_applies_eps_in_row_blocks(traced_peak):
    # eps of all r rows at once peaked at 3.0 tables
    fam, N, xs, table = _charlier_bulk_768()
    _, peak = traced_peak(lambda: oracle_block(fam, N, 4, xs).S)
    assert peak <= 1.75 * table


@pytest.mark.parametrize("beta", [1, 4])
@pytest.mark.parametrize("name", ["SD", "epsS"])
def test_inserted_blocks_keep_only_window_columns(traced_peak, name, beta):
    # R D and eps L over the whole lattice took 2.0 tables on top of the block
    fam, N, xs, table = _charlier_bulk_768()
    blk = oracle_block(fam, N, beta, xs)
    _, peak = traced_peak(lambda: getattr(blk, name))
    assert peak <= 0.5 * table


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


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_compose_columns_matches_explicit_sums(fam):
    # Phi^T <Phi, T Phi> Phi with T phi_k the multiplier image of phi_k,
    # every Gram entry and every window entry summed term by term
    from pfkern.kernels import oracle_lattice
    from pfkern.symbols import contour_rows, eps_multiplier
    from pfkern.wavefunctions import get_table
    N = 4
    xs = np.arange(0, 14)
    lat = oracle_lattice(fam, N, xs)
    r = rank_of(fam, N)
    phi = get_table(fam, r + 1, None if fam.finite else lat.x_max).phi[:r, :lat.size]
    sites = np.arange(lat.size)
    T_phi = contour_rows(fam, range(r), sites, eps_multiplier(fam))
    gram = [[sum(phi[j, z] * T_phi[k][z] for z in sites) for k in range(r)] for j in range(r)]
    ref = np.array([[sum(phi[j, x] * gram[j][k] * phi[k, y] for j in range(r) for k in range(r))
                     for y in xs] for x in xs])
    blk = compose_columns(fam, N, xs)
    assert blk.SD is None and blk.epsS is None
    assert np.max(np.abs(blk.S - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_constant_symbol_degeneracy():
    # The printed composition annihilates constant symbols; K c K = c K does
    # not: the documented zeta = 0 caveat.
    fam = Charlier(theta=1.0)
    xs = np.arange(0, 12)
    S = _printed_nested_kernel(fam, 4, xs, False, 512, lambda z: np.ones_like(z))
    assert np.max(np.abs(S)) < 1e-10
    K = oracle_block(fam, 4, 4, xs).K
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
    # the beta = 4 block of the contour route (`pfkern kernel`) against the oracle's
    N = 6
    blk = gram_block(fam, N, 4, default_window(fam, N), "contour")
    orc = oracle_block(fam, N, 4, default_window(fam, N))
    scale = np.max(np.abs(orc.S))
    assert np.max(np.abs(blk.S - orc.S)) / scale < 1e-8
    assert np.max(np.abs(blk.SD - orc.SD)) / np.max(np.abs(orc.SD)) < 1e-8
    assert np.max(np.abs(blk.epsS - orc.epsS)) / np.max(np.abs(orc.epsS)) < 1e-8


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_s1_block_matches_oracle_and_rank_one(fam):
    # the beta = 1 block of the contour route (`pfkern kernel`) against the oracle's
    N = 6
    blk = gram_block(fam, N, 1, default_window(fam, N), "contour")
    orc = oracle_block(fam, N, 1, default_window(fam, N))
    scale = np.max(np.abs(orc.S))
    assert np.max(np.abs(blk.S - orc.S)) / scale < 1e-8
    sv = np.linalg.svd(blk.S - orc.K, compute_uv=False)
    assert sv[1] < 1e-8 * sv[0]


def test_beta1_family_indices_differ():
    # Meixner uses degrees (2N, 2N-1); Charlier (N, N-1): different blocks
    assert beta1_indices(Meixner(xi=0.25, beta_m=1.0), 6) == (12, 11)
    assert beta1_indices(Charlier(theta=1.0), 6) == (6, 5)
    mx1 = gram_block(Meixner(xi=0.25, beta_m=1.0), 4, 1, np.arange(10), "contour")
    ch1 = gram_block(Charlier(theta=1.0), 4, 1, np.arange(10), "contour")
    assert not np.allclose(mx1.S, ch1.S)


# ---------------------------------------------------------------------------
# printed formulas against the naive triple sum on a 64-node grid, and
# against the dense products (A C) B^T with the n x n Cauchy matrix C on
# finer grids.  Some of the printed forms cancel to 1e-16 of their terms, so
# the comparison is relative to the roundoff scale: the same sum over
# absolute values.

NAIVE_NODES = 64


def _circle(r, nodes=NAIVE_NODES):
    return r * np.exp(2j * np.pi * np.arange(nodes) / nodes)


def _naive(A, C, B):
    """(value, sum of absolute terms) of the triple sum: term by term on the
    64-node grid, as the dense matrix products on finer ones."""
    n = len(C)
    val, mag = (np.einsum("xi,ij,yj->xy", *ops, optimize=n > NAIVE_NODES) / n ** 2
                for ops in ((A, C, B), (abs(A), abs(C), abs(B))))
    return val.real, mag.real


def _naive_meixner(fam, N, xs, regime, dq=lambda W1, W2: 1.0, nodes=NAIVE_NODES):
    # the circles `_meixner_paper_kernel` states for each radius-product regime
    s = fam.s
    r1 = (2 * s + 1) / 3.0 if regime == "product<1" else max(0.95, (1.0 + s) / 2.0)
    r2 = (s + 2) / 3.0 if regime == "product<1" else 0.5 * (1.0 / r1 + 0.5 * (1.0 + 1.0 / s))
    w1, w2 = _circle(r1, nodes), _circle(r2, nodes)
    rows = lambda w: np.array([((1 - s / w) / (1 - s * w)) ** (2 * N) * w ** (2 * N - x)
                               for x in xs])
    W1, W2 = w1[:, None], w2[None, :]
    return _naive(rows(w1), dq(W1, W2) / (W1 * W2 - 1), rows(w2))


def _naive_nested(fam, N, xs, swap, m_func=None, nodes=NAIVE_NODES):
    from pfkern.kernels import _nested_radii
    inner, outer = (_circle(r, nodes) for r in _nested_radii(fam))
    t1, t2 = (inner, outer) if swap else (outer, inner)
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


def _printed_cases(n=NAIVE_NODES):
    mx, ch, kr = FAMS
    m_mx = lambda z: symbol(mx, z)
    printed = lambda W1, W2: (W2 - W1) / ((W1 ** 2 - 1) * (W2 ** 2 - 1))
    dq = lambda m: (lambda W1, W2: (m(W1) - m(W2)) / (W1 - W2))
    meixner = lambda xs, swap, m=None, numerator="difference-quotient": _meixner_paper_kernel(
        mx, 4, xs, swap, n, m, numerator)
    cases = {
        "meixner-paper": (lambda xs: meixner(xs, False),
                          lambda xs: _naive_meixner(mx, 4, xs, "product<1", nodes=n)),
        "meixner-swapped": (lambda xs: meixner(xs, True),
                            lambda xs: _naive_meixner(mx, 4, xs, "product>1", nodes=n)),
        "meixner-compose": (lambda xs: meixner(xs, False, m_mx),
                            lambda xs: _naive_meixner(mx, 4, xs, "product<1", dq(m_mx), n)),
        "meixner-compose-swapped": (
            lambda xs: meixner(xs, True, m_mx),
            lambda xs: _naive_meixner(mx, 4, xs, "product>1", dq(m_mx), n)),
        "meixner-compose-printed": (
            lambda xs: meixner(xs, False, m_mx, "printed"),
            lambda xs: _naive_meixner(mx, 4, xs, "product<1", printed, n)),
    }
    for fam in (ch, kr):
        m = lambda z, fam=fam: inverse_eps_symbol(fam, z)
        for swap in (False, True):
            variant = "paper-swapped" if swap else "paper"
            cases[f"{fam.name}-{variant}"] = (
                lambda xs, fam=fam, s=swap: _printed_nested_kernel(fam, 4, xs, s, n),
                lambda xs, fam=fam, s=swap: _naive_nested(fam, 4, xs, s, nodes=n))
            cases[f"{fam.name}-compose-{variant}"] = (
                lambda xs, fam=fam, s=swap, m=m: _printed_nested_kernel(fam, 4, xs, s, n, m),
                lambda xs, fam=fam, s=swap, m=m: _naive_nested(fam, 4, xs, s, m, n))
        cases[f"{fam.name}-dual"] = (
            lambda xs, fam=fam: _dual_kernel(fam, 4, xs, n),
            lambda xs, fam=fam: _naive_dual(fam, 4, xs))
    return cases


PRINTED_CASES = _printed_cases()


@pytest.mark.parametrize("case", sorted(PRINTED_CASES))
def test_printed_formula_matches_naive_triple_sum(case):
    fast, naive = PRINTED_CASES[case]
    xs = np.arange(0, 14)
    ref, mag = naive(xs)
    assert np.all(np.abs(fast(xs) - ref) <= 1e-13 * mag)


# the dual form is not a printed formula: its circles are not concentric
PRINTED_512 = {k: v for k, v in _printed_cases(512).items() if not k.endswith("-dual")}


@pytest.mark.parametrize("case", sorted(PRINTED_512))
def test_printed_formula_matches_dense_cauchy_matrix_at_512_nodes(case):
    fast, dense = PRINTED_512[case]
    xs = np.arange(0, 9)
    ref, mag = dense(xs)
    assert np.all(np.abs(fast(xs) - ref) <= 1e-13 * mag)


@pytest.mark.parametrize("call", ["projection", "composition"])
def test_printed_formula_builds_no_cauchy_matrix(traced_peak, call):
    # a dense 1024-node Cauchy matrix alone is 16 MB, a 512-node one 4 MB
    mx = Meixner(xi=0.45, beta_m=1.0)
    run = {"projection": lambda: _meixner_paper_kernel(mx, 8, range(29), True, 1024),
           "composition": lambda: _meixner_paper_kernel(mx, 6, np.arange(23), False, 512,
                                                        lambda z: symbol(mx, z))}[call]
    run()      # node tables and contour radii are cached on the first call
    out, peak = traced_peak(run)
    assert np.all(np.isfinite(out))
    assert peak < 4 * 2 ** 20


def _dense_scores(fam):
    """Printed candidates of both adjudicators from the dense references at the
    adjudicators' node counts, scored against the same oracle."""
    from pfkern.kernels import _max_rel
    out = {}
    xs = np.arange(0, min(3 * 8 + 5, fam.M + 1 if fam.finite else 10 ** 9))
    K = oracle_block(fam, 8, 4, xs).K
    if fam.name == "meixner":
        for regime in ("product<1", "product>1"):
            out[f"paper {regime}"] = _naive_meixner(fam, 8, xs, regime, nodes=1024)[0]
    else:
        for swap, name in ((False, "paper"), (True, "paper-swapped")):
            out[name] = _naive_nested(fam, 8, xs, swap, nodes=1024)[0]
    proj = {k: _max_rel(v, K) for k, v in out.items()}
    window = np.arange(0, min(3 * 6 + 5, fam.M + 1 if fam.finite else 10 ** 9))
    S = oracle_block(fam, 6, 4, window).S
    comp = {}
    ms = {"printed-symbol": lambda z: symbol(fam, z),
          "inverse-symbol": lambda z: inverse_eps_symbol(fam, z)}
    for name, swap in (("paper printed-symbol", False), ("paper swapped", True),
                       ("paper inverse-symbol", False), ("paper inverse-symbol swapped", True)):
        m = ms["inverse-symbol" if "inverse" in name else "printed-symbol"]
        dq = lambda W1, W2, m=m: (m(W1) - m(W2)) / (W1 - W2)
        with np.errstate(all="ignore"):
            Sc = (_naive_meixner(fam, 6, window, "product>1" if swap else "product<1", dq, 512)
                  if fam.name == "meixner" else _naive_nested(fam, 6, window, swap, m, 512))[0]
        comp[name] = _max_rel(Sc, S) if np.all(np.isfinite(Sc)) else np.inf
    if fam.name == "meixner":
        printed = lambda W1, W2: (W2 - W1) / ((W1 ** 2 - 1) * (W2 ** 2 - 1))
        comp["paper printed-numerator"] = _max_rel(
            _naive_meixner(fam, 6, window, "product<1", printed, 512)[0], S)
    return proj, comp


ADJUDICATED = [Meixner(xi=0.25, beta_m=1.0), Meixner(xi=0.45, beta_m=1.0),
               Meixner(xi=0.64, beta_m=1.0), Charlier(theta=1.0), Charlier(theta=4.0),
               *(Krawtchouk(M=M, p=0.4) for M in (58, 60, 63, 64, 65))]


@pytest.mark.parametrize("fam", ADJUDICATED, ids=repr)
def test_adjudication_reports_match_the_dense_printed_forms(fam):
    # the FFT evaluation reassociates the dense trapezoid sums: every winner
    # and outcome stays, a decisive score moves by roundoff only, and a
    # roundoff-level winner stays at roundoff
    proj, comp = _dense_scores(fam)
    for rep, dense in ((adjudicate_projection(fam), proj), (adjudicate_composition(fam), comp)):
        dense = {**rep["candidates"], **dense}      # the dual form is not a printed one
        assert set(dense) == set(rep["candidates"])
        winner = min(dense, key=dense.get)
        assert rep["winner"] == winner
        for name, score in dense.items():
            if score >= 1e-6:
                assert abs(rep["candidates"][name] - score) <= 1e-9 * score, name
        if dense[winner] < 1e-10:
            assert rep["winner_error"] < 1e-10
        if "outcome" in rep:
            assert (rep["outcome"] == "match") == (dense[winner] < 1e-6)


@pytest.mark.parametrize("M", [58, 63, 64, 65])
def test_composition_winner_is_stable_under_roundoff(M):
    # the printed composition vanishes to roundoff here, so the two symbol
    # candidates tie at 1.0 and the first declared one is named; unrounded,
    # the last digits pick either, depending on the contraction order
    rep = adjudicate_composition(Krawtchouk(M=M, p=0.4))
    assert rep["candidates"]["paper printed-symbol"] == rep["candidates"]["paper inverse-symbol"]
    assert rep["winner"] == "paper printed-symbol"


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_validation_reads_the_projection_adjudication(monkeypatch, fam):
    # each printed candidate is evaluated once, by its adjudicator; validate's
    # contour-vs-direct invariant is the adjudicated (or, injected, the printed)
    # nesting's score and evaluates no kernel of its own
    import pfkern.kernels as kernels
    from pfkern.validate import run_validation
    calls = []
    for name in ("_meixner_paper_kernel", "_printed_nested_kernel", "_dual_kernel"):
        def counted(*args, _kernel=getattr(kernels, name), _name=name, **kw):
            calls.append(_name)
            return _kernel(*args, **kw)
        monkeypatch.setattr(kernels, name, counted)
    kernels.adjudicate_projection.cache_clear()
    kernels.adjudicate_composition.cache_clear()
    reports = run_validation(fam, False), run_validation(fam, wrong_nesting=True)
    proj, comp = adjudicate_projection(fam), adjudicate_composition(fam)
    assert len(calls) == len(proj["candidates"]) + len(comp["candidates"])
    adjudicated, printed = (("paper product>1", "paper product<1") if fam.name == "meixner"
                            else ("dual", "paper"))
    for rep, name in zip(reports, (adjudicated, printed)):
        item, = (i for i in rep["invariants"] if "contour vs direct" in i["name"])
        assert item["residual"] == proj["candidates"][name]


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
@pytest.mark.parametrize("beta", [1, 4])
@pytest.mark.parametrize("route", ["oracle", "contour"])
def test_lazy_inserted_blocks_match_eager_assembly(fam, beta, route):
    # SD and epsS read on demand equal the eager assembly over the whole
    # lattice: R D by the stencil, eps L^T by the prefix sums
    from pfkern.kernels import oracle_lattice
    from pfkern.lattice_ops import apply_d, apply_eps
    from pfkern.symbols import contour_rows
    from pfkern.wavefunctions import get_table
    N = 6
    blk = gram_block(fam, N, beta, default_window(fam, N), route)
    xs = blk.xs
    lat = oracle_lattice(fam, N, xs)
    r = rank_of(fam, N)
    phi = (get_table(fam, r + 1, None if fam.finite else lat.x_max).phi[:, :lat.size]
           if route == "oracle" else contour_rows(fam, range(r + 1), np.arange(lat.size)))
    if beta == 4:
        L, E, R = phi[:r], phi[:r] @ apply_eps(fam, phi[:r].T), phi[:r]
    else:
        a, b = beta1_indices(fam, N)
        E = np.eye(r + 1)
        E[-1, -1] = 0.5
        L, R = np.vstack([phi[:r], phi[a]]), np.vstack([phi[:r], apply_eps(fam, phi[b])])
    SD = L[:, xs].T @ (E @ (-apply_d(fam, R.T).T)[:, xs])
    epsS = apply_eps(fam, L.T)[xs] @ (E @ R[:, xs])
    for got, ref in ((blk.SD, SD), (blk.epsS, epsS)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
