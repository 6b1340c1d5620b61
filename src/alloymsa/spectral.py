"""Symmetric eigensolves, eigenvalue counting, lattice Green's functions
and eigenvector decay fits for the multiscale analysis.

Each query uses the cheapest exact form of the stencil-stored
`BoxOperator` (n sites, w = `box.strides[0]` per slice along axis 0,
L = n / w slices); none of the counts forms an n x n array.

- Eigenvalue counts at d >= 2 (w > 1) run the slice recursion: a block
  LDL^T of H - E along axis 0, whose inertia is that of H - E (its
  S_k^{-1} are the left-connected Green's functions of the recursive
  Green's function method).  It costs O(L w^3) flops and O(w^2 + n)
  memory per energy: each Schur complement is factored and inverted in
  place in one of two w x w buffers, the in-slice block is built once per
  box (`Box.slice_block`), and the inertia of every trusted slice is read
  from its kept pivots in one step after the loop.  A Schur complement
  that is singular to working precision, as when an endpoint sits on an
  eigenvalue, gets +0 eigenvalues, which keeps the interval closed; one
  that is merely ill-conditioned hands the count to the banded path.
- Eigenvalue counts at d = 1 (w = 1), and the fallback above, run banded
  LAPACK bisection on the upper band storage: O(n^2 w) flops for the
  reduction to tridiagonal form and (w + 1) n doubles.
- Full spectra and eigenvectors come from dense LAPACK working in place
  on one n x n buffer, O(n^3) flops, and every returned eigenpair's
  residual is checked with the stencil product, relative to
  max(1, max|diagonal|).  Nothing is cached: a caller asks all its
  energies in one call.  Two LAPACK solvers serve
  two kinds of query.  `eigensolve`, whose callers read eigenvalues or
  the lowest few eigenvectors one by one (`decay` fits each), follows the
  relatively robust representations solver (dsyevr, scipy's default): the
  basis it picks inside a cluster of close eigenvalues fixes the
  published decay rates.  A values-only solve and a vector solve at
  n <= 512 call dsyevr itself.  Past n = 512 a solve for the lowest k
  eigenvectors runs dsyevr's own steps: dsytrd, then dstemr's (dlarrr,
  dlarre, dlarrv), then the back-transform dormtr, the last four called
  through the function pointers of scipy's Cython LAPACK API.  dlarrv
  (MRRR, Dhillon & Parlett 2004) computes only a leading block of the
  tridiagonal eigenvectors, up to a singleton of its representation tree
  past the first W, and dormtr back-transforms W = min(n, 256 ceil((k +
  16) / 256)) of them: for `decay`'s benchmark box and k = 3, about 260
  of 1681 vectors and 256 columns.  dsyevr itself also takes the vector
  solves these steps leave out: a matrix it would scale first (max|H|
  outside [_RMIN, _RMAX], for a box operator only at |v| > 8e76) and a
  failed dstemr.  With one BLAS thread the k eigenpairs are bit for bit
  dsyevr's (see `eigensolve`).  The Green's
  functions use the divide-and-conquer solver (dsyevd, Gu & Eisenstat
  1995), faster at every box size the probes run, with a workspace that
  takes a solve from about 2n^2 to about 3n^2 doubles: G(E) =
  V diag(1/(lambda - E)) V^T is the same for every orthonormal basis of a
  cluster, so the solver changes no result beyond rounding.  `boundary_greens` is the one implementation of the boundary
  Green's functions: it answers a grid of K energies with one
  eigendecomposition and one matrix product, G(E_k; source, w) for every
  interior-boundary site w from V[boundary] (V[source, :, None] /
  (lambda[:, None] - E[None, :])), so a Monte-Carlo realization costs one
  dense build from the band, one solve and O(n K) array work.
- A decay fit and the decay plot read the same shells of an eigenvector,
  picked by `decay_shells`."""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack

from .errors import FitError, ParameterError, ResonantEnergyError, SolverError
from .lattice import Box, BoxOperator, Point

RESONANCE_GUARD = 1e-12
# shells whose max |psi| is not above this are left out of decay fits
# and of the decay plot (see `decay_shells`)
SHELL_FLOOR = 1e-14
RESIDUAL_CONTRACT = 1e-10
# eigenvector columns per stencil product in the residual check
RESIDUAL_BLOCK = 128
# largest g * max|S_k^{-1}| the slice recursion accepts, g a bound on
# ||H - E||; past it the rounding of S_{k+1} could decide the count
SCHUR_GROWTH_LIMIT = 2.0 ** 20

_sytrf = scipy.linalg.lapack.dsytrf
_sytri = scipy.linalg.lapack.dsytri
_sytrd = scipy.linalg.lapack.dsytrd
_stemr = scipy.linalg.lapack.dstemr
_syevr_lwork = scipy.linalg.lapack.dsyevr_lwork
# dsyevr scales a matrix with max|H| outside [RMIN, RMAX] into it before
# the reduction; a vector solve leaves such a matrix to dsyevr itself
_SAFMIN = float(scipy.linalg.lapack.dlamch("S"))
_EPS = float(scipy.linalg.lapack.dlamch("P"))
_SMLNUM = _SAFMIN / _EPS
_RMIN = math.sqrt(_SMLNUM)
_RMAX = min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(_SAFMIN)))
# dormqr's workspace for its block reflector T (LDT * NBMAX = 65 * 64)
_ORMQR_TSIZE = 4160
# dstemr's parameters of dlarre and dlarrv when it computes vectors: the
# bisection tolerances, the splitting threshold (-eps: split on absolute
# size, as without relative accuracy) and the relative gap that separates
# clusters in the representation tree
_RTOL1 = math.sqrt(_EPS)
_RTOL2 = max(math.sqrt(_EPS) * 5e-3, 4.0 * _EPS)
_MINRGP = 1e-3
# largest max(|d|, |e|) of a tridiagonal matrix whose eigenvectors are
# computed for a leading block only; a larger one runs dstemr whole
_MRRR_MAX_NORM = 1e10
# largest n whose vector solve dsyevr itself runs, computing and
# back-transforming all n tridiagonal eigenvectors (see `_lowest_eigenpairs`)
_FULL_WIDTH_MAX = 512


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _capsule_routine(name: str):
    """LAPACK routine `name` from the function pointers of scipy's Cython
    LAPACK API, the library scipy.linalg.lapack calls; it takes every
    argument as a pointer, its count read from the capsule's C signature."""
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    arguments = [ctypes.c_void_p] * (signature.count(b",") + 1)
    return ctypes.CFUNCTYPE(None, *arguments)(
        _capsule_pointer(capsule, signature))


_larrr = _capsule_routine("dlarrr")
_larre = _capsule_routine("dlarre")
_larrv = _capsule_routine("dlarrv")
_ormtr = _capsule_routine("dormtr")


@dataclass(frozen=True)
class SpectrumResult:
    """The spectrum, ascending, and the lowest eigenvectors as the columns
    of an orthonormal n x k matrix.  A values-only solve holds every
    eigenvalue and no vectors; a solve for k vectors holds the k
    eigenvalues they belong to."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual: float


def eigensolve(op: BoxOperator, vectors: int = 0) -> SpectrumResult:
    """Every eigenvalue of the box operator, ascending, for vectors = 0;
    the lowest k = `vectors` (1 <= k <= n) eigenvalues and their
    eigenvectors otherwise.

    The dense matrix is built and handed to LAPACK as its F-contiguous
    transpose (equal to it, by symmetry), which the solve overwrites
    without a copy.  With vectors = 0, dsyevr computes the eigenvalues
    alone (by dsterf, so they can differ in the last bits from those of a
    vector solve).  Otherwise, past n = _FULL_WIDTH_MAX = 512,
    `_lowest_eigenpairs` runs dsyevr's own steps, computes the tridiagonal
    eigenvectors of a leading block only and back-transforms W of them.
    dsyevr itself solves a fresh matrix where `_lowest_eigenpairs` returns
    None: at n <= 512, where dsyevr would scale the matrix first (every
    box operator with n >= 2 has a bond, so max|H| >= 1), and where dstemr
    fails (dsyevr's own fallback).  At one BLAS thread the k eigenvalues
    and eigenvectors are bit for bit those of scipy.linalg.eigh (dsyevr,
    every eigenpair); ask for k = n to get the whole spectrum of a vector
    solve.  The residual
    max_j ||H v_j - lambda_j v_j|| / max(1, max_x |H_xx|), the maximum over
    the returned columns, must not exceed RESIDUAL_CONTRACT.  Its
    normaliser needs no eigenvalue past the k returned: max_x |H_xx| <=
    ||H|| <= 2d + max_x |H_xx|, as every bond is -1, so the gate is at
    most 2d + 1 times stricter than one relative to max(1, ||H||)."""
    n = op.box.count
    if isinstance(vectors, bool) or not isinstance(vectors, (int, np.integer)) \
            or not 0 <= vectors <= n:
        raise ParameterError(f"vectors must be an integer in [0, {n}], "
                             f"got {vectors!r}")
    if not vectors:
        evals = scipy.linalg.eigh(op.matrix.T, eigvals_only=True,
                                  overwrite_a=True)
        return SpectrumResult(eigenvalues=np.asarray(evals), eigenvectors=None,
                              residual=0.0)
    found = _lowest_eigenpairs(op.matrix.T, int(vectors))
    if found is None:  # n <= 512, a scaled H or a failed dstemr: dsyevr itself
        evals, evecs = scipy.linalg.eigh(op.matrix.T, overwrite_a=True)
        found = evals[:vectors].copy(), evecs[:, :vectors].copy()
    evals, evecs = found
    return SpectrumResult(eigenvalues=evals, eigenvectors=evecs,
                          residual=_checked_residual(op, evals, evecs))


def _lowest_eigenpairs(H: np.ndarray, k: int
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """The k lowest eigenvalues and their eigenvectors of the symmetric
    F-contiguous matrix `H`, which this overwrites, by the steps LAPACK's
    dsyevr takes for all eigenpairs of a lower triangle.  None, leaving H
    as it is, at n <= _FULL_WIDTH_MAX = 512 and where max|H| lies outside
    [_RMIN, _RMAX] (dsyevr scales H first); None too where dstemr fails,
    as dsyevr then falls back to bisection and inverse iteration.

    1. dsytrd reduces H to tridiagonal form in place, with dsyevr's
       workspace (its lwork less 5n), which fixes dsytrd's block size;
    2. `_leading_tridiagonal_pairs` runs dstemr's steps for the
       tridiagonal eigenvectors of a leading block that holds the first W;
       where dstemr takes another route, dstemr itself (range 'A') finds
       all n into an n x n array;
    3. dormtr('L') back-transforms the first W of them in place, with
       the block size dsyevr's workspace (its lwork less 2n, for n
       columns) gives the dormqr that dormtr calls.

    W = min(n, 256 ceil((k + 16) / 256)).  The back-transform of a column
    depends on the block's width through OpenBLAS's GEMM: the last W mod
    12 rows of a product and its small-matrix path round differently.  On
    the random symmetric matrices A + A^T, A standard normal from
    default_rng(n), with scipy's OpenBLAS 0.3.30 at one thread, the
    256-wide block missed dsyevr's k columns at 101 of the n in 267..415
    (k = 3 at 21 of them, in 267..293) and matched them at every n from
    416 to 900, for k = 1, 3, 112 and 240; hence dsyevr itself up to 512,
    where these steps also saved no time.  With more BLAS threads dsyevr's
    vectors themselves change with the thread count.  A nonzero info of
    dsytrd or dormtr raises SolverError."""
    n = H.shape[0]
    if n <= _FULL_WIDTH_MAX or \
            not _RMIN <= max(float(H.max()), -float(H.min())) <= _RMAX:
        return None
    lwork = int(_syevr_lwork(n, lower=1)[0])
    H, d, e, tau, info = _sytrd(H, lower=1, lwork=lwork - 5 * n,
                                overwrite_a=1)
    _check_info("dsytrd", info)
    # dstemr reads e[n - 1] as workspace
    e = np.append(e, 0.0)
    width = min(n, 256 * -(-(k + 16) // 256))
    found = _leading_tridiagonal_pairs(d, e, width)
    if found is None:  # range 0 is 'A'
        m, evals, Z, info = _stemr(d, e, 0, 0.0, 0.0, 0, 0)
        if info or m != n:
            return None
    else:
        evals, Z = found
    block = (lwork - 2 * n - _ORMQR_TSIZE) // n
    work = np.empty(block * width + _ORMQR_TSIZE if block >= 2 else width)
    ref = ctypes.byref
    n_, width_, info = ctypes.c_int(n), ctypes.c_int(width), ctypes.c_int(0)
    lwork_ = ctypes.c_int(work.size)
    _ormtr(b"L", b"L", b"N", ref(n_), ref(width_), H.ctypes.data, ref(n_),
           tau.ctypes.data, Z.ctypes.data, ref(n_), work.ctypes.data,
           ref(lwork_), ref(info))
    _check_info("dormtr", info.value)
    return evals[:k].copy(), Z[:, :k].copy()


def _leading_tridiagonal_pairs(d: np.ndarray, e: np.ndarray, width: int
                               ) -> tuple[np.ndarray, np.ndarray] | None:
    """dstemr's eigenvalues and eigenvectors of the symmetric tridiagonal
    matrix with diagonal `d` and subdiagonal e[:n - 1], bit for bit, for
    its first m >= `width` eigenpairs (m > `width` where m < n); None
    where dstemr would take another route, or a step fails.  `d` and `e`
    are left as they are.

    dstemr (range 'A', with vectors, n > 2) scales a matrix with
    max(|d|, |e|) outside [_RMIN, _RMAX].  Then it
    1. asks dlarrr whether the matrix warrants relatively accurate
       eigenvalues (scipy's wrapper passes TRYRAC); if so it splits on
       relative size and refines the eigenvalues by dlarrj;
    2. has dlarre split the matrix, pick a root representation
       L D L^T = T - sigma I and find every eigenvalue of it by dqds (in e
       comes back L, with sigma in e[n - 1]); it sorts across blocks when
       there is more than one;
    3. has dlarrv compute the eigenvectors down the representation tree,
       whose root has a child boundary after eigenvalue j where the gap
       to j + 1 is at least _MINRGP |lambda_j - sigma|.
    This runs 1-3 and returns None on every other route: a relatively
    accurate matrix, a split, max(|d|, |e|) outside [_RMIN, _MRRR_MAX_NORM].

    dlarrv's own index range DOL:DOU (some of its M vectors) turns off its
    Rayleigh-quotient correction and changes its tolerance, which moves
    the last bits of the vectors.  Instead it gets only the first m
    eigenvalues, as if the spectrum ended there, m - 1 the first root
    singleton at or past `width` (counting from 1).  A root child is
    computed from its own eigenvalues and gaps and those of its two
    neighbours, so every vector up to the singleton m - 1 comes out as in
    the full run; vector m, now the last, has its right gap forced small.
    A spectrum with no such singleton runs whole.  Only the first m
    columns of Z are allocated.  A failure of dlarrv past m goes unseen,
    where dsyevr would fall back to bisection; dstemr failed on about a
    third of the random symmetric matrices tried with max(|d|, |e|) of
    2.5e13 and more and on none of 160 up to 7.6e12, hence the cap."""
    n = d.size
    tnrm = max(float(np.max(np.abs(d))), float(np.max(np.abs(e[:-1]))))
    if not _RMIN <= tnrm <= _MRRR_MAX_NORM:
        return None
    d, e = d.copy(), e.copy()
    ref = ctypes.byref
    n_, info = ctypes.c_int(n), ctypes.c_int(0)
    _larrr(ref(n_), d.ctypes.data, e.ctypes.data, ref(info))
    if info.value == 0:
        return None
    e2 = np.zeros(n)
    np.square(e[:-1], out=e2[:-1])
    vl, vu, pivmin = ctypes.c_double(), ctypes.c_double(), ctypes.c_double()
    rtol1, rtol2 = ctypes.c_double(_RTOL1), ctypes.c_double(_RTOL2)
    thresh, minrgp = ctypes.c_double(-_EPS), ctypes.c_double(_MINRGP)
    nsplit, m, zero = ctypes.c_int(), ctypes.c_int(), ctypes.c_int(0)
    isplit, iblock, indexw = (np.zeros(n, np.intc) for _ in range(3))
    w, werr, wgap = (np.zeros(n) for _ in range(3))
    gers, work = np.zeros(2 * n), np.zeros(12 * n)
    iwork = np.zeros(7 * n, np.intc)
    _larre(b"A", ref(n_), ref(vl), ref(vu), ref(zero), ref(zero),
           d.ctypes.data, e.ctypes.data, e2.ctypes.data, ref(rtol1),
           ref(rtol2), ref(thresh), ref(nsplit), isplit.ctypes.data, ref(m),
           w.ctypes.data, werr.ctypes.data, wgap.ctypes.data,
           iblock.ctypes.data, indexw.ctypes.data, gers.ctypes.data,
           ref(pivmin), work.ctypes.data, iwork.ctypes.data, ref(info))
    if info.value or nsplit.value != 1 or m.value != n:
        return None
    boundary = wgap[:-1] >= _MINRGP * np.abs(w[:-1])
    singleton = boundary & np.append(True, boundary[:-1])
    after = np.flatnonzero(singleton[width - 1:])
    m.value = width + 1 + int(after[0]) if after.size else n
    Z = np.empty((n, m.value), order="F")
    isuppz = np.empty(2 * n, np.intc)
    first = ctypes.c_int(1)
    # DOL:DOU = 1:m, all of the m eigenvalues it is given
    _larrv(ref(n_), ref(vl), ref(vu), d.ctypes.data, e.ctypes.data,
           ref(pivmin), isplit.ctypes.data, ref(m), ref(first), ref(m),
           ref(minrgp), ref(rtol1), ref(rtol2), w.ctypes.data,
           werr.ctypes.data, wgap.ctypes.data, iblock.ctypes.data,
           indexw.ctypes.data, gers.ctypes.data, Z.ctypes.data, ref(n_),
           isuppz.ctypes.data, work.ctypes.data, iwork.ctypes.data, ref(info))
    if info.value:
        return None
    return w[:m.value], Z


def _check_info(routine: str, info: int) -> None:
    if info:
        raise SolverError(f"LAPACK {routine} failed with info {info}")


def _green_eigenpairs(op: BoxOperator, H: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of the box
    operator for its Green's functions, from LAPACK dsyevd working in place
    on `H`, an F-contiguous buffer holding the dense matrix of `op` that
    the solve overwrites.  The residual contract of `eigensolve` is checked
    on every column."""
    evals, evecs = scipy.linalg.eigh(H, overwrite_a=True, driver="evd")
    _checked_residual(op, evals, evecs)
    return evals, evecs


def _checked_residual(op: BoxOperator, evals: np.ndarray,
                      evecs: np.ndarray) -> float:
    """max_j ||H v_j - lambda_j v_j|| / max(1, max_x |H_xx|) over the
    columns v_j of `evecs`, the eigenvectors of the first eigenvalues in
    `evals`, with H_xx the diagonal of the operator (see `eigensolve`),
    from stencil products on RESIDUAL_BLOCK columns at a time; SolverError
    when it exceeds RESIDUAL_CONTRACT."""
    worst = 0.0
    for j in range(0, evecs.shape[1], RESIDUAL_BLOCK):
        V = evecs[:, j:j + RESIDUAL_BLOCK]
        r = op @ V - V * evals[j:j + V.shape[1]]
        worst = max(worst, float(np.max(np.linalg.norm(r, axis=0))))
    residual = worst / max(1.0, float(np.max(np.abs(op.diagonal))))
    if residual > RESIDUAL_CONTRACT:
        raise SolverError(f"eigensolver residual {residual:.3e} exceeds 1e-10")
    return residual


def checked_interval(interval) -> tuple[float, float]:
    """The endpoints (E1, E2) of a closed energy interval, as floats.

    Raises ParameterError unless `interval` holds exactly two finite real
    numbers with E1 <= E2: a NaN endpoint fails every comparison, so a
    count would silently find nothing."""
    try:
        e1, e2 = interval
    except (TypeError, ValueError):
        e1 = e2 = None
    if not all(isinstance(e, (int, float, np.integer, np.floating))
               for e in (e1, e2)):
        raise ParameterError(f"interval must be two numbers, got {interval!r}")
    e1, e2 = float(e1), float(e2)
    if not (np.isfinite(e1) and np.isfinite(e2)):
        raise ParameterError(f"interval endpoints must be finite, got {interval!r}")
    if e1 > e2:
        raise ParameterError("interval endpoints out of order")
    return e1, e2


def count_eigenvalues_in(op: BoxOperator, interval: tuple[float, float]) -> int:
    """Number of eigenvalues in the closed interval [E1, E2] = Tr P_[E1,E2].

    At d >= 2 (w = box.strides[0] > 1) it is n - #{lambda > E2} -
    #{lambda < E1}, both strict counts from the slice recursion, at
    O(L w^3) flops and O(w^2 + n) memory.  At d = 1, or when the recursion
    meets a Schur complement too close to singular to trust, it is banded
    LAPACK bisection on the half-open (vl, vu] = (the double just below
    E1, E2], at O(n^2 w) flops and (w + 1) n doubles."""
    e1, e2 = checked_interval(interval)
    if op.box.strides[0] > 1:
        block = op.box.slice_block
        below = _count_negative(op, block, e1, 1.0)
        above = None if below is None else _count_negative(op, block, e2, -1.0)
        if above is not None:
            return int(op.box.count - above - below)
    evals = scipy.linalg.eigvals_banded(
        op.upper_band(), select="v",
        select_range=(np.nextafter(e1, -np.inf), e2))
    return len(evals)


def _count_negative(op: BoxOperator, block: np.ndarray, E: float,
                    sign: float) -> int | None:
    """#{negative eigenvalues of sign (H - E)}, that is #{lambda < E} for
    sign 1 and #{lambda > E} for sign -1, by block LDL^T along axis 0; None
    when a Schur complement is too close to singular to trust.

    With A_k the diagonal blocks and -I the couplings, the Schur
    complements are S_0 = sign (A_0 - E) and S_k = sign (A_k - E) -
    S_{k-1}^{-1}, and by Haynsworth's inertia additivity the count is the
    sum over k of the negative eigenvalues of S_k.  S_k is built in one of
    two w x w buffers, taken in turn, so that S_{k-1}^{-1} in the other
    survives until S_k is trusted.  Bunch-Kaufman (LAPACK sytrf on the
    upper triangle; `block`, the in-slice part, is upper triangular, so
    the strict lower triangles stay 0) factors S_k in place, and sytri
    turns the factors into S_k^{-1} in place.  The factorization is
    trusted when S_k is nonsingular and g max|S_k^{-1}| <=
    SCHUR_GROWTH_LIMIT, with g = max|diagonal - E| + 2d >= ||H - E||;
    otherwise S_k is built again and `_singular_step` redoes the slice.
    The pivots and the factor's diagonal of each trusted slice are kept,
    and their inertia is read once, after the loop: a 1x1 pivot carries
    its sign, a 2x2 pivot (two negative pivot entries) has a negative
    determinant, so one eigenvalue of each sign.  The two signs run the
    same arithmetic negated, so a zero pivot at E1 = E2 counts on neither
    side: the interval stays closed."""
    w = op.box.strides[0]
    shifted = sign * (op.diagonal.reshape(-1, w) - E)
    g = float(np.max(np.abs(shifted))) + 2.0 * op.dimension
    signed_block = sign * block
    buffers = [np.zeros((w, w), order="F") for _ in range(2)]
    on_diagonal = [b.ravel(order="F")[::w + 1] for b in buffers]  # views
    inverse = buffers[1]  # S_{-1}^{-1} = 0
    # a slice left to `_singular_step` keeps zero pivots: no 1x1, no 2x2
    pivots = np.zeros(shifted.shape, np.intc)
    diagonals = np.empty(shifted.shape)
    null = np.zeros((w, 0))
    negative = 0
    for k, d_k in enumerate(shifted):
        i = inverse is buffers[0]  # the buffer not holding S_{k-1}^{-1}
        S = buffers[i]
        np.subtract(signed_block, inverse, out=S)
        on_diagonal[i] += d_k
        if not null.shape[1]:
            factor, ipiv, info = _sytrf(S, overwrite_a=1)
            if not info:
                diagonals[k] = factor.diagonal()
                X, info = _sytri(factor, ipiv, overwrite_a=1)
                if not info and g * np.abs(X).max() <= SCHUR_GROWTH_LIMIT:
                    pivots[k] = ipiv
                    inverse = X
                    continue
            # sytrf and sytri overwrote S_k: build it again
            np.subtract(signed_block, inverse, out=S)
            on_diagonal[i] += d_k
        step = _singular_step(S, null, g)
        if step is None:
            return None
        n_negative, inverse, null = step
        negative += n_negative
    return negative + np.count_nonzero(pivots < 0) // 2 + \
        np.count_nonzero(diagonals[pivots > 0] < 0)


def _singular_step(S: np.ndarray, null: np.ndarray, g: float):
    """One slice of `_count_negative` by eigendecomposition, for an S_k
    that is (nearly) singular or minus infinity along the orthonormal
    columns of `null`.  Returns (negative eigenvalues, S_k^{-1}, null
    directions of S_k), or None when S_k has an eigenvalue neither zero to
    working precision nor larger than g / SCHUR_GROWTH_LIMIT in modulus.

    A zero eigenvalue (|mu| <= w u max(g, |mu|)) is taken as +0: the count is
    that of S_k + eps P for eps -> 0+, P the projector on its eigenvectors,
    a semidefinite shift that keeps strict counts strict.  In that limit
    S_k^{-1} is the inverse on the other eigenvectors, and S_{k+1} is minus
    infinity along the zero ones: one negative eigenvalue each, the rest
    of S_{k+1} being its compression to their complement."""
    w = S.shape[0]
    S = S + np.triu(S, 1).T  # the strict lower triangle of S is 0
    m = null.shape[1]
    basis = np.linalg.qr(null, mode="complete")[0][:, m:] if m else np.eye(w)
    mu, vectors = np.linalg.eigh(basis.T @ S @ basis)
    vectors = basis @ vectors
    zero = np.abs(mu) <= w * np.finfo(float).eps * np.max(np.abs(mu), initial=g)
    if np.any(~zero & (np.abs(mu) * SCHUR_GROWTH_LIMIT < g)):
        return None
    kept = vectors[:, ~zero]
    inverse = np.triu((kept / mu[~zero]) @ kept.T)
    return m + np.count_nonzero(mu[~zero] < 0), inverse, vectors[:, zero]


def greens_column(op: BoxOperator, E: float, source: Point) -> np.ndarray:
    """Column G(E; ., source) of (H - E)^{-1} from the eigenpairs of one
    dsyevd solve: V (V[source, :] / (lambda - E)).

    E within RESONANCE_GUARD of an eigenvalue raises ResonantEnergyError.
    """
    evals, V = _green_eigenpairs(op, op.matrix.T)
    gaps = evals - E
    if np.min(np.abs(gaps)) < RESONANCE_GUARD:
        raise ResonantEnergyError(
            f"E={E!r} within {RESONANCE_GUARD:g} of an eigenvalue of the box operator"
        )
    return V @ (V[op.box.index_of(tuple(source))] / gaps)


@dataclass(frozen=True)
class BoundaryGreens:
    """Boundary Green's functions of one operator on an energy grid.

    `magnitude[j, k]` is |G(E_k; source, w_j)| for the interior-boundary
    sites w_j, whose flat indices `Box.interior_boundary_indices` lists
    in ascending order, `distance[k]` is
    d(E_k) = min |lambda - E_k|, and `resonant[k]` says d(E_k) <
    RESONANCE_GUARD; the column of a resonant energy holds 0."""

    magnitude: np.ndarray
    distance: np.ndarray
    resonant: np.ndarray


def boundary_greens(op: BoxOperator, source: Point, energies) -> BoundaryGreens:
    """|G(E_k; source, w)| for every interior-boundary site w and every
    energy E_k, from one dsyevd solve of op's matrix and one matrix
    product: V[boundary] (V[source, :, None] / (lambda[:, None] -
    E[None, :]))."""
    evals, V = _green_eigenpairs(op, op.matrix.T)
    gaps = evals[:, None] - np.asarray(energies, dtype=float)[None, :]
    distance = np.min(np.abs(gaps), axis=0)
    resonant = distance < RESONANCE_GUARD
    gaps[:, resonant] = np.inf
    coefficients = V[op.box.index_of(tuple(source))][:, None] / gaps
    green = V[op.box.interior_boundary_indices] @ coefficients
    return BoundaryGreens(np.abs(green), distance, resonant)


def shell_maxima(psi: np.ndarray, box: Box, center) -> dict[int, float]:
    """r -> max |psi(x)| over the sites x of `box` with ||x - center||_inf = r."""
    radii = np.max(np.abs(box.points - np.asarray(center)), axis=1).astype(int)
    shells = np.zeros(int(radii.max()) + 1)
    np.maximum.at(shells, radii, np.abs(psi))
    return {int(r): float(shells[r]) for r in np.unique(radii)}


def decay_shells(psi: np.ndarray, box: Box) -> dict[int, float]:
    """The shells a decay fit and the decay plot read, r -> max |psi(x)|
    over ||x - center||_inf = r, ascending in r: center is the site of
    max |psi| (the first, on a tie), and a shell whose max is not above
    SHELL_FLOOR is left out."""
    center = box.points[int(np.argmax(np.abs(psi)))]
    return {r: v for r, v in shell_maxima(psi, box, center).items()
            if v > SHELL_FLOOR}


def decay_fit(psi: np.ndarray, box: Box) -> tuple[float, float]:
    """Least-squares slope of log shell-max |psi| against ||x - center||_inf
    over the shells of `decay_shells`, and its r^2; fewer than 3 shells is
    a fit error."""
    shells = decay_shells(psi, box)
    if len(shells) < 3:
        raise FitError(f"only {len(shells)} usable shells for decay fit")
    xs = np.asarray([float(r) for r in shells])
    ys = np.asarray([np.log(v) for v in shells.values()])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)
