"""Small dense complex-matrix quantum mechanics.

States and POVMs are plain numpy complex arrays wrapped in thin containers
that validate their input once, when they are built, by one Hermitian/PSD
check that assemblages share.  A :class:`DensityStack` holds many states that
are validated together, and ``born_stats`` measures either one.  A POVM keeps
its effects as the one read-only (n, d, d) stack the Born rule reads.  An
observable is the POVM of its orthogonal eigenprojectors, with their
eigenvalues, so it serves wherever a POVM does; its matrix is derived from
them.  Every tr(E X) of the package on a state or operator stack X (Born,
joint and conditional statistics, steered operators, correlation tensors) is
one of this module's two einsum contractions; ``bounds.tensor_stats`` takes
pure-state statistics as one matmul.  Every matrix is limited to dimension
``MAX_DIM`` = 64, where a dense symmetric eigensolver is exact for all
practical purposes; the named state and basis builders check that limit
before they allocate.  The named measurement sets (``pauli_observable``,
``mub_bases``) and ``bell_phi_plus`` are built and validated once per process
and shared: every container here is a frozen dataclass over read-only arrays.
The qubit and qutrit ones are built when the module is imported, so the first
request of a process costs what every later one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import BadParameter, DimensionMismatch, NotHermitian
from .probvec import ProbVec, normalized_rows

HERM_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_MERGE_TOL = 1e-8    # eigenvalues closer than this share one projector
EFFECT_TOL = 1e-8       # POVM effects sum to I, and an observable's square to themselves
MAX_DIM = 64


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``."""
    a = np.array(a)
    a.setflags(write=False)
    return a


PAULI_I = _frozen(np.eye(2, dtype=complex))
PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
_PAULIS = _frozen([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def _as_square_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    _check_dim(a.shape[0])
    if not np.isfinite(a).all():
        raise BadParameter("matrix entries must be finite")
    return a


def _as_square_stack(s) -> np.ndarray:
    a = np.asarray(s, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty (N, d, d) stack, got shape {a.shape}")
    _check_dim(a.shape[1])
    if not np.isfinite(a).all():
        raise BadParameter("matrix entries must be finite")
    return a


def _check_dim(d: int) -> None:
    if d > MAX_DIM:
        raise BadParameter(f"dimension {d} exceeds the supported maximum {MAX_DIM}")


# _check_hermitian_psd works through a stack in chunks of at most this many
# matrix entries, so that its temporaries stay small next to the stack
_CHECK_ENTRIES = 2**18


def _hermitian_extremes(stack: np.ndarray) -> tuple[float, float]:
    """Largest entry of |A - A^dagger| and smallest eigenvalue of (A + A^dagger)/2 over a stack."""
    adjoint = stack.conj().swapaxes(-1, -2)
    return np.abs(stack - adjoint).max(), np.linalg.eigvalsh((stack + adjoint) / 2.0).min()


def _check_hermitian_psd(stack: np.ndarray, what: str) -> None:
    """Raise unless every matrix over the trailing two axes is Hermitian and PSD.

    Hermitian within ``HERM_TOL`` (checked first) and no eigenvalue below
    ``-PSD_TOL``, one batched ``eigvalsh`` per chunk of ``_CHECK_ENTRIES``;
    a stack that fits one chunk is checked whole.
    """
    d = stack.shape[-1]
    rows = max(1, _CHECK_ENTRIES // (d * d))
    if stack.size <= rows * d * d:
        deviation, wmin = _hermitian_extremes(stack)
    else:
        stack = stack.reshape(-1, d, d)
        extremes = np.array([_hermitian_extremes(stack[start:start + rows])
                             for start in range(0, len(stack), rows)])
        deviation, wmin = extremes[:, 0].max(), extremes[:, 1].min()
    if deviation > HERM_TOL:
        raise NotHermitian(f"{what} is not Hermitian within tolerance")
    if wmin < -PSD_TOL:
        raise BadParameter(f"{what} has negative eigenvalue {wmin:.3e}")


def _check_density(a: np.ndarray) -> None:
    """Raise unless every (finite) matrix is Hermitian, PSD and of trace one, in that order."""
    _check_hermitian_psd(a, "density matrix")
    trace = a.trace(axis1=-2, axis2=-1)
    bad = (np.abs(trace.real - 1.0) > TRACE_TOL) | (np.abs(trace.imag) > TRACE_TOL)
    if bad.any():
        raise BadParameter(f"density matrix trace {trace[bad].flat[0]:.12f} is not 1")


def _traces(effects: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The Born rule: Re tr(E_k X) = sum_ij E_kij X_ji, an (..., n) array for (..., d, d) X."""
    return np.einsum("kij,...ji->...k", effects, ops).real


def _steered(effects_a: np.ndarray, state: DensityState) -> np.ndarray:
    """Bob's operators tr_A((E_k (x) I) rho), one per Alice effect: an (n, db, db) stack.

    Joint probabilities tr((E_k (x) F_l) rho) are ``_traces(F, _steered(E, state))``.
    """
    da, db = state.dims
    # with r[a, b, c, d] = <a b| rho |c d>, element [b, d] is sum_ac E_k[a, c] r[c, b, a, d]
    return np.einsum("kac,cbad->kbd", effects_a, state.matrix.reshape(da, db, da, db))


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector onto the given (normalized) vector."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as orthonormal
    columns, so ``m = V diag(w) V^dagger``.
    """
    a = _as_square_complex(m)
    if np.max(np.abs(a - a.conj().T)) > HERM_TOL:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {np.max(np.abs(a - a.conj().T)):.3e}"
        )
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


@dataclass(frozen=True, eq=False)
class DensityState:
    """A density operator, optionally tagged with a bipartite factorization."""

    matrix: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        a = _as_square_complex(self.matrix)
        _check_density(a)
        if self.dims is not None:
            da, db = self.dims
            if da < 1 or db < 1 or da * db != a.shape[0]:
                raise DimensionMismatch(
                    f"factorization {self.dims} incompatible with dimension {a.shape[0]}"
                )
        object.__setattr__(self, "matrix", _frozen(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityStack:
    """An (N, d, d) stack of density operators, validated as one batch.

    Every matrix passes the checks of :class:`DensityState`; the stack is
    stored as a read-only copy.
    """

    matrices: np.ndarray

    def __post_init__(self):
        a = _as_square_stack(self.matrices)
        _check_density(a)
        object.__setattr__(self, "matrices", _frozen(a))

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measurement: effects summing to the identity.

    The effects are kept as one read-only (n, d, d) stack, the form the Born rule reads.
    """

    effects: np.ndarray
    outcome_labels: tuple[str, ...]

    def __post_init__(self):
        effs = tuple(_as_square_complex(e) for e in self.effects)
        if len(effs) == 0:
            raise BadParameter("a POVM needs at least one effect")
        if len(self.outcome_labels) != len(effs):
            raise DimensionMismatch("one outcome label per effect is required")
        d = effs[0].shape[0]
        if any(e.shape[0] != d for e in effs):
            raise DimensionMismatch("all effects must share one dimension")
        labels = tuple(str(x) for x in self.outcome_labels)
        if len(set(labels)) != len(labels):
            raise BadParameter(f"POVM outcome labels must be distinct, got {labels}")
        stack = np.array(effs)
        _check_hermitian_psd(stack, "POVM effect")
        if np.abs(stack.sum(axis=0) - np.eye(d)).max() > EFFECT_TOL:
            raise BadParameter("POVM effects do not sum to the identity")
        stack.setflags(write=False)
        object.__setattr__(self, "effects", stack)
        object.__setattr__(self, "outcome_labels", labels)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @cached_property
    def fingerprint_bytes(self) -> bytes:
        """The dimension, then each label and effect: what a measurement fingerprint hashes.

        Built on first use and kept, since the POVM is immutable.
        """
        parts = [str(self.dim).encode()]
        for label, effect in zip(self.outcome_labels, self.effects):
            parts += [label.encode(), effect.tobytes()]
        return b"".join(parts)

    def effect_for(self, label: str) -> np.ndarray:
        return self.effects[_outcome_index(self, label)]


def _outcome_index(povm: Povm, label: str) -> int:
    try:
        return povm.outcome_labels.index(str(label))
    except ValueError:
        known = povm.outcome_labels
        raise BadParameter(f"unknown outcome {label!r}; known labels {known}") from None


@dataclass(frozen=True, eq=False, init=False)
class Observable(Povm):
    """A Hermitian observable: the POVM of its orthogonal eigenprojectors.

    ``effects`` are the eigenprojectors in order of descending eigenvalue;
    outcome labels default to the eigenvalues to 12 significant digits, or
    in full where two agree in those.  On construction the effects are
    validated as a POVM and each must equal its own square within
    ``EFFECT_TOL``; effects that are PSD, sum to the identity and are
    idempotent are orthogonal projectors, so a nondegenerate observable's
    effects are rank one.  The matrix is derived from them.
    """

    eigenvalues: tuple[float, ...]

    def __init__(self, eigenvalues, effects, outcome_labels=()):
        eigenvalues = tuple(eigenvalues)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        default = tuple(f"{ev:.12g}" for ev in eigenvalues)
        if len(set(default)) < len(default):
            default = tuple(repr(float(ev)) for ev in eigenvalues)
        super().__init__(effects, tuple(outcome_labels) or default)
        if len(eigenvalues) != self.n_outcomes:
            raise DimensionMismatch(f"{len(eigenvalues)} eigenvalues for {self.n_outcomes} effects")
        if np.abs(self.effects @ self.effects - self.effects).max() > EFFECT_TOL:
            raise BadParameter("observable effects must be projectors")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only matrix sum_k eigenvalue_k E_k, built on first use in eigenvalue order."""
        return _frozen(sum(ev * e for ev, e in zip(self.eigenvalues, self.effects)))

    @property
    def nondegenerate(self) -> bool:
        return len(self.eigenvalues) == self.dim

    def povm(self) -> Povm:
        return self


def observable_from_matrix(m, outcome_labels: tuple[str, ...] | None = None) -> Observable:
    """Build an :class:`Observable` by spectral decomposition, merging degeneracies."""
    w, v = eig_hermitian(m)
    eigenvalues: list[float] = []
    effects: list[np.ndarray] = []
    i = 0
    while i < len(w):
        j = i
        while j + 1 < len(w) and abs(w[j + 1] - w[i]) <= EIG_MERGE_TOL:
            j += 1
        block = v[:, i : j + 1]
        eigenvalues.append(float(np.mean(w[i : j + 1])))
        effects.append(block @ block.conj().T)
        i = j + 1
    labels = outcome_labels if outcome_labels is not None else ()
    return Observable(eigenvalues, effects, labels)


_PAULI_LABELS = {"x": ("+", "-"), "y": ("+i", "-i"), "z": ("0", "1")}


@cache
def pauli_observable(axis: str) -> Observable:
    """The Pauli observable along ``x``, ``y`` or ``z``.

    Projectors are built as (I +/- sigma) / 2, whose entries are exact dyadic
    floats, so overlap computations between Pauli eigenbases are bit-exact.
    Each axis is built and validated once, when the module is imported;
    every request returns that one immutable instance.
    """
    try:
        labels = _PAULI_LABELS[axis]
    except KeyError:
        raise BadParameter(f"unknown Pauli axis {axis!r}") from None
    return _pauli(axis, labels)


def _pauli(axis: str, labels: tuple[str, str]) -> Observable:
    m = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[axis]
    return Observable((1.0, -1.0), ((PAULI_I + m) / 2.0, (PAULI_I - m) / 2.0), labels)


def bloch_observable(direction) -> Observable:
    """Qubit observable n . sigma for a unit Bloch vector n."""
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise BadParameter("direction must be a unit 3-vector")
    m = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return Observable((1.0, -1.0), ((PAULI_I + m) / 2.0, (PAULI_I - m) / 2.0), ("+", "-"))


def born_stats(state: DensityState | DensityStack, meas: Povm) -> ProbVec | np.ndarray:
    """Measurement statistics under ``meas`` via the Born rule p_k = tr(E_k rho).

    A :class:`DensityState` gives a :class:`ProbVec`; a :class:`DensityStack`
    of N states gives an (N, n_outcomes) array whose rows pass the same
    distribution checks.
    """
    if state.dim != meas.dim:
        raise DimensionMismatch(
            f"state dimension {state.dim} does not match POVM dimension {meas.dim}"
        )
    single = isinstance(state, DensityState)
    rho = state.matrix if single else state.matrices
    probs = np.clip(_traces(meas.effects, rho), 0.0, None)
    return ProbVec(probs) if single else normalized_rows(probs)


def product_observable_stats(state: DensityState, a: Observable, b: Observable) -> ProbVec:
    """Statistics of the joint measurement of a (x) b, binned by outcome index.

    Outcomes are indexed by descending eigenvalue.  When both observables
    have n outcomes, joint outcome (i, j) goes to bin (i - j) mod n; each bin
    shift relabels one party's outcomes, so for a product state the binned
    distribution is a mixture of relabelings of either party's statistics
    and is majorized by both, whatever the spectra.  For the +/-1 Paulis the
    bins are the eigenvalue products +1 and -1.  With unequal outcome counts
    the full joint distribution is returned in row-major order.
    """
    if state.dims is None:
        raise DimensionMismatch("state needs a bipartite factorization")
    da, db = state.dims
    if a.dim != da or b.dim != db:
        raise DimensionMismatch(
            f"observables of dimension ({a.dim}, {b.dim}) do not fit factors {state.dims}"
        )
    joint = np.clip(_traces(b.effects, _steered(a.effects, state)), 0.0, None)
    n = a.n_outcomes
    if b.n_outcomes != n:
        return ProbVec(joint.ravel())
    # bincount adds each bin's entries in row-major order
    bins = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return ProbVec(np.bincount(bins.ravel(), weights=joint.ravel(), minlength=n))


def partial_trace(state: DensityState, keep: str) -> DensityState:
    """Reduce a bipartite state to one factor; ``keep`` is ``"A"`` or ``"B"``."""
    if state.dims is None:
        raise DimensionMismatch("state needs a bipartite factorization")
    da, db = state.dims
    r = state.matrix.reshape(da, db, da, db)
    if keep == "A":
        out = np.einsum("ijkj->ik", r)
    elif keep == "B":
        out = np.einsum("ijil->jl", r)
    else:
        raise BadParameter(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityState(out)


def kron_state(a: DensityState, b: DensityState) -> DensityState:
    """Product state a (x) b with the factorization recorded."""
    return DensityState(np.kron(a.matrix, b.matrix), dims=(a.dim, b.dim))


def von_neumann_entropy(state: DensityState) -> float:
    """Spectral entropy of the state in bits."""
    w = np.linalg.eigvalsh(state.matrix)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def maximally_entangled_ket(d: int = 2) -> np.ndarray:
    """The ket sum_i |ii> / sqrt(d)."""
    ket = np.zeros(d * d, dtype=complex)
    for i in range(d):
        ket[i * d + i] = 1.0
    return ket / np.sqrt(d)


@cache
def bell_phi_plus() -> DensityState:
    """The two-qubit maximally entangled state (|00> + |11>) / sqrt(2).

    Built and validated once, when the module is imported; every call
    returns that one immutable instance.
    """
    return DensityState(projector(maximally_entangled_ket(2)), dims=(2, 2))


def maximally_mixed(d: int, dims: tuple[int, int] | None = None) -> DensityState:
    if d < 1:
        raise BadParameter(f"dimension must be at least 1, got {d}")
    _check_dim(d)
    return DensityState(np.eye(d, dtype=complex) / d, dims=dims)


def werner(w: float) -> DensityState:
    """Two-qubit Werner-type mixture w |Phi+><Phi+| + (1 - w) I/4."""
    if not 0.0 <= w <= 1.0:
        raise BadParameter(f"mixing parameter must lie in [0, 1], got {w}")
    m = w * projector(maximally_entangled_ket(2)) + (1.0 - w) * np.eye(4) / 4.0
    return DensityState(m, dims=(2, 2))


def isotropic(d: int, f: float) -> DensityState:
    """Isotropic state with singlet fraction ``f`` on a d x d system."""
    if d < 2:
        raise BadParameter("local dimension must be at least 2")
    _check_dim(d * d)
    if not 0.0 <= f <= 1.0:
        raise BadParameter(f"singlet fraction must lie in [0, 1], got {f}")
    p = projector(maximally_entangled_ket(d))
    rest = (np.eye(d * d) - p) / (d * d - 1)
    return DensityState(f * p + (1.0 - f) * rest, dims=(d, d))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# mub_bases shares the sets whose effects hold at most this many complex
# entries (m d^3): every two-basis set up to d = 31 and every complete set up
# to d = 13, 67 sets of 21 MiB in all; a larger set, up to 226 MB for d = 61,
# is built on each call
_INTERN_ENTRIES = 2**16


def mub_bases(d: int, m: int) -> tuple[Observable, ...]:
    """``m`` mutually unbiased bases in prime dimension ``d``, as observables.

    For d = 2 these are the Pauli z, x, y eigenbases.  For odd primes the
    Weyl-Heisenberg construction is used: basis ``k`` has vectors with
    components omega^(k l^2 + j l) / sqrt(d) against the computational basis,
    preceded by the computational basis itself.  A set whose effects hold at
    most ``_INTERN_ENTRIES`` = 2^16 complex entries (m d^3) is built and
    validated once and the same immutable tuple is returned to every
    request; the sets for d = 2 and 3 are built when the module is imported,
    the others on their first request.  A larger set is built afresh on each
    call.
    """
    _check_dim(d)
    if not _is_prime(d):
        raise BadParameter(f"dimension {d} is not prime")
    if not 2 <= m <= d + 1:
        raise BadParameter(f"number of bases must lie in [2, {d + 1}], got {m}")
    if m * d**3 > _INTERN_ENTRIES:
        return _build_mub_bases(d, m)
    return _interned_mub_bases(d, m)


def _build_mub_bases(d: int, m: int) -> tuple[Observable, ...]:
    if d == 2:
        # Pauli z, x, y eigenbases, labeled by basis-vector index.
        return tuple(_pauli(axis, ("0", "1")) for axis in "zxy"[:m])
    omega = np.exp(2j * np.pi / d)
    ls = np.arange(d)
    weyl = [[omega ** ((k * ls * ls + j * ls) % d) / np.sqrt(d) for j in range(d)]
            for k in range(m - 1)]
    return tuple(_basis_observable(vectors) for vectors in [np.eye(d).T, *weyl])


_interned_mub_bases = cache(_build_mub_bases)


def _basis_observable(vectors) -> Observable:
    """Observable of basis ``vectors`` with eigenvalues d - 1, ..., 0 labelled "0", ..."""
    projs = tuple(projector(v) for v in vectors)
    eigenvalues = tuple(float(x) for x in range(len(projs) - 1, -1, -1))
    return Observable(eigenvalues, projs, tuple(str(j) for j in range(len(projs))))


def correlation_tensor(state: DensityState) -> np.ndarray:
    """Pauli correlation tensor T[mu, nu] = tr(sigma_mu (x) sigma_nu rho) of a two-qubit state."""
    if state.dims != (2, 2):
        raise DimensionMismatch("correlation tensor is defined for two-qubit states")
    return _traces(_PAULIS, _steered(_PAULIS, state))


def state_from_correlation_tensor(t: np.ndarray) -> DensityState:
    """Rebuild the two-qubit state from its Pauli correlation tensor."""
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise DimensionMismatch("correlation tensor must be 4 x 4")
    # sum_{mu nu} t[mu, nu] sigma_mu (x) sigma_nu, laid out as [a, b, a', b']
    m = np.einsum("mn,mac,nbd->abcd", t, _PAULIS, _PAULIS).reshape(4, 4)
    return DensityState(m / 4.0, dims=(2, 2))


def random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state via normalized complex Gaussian components."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_pure_state(d: int, rng: np.random.Generator,
                      dims: tuple[int, int] | None = None) -> DensityState:
    return DensityState(projector(random_ket(d, rng)), dims=dims)


def _random_mixed_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    m = random_ket(d * d, rng).reshape(d, d)
    return m @ m.conj().T


def random_mixed_state(d: int, rng: np.random.Generator,
                       dims: tuple[int, int] | None = None) -> DensityState:
    """Random mixed state: partial trace of a random pure state on a doubled space.

    With the ket reshaped to a d x d matrix M, the reduced state is M M^dagger.
    """
    return DensityState(_random_mixed_matrix(d, rng), dims=dims)


def random_product_state(da: int, db: int, rng: np.random.Generator) -> DensityState:
    return kron_state(random_mixed_state(da, rng), random_mixed_state(db, rng))


def random_separable_state(da: int, db: int, rng: np.random.Generator,
                           max_terms: int = 16) -> DensityState:
    """Random convex mixture of up to ``max_terms`` random product states, validated once."""
    n = int(rng.integers(1, max_terms + 1))
    weights = rng.exponential(size=n)
    weights /= weights.sum()
    m = np.zeros((da * db, da * db), dtype=complex)
    for w in weights:
        m += w * np.kron(_random_mixed_matrix(da, rng), _random_mixed_matrix(db, rng))
    return DensityState(m, dims=(da, db))


def random_qubit_observable(rng: np.random.Generator) -> Observable:
    """Dichotomic qubit observable along a uniformly random Bloch direction."""
    v = rng.normal(size=3)
    return bloch_observable(v / np.linalg.norm(v))


def schmidt_observables(ket: np.ndarray, dims: tuple[int, int]):
    """Local measurement pairs adapted to the Schmidt bases of a bipartite ket.

    Returns ``(x_list, y_list)`` with two observables per party: the Schmidt
    basis itself, and its Fourier rotation (conjugated on the second party so
    that outcomes stay correlated).  For every entangled pure state the
    matched-outcome correlations in these measurements exceed what any
    product state can reach, which is how sampled pure states are witnessed.
    """
    da, db = dims
    ket = np.asarray(ket, dtype=complex).reshape(da * db)
    ket = ket / np.linalg.norm(ket)
    u, s, vh = np.linalg.svd(ket.reshape(da, db))
    d = min(da, db)
    if da != db:
        raise DimensionMismatch("Schmidt measurement pairs need equal local dimensions")
    omega = np.exp(2j * np.pi / d)
    basis_a = [u[:, i] for i in range(d)]
    basis_b = [vh[i, :] for i in range(d)]
    fourier_a = [
        sum(omega ** (i * k) * basis_a[i] for i in range(d)) / np.sqrt(d) for k in range(d)
    ]
    fourier_b = [
        sum(omega ** (-i * k) * basis_b[i] for i in range(d)) / np.sqrt(d) for k in range(d)
    ]
    return ([_basis_observable(basis_a), _basis_observable(fourier_a)],
            [_basis_observable(basis_b), _basis_observable(fourier_b)])


def _build_qubit_and_qutrit_sets() -> None:
    """Build the shared named sets of dimensions 2 and 3.

    These are the sets the paper's examples and most scenarios ask for.
    Built here, they are validated before any request, so every request in a
    process, the first included, does the same work.
    """
    for axis in _PAULI_LABELS:
        pauli_observable(axis)
    for d in (2, 3):
        for m in range(2, d + 2):
            mub_bases(d, m)
    bell_phi_plus()


_build_qubit_and_qutrit_sets()
