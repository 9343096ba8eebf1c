"""Domain types for stochastic discrete-time LTI control with multiplicative noise.

The plant is

    x_{k+1} = A1 x_k + B1 u_k + C1 v_k + (A2 x_k + C2 v_k) w_k,

with scalar white noise w_k, E(w)=0, E(w^2)=1.  The design data are an
attenuation level gamma and a state cost Q (control weight fixed to identity).
All types here are immutable after construction and safe to share across
threads; arrays are defensively copied and marked read-only.  The learner's
own (H1, H2), (P1, P2) and gains, made fresh by its arithmetic, are taken
over without a copy through _trusted and marked read-only the same way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

SYM_TOL = 1e-12
# 2x of an entry at most this large is finite, so symmetrize keeps it exactly
_HALF_MAX = np.finfo(float).max / 2


class AttenuationInfeasibleError(RuntimeError):
    """gamma is too small: a Delta block lost positive definiteness."""


class GainExtractionError(RuntimeError):
    """The stacked gain system (or its H-block analogue) is singular."""


class ExcitationError(RuntimeError):
    """Regression matrix is rank deficient: probing is insufficient."""


class DivergenceError(RuntimeError):
    """A simulated state exceeded the divergence guard."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"state exceeded divergence guard at step {step}")


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


class ConfigError(ValueError):
    """Bad or inconsistent run settings; the command line exits 1 on it."""


def _as_matrix(a, name):
    m = np.array(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _frozen(m):
    m.setflags(write=False)
    return m


def asymmetry(m):
    """Largest absolute elementwise asymmetry of a square matrix, or of a
    stack (..., p, p) of them."""
    return float(np.abs(m - m.swapaxes(-1, -2)).max()) if m.size else 0.0


def require_symmetric(m, name, tol=SYM_TOL):
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    a = asymmetry(m)
    if a > tol:
        raise ValueError(f"{name} asymmetry {a:.3e} exceeds {tol:.0e}")


def symmetrize(m):
    return (m + m.swapaxes(-1, -2)) / 2.0


def _least_eigenvalue(M):
    """Least eigenvalue of M's symmetric part; a 1x1 M's entry is read directly,
    as eigvalsh returns it, inf and NaN included."""
    return float(M[0, 0] if len(M) == 1 else np.linalg.eigvalsh(symmetrize(M)).min())


def _fro_norms(M):
    """Frobenius norms of the C-ordered items of a stack M (S, ...), with
    np.linalg.norm's bits: each item's flat dot with itself, one ddot as
    norm's x.dot(x), then sqrt.  inf, NaN, -0.0 and subnormals included;
    an overflowing sum warns as norm's does.  Only on C-ordered items: a
    strided item (mat_from_vecs(W.T)'s, strides (8, 80, 16) on F-16) gets a
    strided ddot, which can differ in the last bit from norm's on a copy."""
    S, k = M.shape[0], math.prod(M.shape[1:])
    return np.sqrt(np.matmul(M.reshape(S, 1, k), M.reshape(S, k, 1))).reshape(S)


@dataclass(frozen=True)
class SdltiSystem:
    """Dynamics matrices (A1, A2, B1, C1, C2) with dimensions (n, m1, m2)."""

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    n: int = field(init=False)
    m1: int = field(init=False)
    m2: int = field(init=False)

    def __post_init__(self):
        A1 = _as_matrix(self.A1, "A1")
        n = A1.shape[0]
        if A1.shape != (n, n):
            raise ValueError(f"A1 must be square, got {A1.shape}")
        A2 = _as_matrix(self.A2, "A2")
        B1 = _as_matrix(self.B1, "B1")
        C1 = _as_matrix(self.C1, "C1")
        C2 = _as_matrix(self.C2, "C2")
        if A2.shape != (n, n):
            raise ValueError(f"A2 shape {A2.shape} inconsistent with n={n}")
        for M, name in ((B1, "B1"), (C1, "C1"), (C2, "C2")):
            if M.shape[0] != n:
                raise ValueError(f"{name} has {M.shape[0]} rows, expected {n}")
        if C2.shape[1] != C1.shape[1]:
            raise ValueError(
                f"C2 shape {C2.shape} inconsistent with C1 shape {C1.shape}"
            )
        for name, M in (("A1", A1), ("A2", A2), ("B1", B1), ("C1", C1), ("C2", C2)):
            object.__setattr__(self, name, _frozen(M))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m1", B1.shape[1])
        object.__setattr__(self, "m2", C1.shape[1])

    @property
    def dims(self):
        return self.n, self.m1, self.m2

    @property
    def p(self):
        """Length of the stacked vector [x; u; v]."""
        return self.n + self.m1 + self.m2


@dataclass(frozen=True)
class CostSpec:
    """Attenuation level gamma and state cost Q; control weight is identity.

    Q must be symmetric.  Positive semidefiniteness is recorded as a flag
    rather than enforced, so that validate_system can report it.
    """

    gamma: float
    Q: np.ndarray
    q_psd: bool = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError(f"gamma must be a positive real, got {self.gamma}")
        Q = _as_matrix(self.Q, "Q")
        require_symmetric(Q, "Q")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "Q", _frozen(symmetrize(Q)))
        lo = float(np.linalg.eigvalsh(self.Q).min()) if Q.size else 0.0
        scale = max(1.0, float(np.abs(self.Q).max())) if Q.size else 1.0
        object.__setattr__(self, "q_psd", lo >= -1e-10 * scale)


@dataclass(frozen=True)
class ValuePair:
    """Symmetric value matrices (P1, P2); P1 <= 0 and P2 >= 0 at the solution."""

    P1: np.ndarray
    P2: np.ndarray

    def __post_init__(self):
        P1 = _as_matrix(self.P1, "P1")
        P2 = _as_matrix(self.P2, "P2")
        require_symmetric(P1, "P1")
        require_symmetric(P2, "P2")
        if P1.shape != P2.shape:
            raise ValueError(f"P1 {P1.shape} and P2 {P2.shape} differ in shape")
        object.__setattr__(self, "P1", _frozen(symmetrize(P1)))
        object.__setattr__(self, "P2", _frozen(symmetrize(P2)))

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((n, n)), np.zeros((n, n)))


@dataclass(frozen=True)
class GainPair:
    """Disturbance gain K1 (m2 x n) and control gain K2 (m1 x n)."""

    K1: np.ndarray
    K2: np.ndarray

    def __post_init__(self):
        K1 = _as_matrix(self.K1, "K1")
        K2 = _as_matrix(self.K2, "K2")
        if K1.shape[1] != K2.shape[1]:
            raise ValueError(
                f"K1 {K1.shape} and K2 {K2.shape} disagree on state dimension"
            )
        object.__setattr__(self, "K1", _frozen(K1))
        object.__setattr__(self, "K2", _frozen(K2))

    @classmethod
    def zeros(cls, n, m1=1, m2=1):
        return cls(np.zeros((m2, n)), np.zeros((m1, n)))


@dataclass(frozen=True)
class QPair:
    """Symmetric Q-function matrices (H1, H2) over z = [x; u; v].

    Carries the block partition (n, m1, m2) so gain extraction needs no
    separate dimension bookkeeping; p = n + m1 + m2 must match the matrices.
    """

    H1: np.ndarray
    H2: np.ndarray
    n: int
    m1: int
    m2: int

    def __post_init__(self):
        H1 = _as_matrix(self.H1, "H1")
        H2 = _as_matrix(self.H2, "H2")
        require_symmetric(H1, "H1")
        require_symmetric(H2, "H2")
        p = self.n + self.m1 + self.m2
        if H1.shape != (p, p) or H2.shape != (p, p):
            raise ValueError(
                f"H blocks {H1.shape}/{H2.shape} inconsistent with partition "
                f"({self.n},{self.m1},{self.m2})"
            )
        object.__setattr__(self, "H1", _frozen(symmetrize(H1)))
        object.__setattr__(self, "H2", _frozen(symmetrize(H2)))

    @classmethod
    def zeros(cls, n, m1=1, m2=1):
        p = n + m1 + m2
        return cls(np.zeros((p, p)), np.zeros((p, p)), n, m1, m2)

    @property
    def p(self):
        return self.n + self.m1 + self.m2

    @property
    def dims(self):
        return self.n, self.m1, self.m2


def _trusted(cls, members, *dims):
    """A QPair, ValuePair or GainPair over arrays the package's own
    arithmetic made, taken over without __post_init__'s copies and checks.

    members is the pair, or its (2, p, p) stack, each member already
    symmetric where cls needs it; dims is QPair's (n, m1, m2).  Only what
    arithmetic does not guarantee is checked, in one call: finite H or P
    (gains are finite-checked where they are solved for) and dims matching
    the stack.  A stack that fails, or holds an entry whose doubling in
    symmetrize overflows, goes through the validated constructor, which
    raises its ValueError naming the member, or stores that inf.
    """
    if cls is not GainPair:
        consistent = cls is ValuePair or members.shape[-1] == sum(dims)
        if not (consistent and np.abs(members).max(initial=0.0) <= _HALF_MAX):
            return cls(*members, *dims)
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, (*map(_frozen, members), *dims)):
        if isinstance(value, np.ndarray) and value.base is not None:
            _frozen(value.base)  # no writable alias through the stack it views
        object.__setattr__(obj, name, value)
    return obj


NOISE_CASES = ("case1", "case2", "case3")
EXPECTATION_MODES = ("analytic", "mc")


@dataclass(frozen=True)
class AlgoConfig:
    """Iteration controls shared by the solver, VI, and the learning engine.

    tol is the stopping tolerance eps, max_iters the iteration cap i_max,
    tuples_per_iter the batch size N, branches the Monte-Carlo branch count
    N_u per collected tuple, noise_case the probing case (case1, case2 or
    case3), expectation_mode analytic or mc.  The noise, and with it the
    seed, belongs to the oracle's NoiseSource.
    """

    tol: float = 1e-3
    max_iters: int = 500
    tuples_per_iter: int = 20
    branches: int = 100
    noise_case: str = "case1"
    expectation_mode: str = "mc"

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ConfigError("tol must be a positive finite number")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be a positive integer")
        if self.tuples_per_iter < 1:
            raise ConfigError("tuples_per_iter must be a positive integer")
        if self.branches < 1:
            raise ConfigError("branches must be a positive integer")
        if self.noise_case not in NOISE_CASES:
            raise ConfigError(f"noise_case must be one of {NOISE_CASES}")
        if self.expectation_mode not in EXPECTATION_MODES:
            raise ConfigError(f"expectation_mode must be one of {EXPECTATION_MODES}")

    def validate_for(self, p):
        """Batch size must cover the p(p+1)/2 unknowns of a symmetric H."""
        need = p * (p + 1) // 2
        if self.tuples_per_iter < need:
            raise ConfigError(
                f"tuples_per_iter={self.tuples_per_iter} below the "
                f"{need} unknowns for p={p}"
            )


def validate_system(sys, cost):
    """The violations of the (system, cost) pair, as a tuple of messages;
    never raises, and an empty tuple means the pair is valid."""
    violations = []
    if cost.Q.shape != (sys.n, sys.n):
        violations.append(
            f"dimension mismatch: Q is {cost.Q.shape}, state dimension is {sys.n}"
        )
    if not cost.q_psd:
        violations.append("Q not PSD")
    return tuple(violations)
