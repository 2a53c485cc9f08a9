"""The density-matrix gate decides as the three-pass reference gate at its bounds.

``ReferenceDensityMatrix`` keeps the gate as it was written before its
finiteness check moved onto the Hermiticity branch: a separate finiteness
pass, then the Hermiticity defect, the trace and the smallest eigenvalue of
the Hermitian part. The property below draws matrices at each bound and
requires the same accept/refuse decision, exception type and message, and
on acceptance the same bits.

The property pins no ``max_examples``, so a hypothesis profile sets its
budget; ``--hypothesis-profile=ci`` runs the larger one from conftest.py.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate.channel import _owned
from qdilate.errors import DimensionMismatch, ValidationError
from qdilate.linalg import DEFAULT_TOL, dagger, min_eigenvalue

# The reference's helpers, verbatim as it read them.


def _require_finite(m: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} contains non-finite entries")


def _square_complex(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    _require_finite(m, name)
    return m


def max_abs(m) -> float:
    """Largest entrywise absolute value (0 for an empty array)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


@dataclass(frozen=True, eq=False)
class ReferenceDensityMatrix:
    mat: np.ndarray

    def __post_init__(self):
        mat = _owned(_square_complex(self.mat, "density matrix"), self.mat)
        object.__setattr__(self, "mat", mat)
        herm = max_abs(mat - dagger(mat))
        if not herm <= DEFAULT_TOL:
            raise ValidationError(f"density matrix must be Hermitian (deviation {herm:.3e})")
        tr = mat.trace()
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise ValidationError(f"density matrix must have unit trace (trace {tr:.6g})")
        min_eig = min_eigenvalue(mat)
        if not min_eig >= -DEFAULT_TOL:
            raise ValidationError(
                f"density matrix must be positive semidefinite (min eigenvalue {min_eig:.3e})"
            )


def shifted(x: float, ulps: int) -> float:
    """x moved by ``ulps`` units in the last place (down for a negative count)."""
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = np.nextafter(x, toward)
    return float(x)


def random_state(n: int, rng) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = x @ x.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def permuted_diagonal(diag: np.ndarray, rng, rotate: bool) -> np.ndarray:
    """diag(d) with its entries permuted, exactly, or turned by a random unitary."""
    m = np.diag(rng.permutation(diag)).astype(complex)
    if rotate:
        n = len(diag)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        m = u @ m @ u.conj().T
    return m


def with_signed_zeros(m: np.ndarray, rng) -> np.ndarray:
    """m with some mirrored off-diagonal pairs set to zeros of random signs.

    The Hermiticity defect stays exactly 0 while m and its Hermitian part
    may differ in the signs of those zeros.
    """
    n = len(m)
    m = m.copy()
    for _ in range(rng.integers(0, n * n)):
        i, j = rng.integers(0, n, 2)
        if i != j:
            signs = rng.choice([0.0, -0.0], 4)
            m[i, j] = complex(signs[0], signs[1])
            m[j, i] = complex(signs[2], signs[3])
    return m


@st.composite
def boundary_matrices(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ulps = draw(st.integers(-4, 4))
    case = draw(st.sampled_from(["eigenvalue", "defect", "trace", "non-finite"]))
    if case == "eigenvalue":
        # Smallest eigenvalue -DEFAULT_TOL moved by a few ulps, trace 1.
        low = shifted(-DEFAULT_TOL, ulps)
        rest = rng.random(n - 1) + 0.1
        diag = np.concatenate([[low], rest * ((1.0 - low) / rest.sum())]) if n > 1 else [1.0]
        return permuted_diagonal(np.asarray(diag), rng, draw(st.booleans()))
    if case == "defect":
        # Defect exactly 0, or up to DEFAULT_TOL and a few ulps past it.
        m = with_signed_zeros(random_state(n, rng), rng)
        size = draw(st.sampled_from([0.0, DEFAULT_TOL / 2, DEFAULT_TOL, 2 * DEFAULT_TOL]))
        if size:
            i, j = rng.integers(0, n, 2)
            m[i, j] += shifted(size, ulps) * (1j if draw(st.booleans()) else 1.0)
        return m
    if case == "trace":
        # Trace 1 +- DEFAULT_TOL, moved by a few ulps.
        target = shifted(1.0 + draw(st.sampled_from([-1, 0, 1])) * DEFAULT_TOL, ulps)
        diag = np.zeros(n)
        diag[0] = target
        if n > 1 and draw(st.booleans()):
            diag[1:] = rng.random(n - 1) * 0.1
            diag[0] = target - diag[1:].sum()
        return permuted_diagonal(diag, rng, rotate=False)
    # A NaN or inf in a diagonal entry, an off-diagonal entry or an imaginary part.
    m = random_state(n, rng)
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    i, j = rng.integers(0, n, 2)
    if draw(st.booleans()):
        j = i
    parts = m[i : i + 1, j].view(float)
    parts[draw(st.integers(0, 1))] = value
    if draw(st.booleans()):
        m[j, i] = np.conj(m[i, j])
    return m


def verdict(gate, m):
    try:
        state = gate(m)
    except Exception as exc:
        return type(exc), str(exc)
    return "accepted", state.mat.tobytes()


@settings(deadline=None)
@given(m=boundary_matrices())
def test_the_gate_decides_as_the_reference_at_its_bounds(m):
    assert verdict(q.DensityMatrix, m) == verdict(ReferenceDensityMatrix, m)


def test_the_gate_reads_the_hermitian_part_at_a_zero_defect(monkeypatch):
    # A zero defect does not make m its own Hermitian part bit for bit: here
    # m[0, 1] has real part -0.0 and (m + m^dagger) / 2 has +0.0, and such
    # signed zeros can move the bits eigvalsh returns.
    m = np.array([[0.5, complex(-0.0, 0.1)], [complex(0.0, -0.1), 0.5]])
    assert max_abs(m - dagger(m)) == 0.0
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: seen.append(h.tobytes()) or eigvalsh(h))
    q.DensityMatrix(m)
    assert seen == [((m + dagger(m)) / 2).tobytes()]
    assert seen != [m.tobytes()]
