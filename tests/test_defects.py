"""Each validation defect has one definition, so every check that reads it agrees.

``linalg.hermiticity_defect`` is max|m - m^dagger|, bit for bit, and is NaN
or inf, with no warning, on a non-finite matrix. ``linalg.isometry_defect``
is read by both the ``Dilation`` validator and ``complete_to_unitary``, so a
near-bound isometry is accepted by both or by neither.

The properties pin no ``max_examples``, so a hypothesis profile sets their
budget; ``--hypothesis-profile=ci`` runs the larger one from conftest.py.
"""

import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qdilate as q
from qdilate.linalg import hermiticity_defect

# Bounded so that m - m^dagger cannot overflow.
ENTRIES = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    m = draw(arrays(complex, (n, n), elements=ENTRIES))
    form = draw(st.sampled_from(["complex", "hermitian", "real", "transposed"]))
    if form == "hermitian":
        m = (m + q.dagger(m)) / 2
        m[0, -1] += draw(st.sampled_from([0.0, 1e-10, 1e-10j, -5e-11]))
    elif form == "real":
        m = m.real.copy()
    elif form == "transposed":
        m = m.T
    return m


@given(square_matrices())
def test_hermiticity_defect_is_max_abs_of_m_minus_m_dagger(m):
    assert hermiticity_defect(m) == q.max_abs(m - q.dagger(m))


@given(
    square_matrices(),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), NON_FINITE, st.booleans()),
             min_size=1, max_size=3),
)
def test_hermiticity_defect_of_a_non_finite_matrix_is_not_finite(m, entries):
    m = np.array(m, dtype=complex)
    n = len(m)
    for i, j, value, imaginary in entries:
        if imaginary:
            m[i % n, j % n] = complex(m[i % n, j % n].real, value)
        else:
            m[i % n, j % n] = complex(value, m[i % n, j % n].imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defect = hermiticity_defect(m)
    assert not np.isfinite(defect)


def _accepts(build) -> bool:
    try:
        build()
    except q.NotIsometry:  # NotTracePreserving, the Dilation's refusal, is one
        return False
    return True


@st.composite
def near_bound_isometries(draw):
    """``(dim, rank, seed, a, b, f)``: add 1e-10 f V[:, a] to V[:, b], |f| near 1."""
    dim = draw(st.integers(2, 4))
    rank = draw(st.integers(1, dim * dim))
    seed = draw(st.integers(0, 2**32 - 1))
    a, b = draw(st.permutations(range(dim)))[:2]
    scale = draw(st.floats(1 - 1e-5, 1 + 1e-5))
    z = complex(*draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(any)))
    return dim, rank, seed, a, b, scale * z / abs(z)


@given(near_bound_isometries())
# The validator accepted this one, while complete_to_unitary's own Gram
# matrix put its defect at 1.000e-10 and refused it.
@example((3, 9, 7, 0, 1, (1 - 1e-6) * (1 + 0.3j) / abs(1 + 0.3j)))
def test_dilation_accepts_exactly_the_isometries_complete_to_unitary_accepts(case):
    dim, rank, seed, a, b, factor = case
    dil = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(dim, rank, seed)))
    iso = dil.isometry.copy()
    iso[:, b] += 1e-10 * factor * iso[:, a]
    by_validator = _accepts(
        lambda: q.Dilation(sys_dim=dim, anc_dim=rank, isometry=iso, sectors=dil.sectors)
    )
    assert by_validator == _accepts(lambda: q.complete_to_unitary(iso))
