"""Property tests of the matrix laboratory, run when hypothesis is installed."""

import numpy as np
import pytest

import commbound as cb

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=8))
@settings(max_examples=25, deadline=None)
def test_property_haar_stays_unitary(seed, dim):
    U = cb.haar_unitary(dim, seed=seed)
    assert cb.op_norm(U.conj().T @ U - np.eye(dim)) <= 1e-12


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_property_commutator_antisymmetry(seed):
    rng = cb.stream(seed, 1)
    X = rng.standard_normal((4, 4))
    A = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(cb.commutator(X, A), -cb.commutator(A, X))
