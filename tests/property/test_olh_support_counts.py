"""Property test: OLH's support-count kernel equals the naive reference.

``OptimizedLocalHashing.support_counts`` walks each user's hash
``x_v = (a·v + b) mod P`` across the categories on ``uint32`` vectors of
length n.  The reference below is the direct formula over the whole
(users × categories) matrix in int64 — the definition of the per-user
hash — and the two must agree exactly for every domain size, hash range,
user-index form and batch size, out-of-range reports included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms.oracles import (
    _HASH_PRIME,
    OptimizedLocalHashing,
    _resolve_user_indices,
    _user_hash_params,
)

MAX_INDEX = 1 << 40


def reference_counts(oracle, reports, user_offset) -> np.ndarray:
    """``c_v = #{i : y_i == ((a_i·v + b_i) mod P) mod g}`` by brute force."""
    reports = np.asarray(reports, dtype=np.int64).reshape(-1)
    users = _resolve_user_indices(reports.size, user_offset)
    a, b = _user_hash_params(oracle.hash_seed, users)
    v = np.arange(oracle.n_categories, dtype=np.int64)
    h = ((a[:, None] * v[None, :] + b[:, None]) % _HASH_PRIME) % oracle.g
    return (h == reports[:, None]).sum(axis=0).astype(np.int64)


@st.composite
def oracles(draw):
    d = draw(st.integers(min_value=2, max_value=300))
    epsilon = draw(st.floats(min_value=0.5, max_value=4.0))
    g = draw(
        st.one_of(
            st.none(),  # from epsilon: round(e^eps + 1)
            st.just(2),
            st.integers(min_value=3, max_value=1000).filter(lambda g: g & (g - 1)),
            st.integers(min_value=d + 1, max_value=d + 300),
        )
    )
    hash_seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    # A fine URNG grid keeps the k-RR calibration feasible for every g
    # drawn; the counts themselves do not depend on it.
    return OptimizedLocalHashing(d, epsilon, g=g, hash_seed=hash_seed, bits=24)


@settings(max_examples=120, deadline=None)
@given(
    oracle=oracles(),
    n=st.integers(min_value=0, max_value=5000),
    sparse=st.booleans(),
    offset=st.integers(min_value=0, max_value=MAX_INDEX),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_support_counts_match_reference(oracle, n, sparse, offset, seed):
    rng = np.random.default_rng(seed)
    # Reports over -1..g, some shifted by ±2^32 (same low 32 bits as a
    # bucket): only 0..g-1 supports a category.
    reports = rng.integers(-1, oracle.g + 1, size=n)
    reports += (1 << 32) * rng.integers(-1, 2, size=n) * (rng.random(n) < 0.05)
    if sparse:
        # A dropout-thinned shard: sorted, gapped global indices <= 2^40.
        user_offset = np.cumsum(rng.integers(1, MAX_INDEX // max(n, 1), size=n))
    else:
        user_offset = offset
    counts = oracle.support_counts(reports, user_offset=user_offset)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(
        counts, reference_counts(oracle, reports, user_offset)
    )
