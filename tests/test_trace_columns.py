"""Column-native generation: ``SyntheticWorkload.columns()`` is the record trace.

The fast backend consumes traces generated straight into
:class:`~repro.trace.packed.PackedTrace` columns, while the reference
backend consumes :meth:`SyntheticWorkload.records`.  Both come from one
generator with one RNG draw order, so the columns must equal packing the
records, column for column and dtype for dtype.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.synthetic import SyntheticWorkload, WorkloadProfile
from repro.trace.workloads import standard_profile, standard_trace_names

pytestmark = pytest.mark.requires_numpy

COLUMNS = ("cpu", "pid", "access", "address", "flags")


def assert_columns_equal_records(profile: WorkloadProfile) -> None:
    import numpy as np

    from repro.trace.packed import PackedTrace

    columns = SyntheticWorkload(profile).columns()
    expected = PackedTrace.from_records(SyntheticWorkload(profile).records())
    assert len(columns) == len(expected) == profile.length
    for name in COLUMNS:
        got, want = getattr(columns, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("scale", [1 / 512, 1 / 64])
@pytest.mark.parametrize("seed", [None, 1, 7])
@pytest.mark.parametrize("trace", standard_trace_names())
def test_standard_profiles(trace, seed, scale):
    assert_columns_equal_records(standard_profile(trace, scale=scale, seed=seed))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_any_seed(seed):
    assert_columns_equal_records(standard_profile("POPS", scale=1 / 512, seed=seed))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_migration_and_extra_fetches(seed):
    """Rows read the process's CPU when emitted, after any migration."""
    profile = replace(
        standard_profile("PERO", scale=1 / 512, seed=seed),
        migration_rate=0.05,
        extra_instr_per_data=1.5,
    )
    assert_columns_equal_records(profile)


def test_empty_trace():
    assert_columns_equal_records(WorkloadProfile("empty", length=0))


def test_columns_are_contiguous_and_owned():
    trace = SyntheticWorkload(standard_profile("THOR", scale=1 / 512)).columns()
    for name in COLUMNS:
        column = getattr(trace, name)
        assert column.flags.c_contiguous and column.base is None, name
