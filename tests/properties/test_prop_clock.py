"""Property-based tests for vector clocks."""

from hypothesis import given, strategies as st

from repro.sim.clock import VectorClock

entries = st.dictionaries(st.integers(0, 7), st.integers(0, 20), max_size=6)
clocks = entries.map(VectorClock)


@given(clocks, clocks)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(clocks, clocks, clocks)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(clocks)
def test_merge_idempotent(a):
    assert a.merge(a) == a


@given(clocks, clocks)
def test_merge_is_least_upper_bound(a, b):
    merged = a.merge(b)
    assert merged.dominates(a) and merged.dominates(b)
    # Least: decreasing any entry below max(a, b) loses domination.
    for proc in merged.processes():
        assert merged.get(proc) == max(a.get(proc), b.get(proc))


@given(clocks, st.integers(0, 7))
def test_increment_strictly_increases(clock, proc):
    bumped = clock.increment(proc)
    assert clock < bumped
    assert bumped.get(proc) == clock.get(proc) + 1


@given(clocks, clocks)
def test_partial_order_antisymmetry(a, b):
    if a.dominates(b) and b.dominates(a):
        assert a == b


@given(clocks, clocks, clocks)
def test_partial_order_transitivity(a, b, c):
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)


@given(clocks, clocks)
def test_trichotomy_of_comparisons(a, b):
    relations = [a < b, b < a, a == b, a.concurrent_with(b)]
    assert sum(relations) == 1


@given(st.lists(clocks, max_size=5))
def test_join_all_dominates_each(clock_list):
    joined = VectorClock.join_all(clock_list)
    for clock in clock_list:
        assert joined.dominates(clock)


# -- oracle: the dense clock against a naive dict model -------------------

#: Entries with explicit zeros, also in the last (highest) position.
zero_heavy = st.dictionaries(
    st.integers(0, 9), st.integers(0, 3) | st.just(0), max_size=8
)
procs = st.integers(0, 11)


def model(entries):
    """The naive model: a dict of the nonzero entries."""
    return {proc: count for proc, count in entries.items() if count > 0}


def model_ready(ts, local, sender):
    """The readiness predicate as the protocols wrote it over ``get``."""
    if ts.get(sender) != local.get(sender) + 1:
        return False
    return all(ts.get(proc) <= local.get(proc) for proc in ts.processes() if proc != sender)


@given(zero_heavy)
def test_get_processes_and_repr_match_model(entries):
    clock, naive = VectorClock(entries), model(entries)
    for proc in range(-2, 13):
        assert clock.get(proc) == naive.get(proc, 0)
    assert list(clock.processes()) == sorted(naive)
    inner = ", ".join(f"{proc}:{naive[proc]}" for proc in sorted(naive))
    assert repr(clock) == f"VC({{{inner}}})"


@given(zero_heavy, zero_heavy)
def test_equality_and_hash_match_model(a, b):
    assert (VectorClock(a) == VectorClock(b)) == (model(a) == model(b))
    assert VectorClock(a) == VectorClock(model(a))
    assert hash(VectorClock(a)) == hash(VectorClock(model(a)))


@given(zero_heavy, zero_heavy)
def test_merge_and_dominates_match_model(a, b):
    naive_a, naive_b = model(a), model(b)
    joined = {
        proc: max(naive_a.get(proc, 0), naive_b.get(proc, 0))
        for proc in set(naive_a) | set(naive_b)
    }
    merged = VectorClock(a).merge(VectorClock(b))
    assert merged == VectorClock(joined)
    assert model({proc: merged.get(proc) for proc in range(12)}) == joined
    assert VectorClock(a).dominates(VectorClock(b)) == all(
        naive_a.get(proc, 0) >= count for proc, count in naive_b.items()
    )


@given(zero_heavy, procs)
def test_increment_matches_model(entries, proc):
    naive = model(entries)
    naive[proc] = naive.get(proc, 0) + 1
    assert VectorClock(entries).increment(proc) == VectorClock(naive)


#: A local clock, a sender and a timestamp near the local clock: the
#: sender's entry is mostly the next one, the others mostly not ahead, so
#: the readiness predicate comes out both ways.
@st.composite
def stamp_near(draw):
    local = draw(zero_heavy)
    sender = draw(procs)
    deltas = draw(
        st.dictionaries(st.integers(0, 11), st.sampled_from([-2, -1, 0, 0, 0, 1]), max_size=12)
    )
    deltas[sender] = draw(st.sampled_from([1, 1, 1, 0, 2, -1]))
    stamp = {
        proc: max(0, local.get(proc, 0) + deltas.get(proc, 0))
        for proc in set(local) | set(deltas)
    }
    return VectorClock(stamp), VectorClock(local), sender


@given(stamp_near())
def test_causally_ready_matches_get_based_predicate(case):
    stamp, local, sender = case
    assert stamp.causally_ready(local, sender) == model_ready(stamp, local, sender)


@given(zero_heavy, procs)
def test_next_write_from_sender_is_ready(entries, sender):
    local = VectorClock(entries)
    assert local.increment(sender).causally_ready(local, sender)
    assert not local.causally_ready(local, sender)
