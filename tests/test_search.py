import numpy as np
from hypothesis import given, settings, strategies as st

from trackstitch.search import gather, run_rounds

# runs of 0..40 positions each, starting anywhere, and a keep flag per cell
runs_and_masks = st.lists(
    st.tuples(st.integers(0, 1000), st.lists(st.booleans(), max_size=40)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(runs_and_masks, st.integers(1, 50))
def test_gather_yields_every_kept_cell_once_in_full_batches(runs, size):
    first = np.array([f for f, _ in runs], dtype=np.int64)
    stop = first + [len(mask) for _, mask in runs]
    # each cell's keep flag, at its place in the runs laid end to end
    flags = np.array([flag for _, mask in runs for flag in mask], dtype=bool)
    offset = np.cumsum([0] + [len(mask) for _, mask in runs])
    expected = [(k, f + p) for k, (f, mask) in enumerate(runs) for p, flag in enumerate(mask)
                if flag]
    events, walked = [], []

    def keep(run, pos):
        assert 0 < run.size <= size
        walked.extend(zip(run.tolist(), pos.tolist()))
        kept = flags[offset[run] + pos - first[run]]
        events.append(("block", int(kept.sum())))
        return kept

    batches = []
    for run, pos in gather(first, stop, size, keep):
        events.append(("batch", run.size))
        # a batch is overwritten by the next one, so keep a copy
        batches.append(list(zip(run.tolist(), pos.tolist())))
    # keep saw every cell of the runs once, in run order
    assert walked == [(k, f + p) for k, (f, mask) in enumerate(runs) for p in range(len(mask))]
    assert [cell for batch in batches for cell in batch] == expected
    assert all(0 < len(batch) <= size for batch in batches)
    assert not expected or events[-1][0] == "batch"
    # every batch but the last is yielded only because the block just
    # walked would overflow it
    for (kind, cells), (before, kept) in zip(events[1:-1], events):
        if kind == "batch":
            assert before == "block" and cells + kept > size


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=40), st.integers(1, 9),
       st.sampled_from([(2.5e-7, 4), (4e-3, 2), (0.1, 8)]))
def test_run_rounds_grows_the_bound_until_no_row_is_pending(needs, chunk_rows, start_grow):
    # row i stays pending until it has been handed to chunk needs[i] times
    start, grow = start_grow
    needs = np.array(needs)
    visits = np.zeros(needs.size, dtype=np.int64)
    calls = []

    def chunk(part, bound):
        calls.append((part.copy(), bound))
        visits[part] += 1
        return part[visits[part] < needs[part]], 3 * part.size

    rounds, scored = run_rounds(np.arange(needs.size), chunk_rows, start, grow, chunk)
    assert rounds == needs.max()
    assert scored == 3 * needs.sum()
    assert np.array_equal(visits, needs)
    seen = 0
    for r in range(rounds):
        pending = np.flatnonzero(needs > r)
        parts = [part for part, _ in calls[seen:seen + -(-pending.size // chunk_rows)]]
        seen += len(parts)
        # every pending row, in order, chunk_rows at a time, at this round's bound
        assert all(part.size <= chunk_rows for part in parts)
        assert np.array_equal(np.concatenate(parts), pending)
        # grow is a power of 2, so start * grow**r is exact
        assert all(b == start * grow**r for _, b in calls[seen - len(parts):seen])
    assert seen == len(calls)
