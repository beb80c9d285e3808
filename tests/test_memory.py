import numpy as np
import pytest

from vidseg.memory import MemoryBank


def unit_rows(rng, n, d=4):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_fifo_wraparound_positions():
    rng = np.random.default_rng(0)
    rows = unit_rows(rng, 6)
    bank = MemoryBank(4, 4)
    bank.enqueue(rows)
    # r5, r6 overwrote ring slots 0, 1; r3, r4 remain at slots 2, 3
    assert np.array_equal(bank.storage[0], rows[4])
    assert np.array_equal(bank.storage[1], rows[5])
    assert np.array_equal(bank.storage[2], rows[2])
    assert np.array_equal(bank.storage[3], rows[3])
    assert bank.fill == 4 and bank.cursor == 2


def test_enqueue_nothing_changes_nothing():
    bank = MemoryBank(4, 4)
    rng = np.random.default_rng(1)
    bank.enqueue(unit_rows(rng, 2))
    before = bank.state()
    bank.enqueue(np.zeros((0, 4)))
    after = bank.state()
    assert np.array_equal(before[0], after[0])
    assert before[1:] == after[1:]


def test_exact_capacity_fill_preserves_order():
    rng = np.random.default_rng(2)
    rows = unit_rows(rng, 4)
    bank = MemoryBank(4, 4)
    bank.enqueue(rows)
    assert bank.fill == 4
    assert np.array_equal(bank.negatives_view(), rows)


def test_view_is_read_only_and_state_is_a_copy():
    rng = np.random.default_rng(7)
    bank = MemoryBank(8, 4)
    bank.enqueue(unit_rows(rng, 3))
    view = bank.negatives_view()
    with pytest.raises(ValueError):
        view[0] = 0.0
    storage, _, _ = bank.state()
    assert not np.shares_memory(storage, bank.storage)
    bank.enqueue(unit_rows(rng, 2))
    assert np.array_equal(bank.negatives_view()[:3], storage[:3])


def test_view_empty_and_partial():
    bank = MemoryBank(8, 4)
    assert bank.negatives_view().shape == (0, 4)
    rng = np.random.default_rng(3)
    rows = unit_rows(rng, 3)
    bank.enqueue(rows)
    assert np.array_equal(bank.negatives_view(), rows)


def test_view_never_exceeds_capacity():
    rng = np.random.default_rng(4)
    bank = MemoryBank(8, 4)
    for _ in range(10 * 8):
        bank.enqueue(unit_rows(rng, 1))
        assert bank.negatives_view().shape[0] <= 8


def test_non_unit_rows_rejected():
    bank = MemoryBank(4, 4)
    with pytest.raises(ValueError):
        bank.enqueue(np.ones((1, 4)))


def test_width_mismatch_rejected():
    bank = MemoryBank(4, 4)
    with pytest.raises(ValueError):
        bank.enqueue(np.ones((1, 3)))


def test_matches_truncated_list_oracle():
    rng = np.random.default_rng(5)
    for capacity in (1, 7, 64):
        bank = MemoryBank(capacity, 4)
        oracle = []
        for _ in range(300):
            batch = unit_rows(rng, int(rng.integers(0, 5)))
            bank.enqueue(batch)
            oracle.extend(batch)
            kept = oracle[-capacity:]
            view = bank.negatives_view()
            assert sorted(map(tuple, view)) == sorted(map(tuple, kept))


def test_state_round_trip():
    rng = np.random.default_rng(6)
    bank = MemoryBank(5, 4)
    bank.enqueue(unit_rows(rng, 7))
    storage, cursor, fill = bank.state()
    clone = MemoryBank.from_state(storage, cursor, fill)
    assert np.array_equal(clone.negatives_view(), bank.negatives_view())
    assert clone.cursor == bank.cursor and clone.fill == bank.fill
