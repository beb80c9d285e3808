"""Fixed-capacity FIFO ring of unit-norm key embeddings used as negatives."""

from __future__ import annotations

import numpy as np

_UNIT_TOL = 1e-8


class MemoryBank:
    """Ring buffer of the most recent `capacity` embeddings.

    Rows live outside any gradient tape: negatives_view() hands back a plain
    array that the losses treat as constants.
    """

    def __init__(self, capacity, width):
        if capacity < 1 or width < 1:
            raise ValueError("capacity and width must be positive")
        self.capacity = int(capacity)
        self.width = int(width)
        self.storage = np.zeros((self.capacity, self.width))
        self.cursor = 0
        self.fill = 0

    def enqueue(self, rows):
        """Write rows at the cursor, overwriting the oldest entries first."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[0] == 0:
            return self
        if rows.shape[1] != self.width:
            raise ValueError(f"expected width {self.width}, got {rows.shape[1]}")
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > _UNIT_TOL)
        if bad.size:
            raise ValueError(f"row {bad[0]} is not unit-norm (norm {norms[bad[0]]:.6g})")
        n = rows.shape[0]
        # only the last `capacity` rows survive; they start where the
        # row-by-row writes would have put them
        kept = rows[-self.capacity:]
        start = (self.cursor + n - kept.shape[0]) % self.capacity
        head = min(kept.shape[0], self.capacity - start)
        self.storage[start:start + head] = kept[:head]
        self.storage[:kept.shape[0] - head] = kept[head:]
        self.cursor = (self.cursor + n) % self.capacity
        self.fill = min(self.capacity, self.fill + n)
        return self

    def negatives_view(self):
        """Read-only view of the filled rows, in storage order (the losses
        never care). It shares memory with the bank, so the next enqueue
        changes it: read it before then, and copy what must outlive it."""
        view = self.storage[:self.fill]
        view.setflags(write=False)
        return view

    def state(self):
        return self.storage.copy(), self.cursor, self.fill

    @classmethod
    def from_state(cls, storage, cursor, fill):
        bank = cls(storage.shape[0], storage.shape[1])
        bank.storage = np.array(storage, dtype=np.float64)
        bank.cursor = int(cursor)
        bank.fill = int(fill)
        return bank
