"""Test doubles for the progressive procedures: a source that serves a
fixed list of items, and the acceptance tests the codec tests pass in."""

import numpy as np


class ListSource:
    """Serves items in a fixed order; counts the items read and the rounds
    (fetches that returned something)."""

    def __init__(self, items):
        self.items = list(items)
        self.pos = self.rounds = 0

    def fetch(self, count):
        out = self.items[self.pos : self.pos + count]
        self.pos += len(out)
        self.rounds += bool(out)
        return out


class ListCollector(ListSource):
    """Serves chunks in a fixed node order."""

    def __init__(self, chunks, order):
        super().__init__((i, chunks[i]) for i in order)


def accept_truth(truth):
    return lambda stripes: stripes if np.array_equal(stripes, truth) else None


def accept_checksum(checksum, crc_of):
    return lambda chunk: chunk if crc_of(chunk) == checksum else None
