"""Deterministic bucket queue for the batch execution engine.

:class:`BucketQueue` groups submitted items under a bucket key and
drains whole buckets in an order *scrambled* relative to submission:
buckets complete in the hash order of their keys, not the order their
first request arrived.  The scramble is deterministic (a blake2b digest
of the key, no wall clock, no randomness), so runs replay identically —
but it deliberately interleaves buckets the way a real multi-queue
server would, which is exactly the condition ``gather()``'s
submission-order guarantee must survive (and what the batch stress test
exercises).

Items *within* a bucket keep their submission order: stacked execution
assigns lane ``i`` of the batch axis to the bucket's ``i``-th request.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generic, Hashable, Iterator, List, Tuple, TypeVar

T = TypeVar("T")


def scramble(key: Hashable) -> str:
    """The deterministic drain-order digest for a bucket key."""
    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()


class BucketQueue(Generic[T]):
    """Insertion-ordered buckets, drained in scrambled key order."""

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, List[T]] = {}

    def add(self, key: Hashable, item: T) -> None:
        self._buckets.setdefault(key, []).append(item)

    def __len__(self) -> int:
        return sum(len(items) for items in self._buckets.values())

    def drain(self) -> Iterator[Tuple[Hashable, List[T]]]:
        """Yield ``(key, items)`` per bucket and empty the queue.

        Buckets come out sorted by :func:`scramble` digest (ties broken
        by insertion order — practically unreachable with an 8-byte
        digest); items within a bucket keep submission order.
        """
        order = sorted(
            enumerate(self._buckets.items()),
            key=lambda pair: (scramble(pair[1][0]), pair[0]),
        )
        self._buckets = {}
        for _, (key, items) in order:
            yield key, items
