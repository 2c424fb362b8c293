"""Which pairs of rectangles lie within a gap of each other?

One array kernel answers that question for every pairwise layout check:
the quantum spacing rule (Section III-C), the Eq. 4 qubit hotspot scan
and the Eq. 1 overlap scan.  Rectangles are hashed into square grid
cells whose pitch covers the largest rectangle plus the gap, so every
candidate partner of a rectangle sits in its own cell or one of the
eight around it.  Only half of that neighbourhood is visited (the cell
itself plus four forward offsets), so each unordered pair is generated
once, and the candidate pairs are expanded in bounded chunks so memory
stays proportional to the chunk size rather than to the number of
candidates.
"""

from __future__ import annotations

import numpy as np

#: The cell itself plus the forward half of its eight neighbours: for
#: every offset ``o`` exactly one of ``o`` and ``-o`` is listed.
_HALF_OFFSETS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))

#: Candidate pairs tested per chunk (the last rectangle of a chunk may
#: overshoot by one cell's population).
_CHUNK = 1 << 12

#: Most grid cells per axis; a wider pitch is always correct, it only
#: admits more candidates.
_MAX_CELLS = 4096


def rect_arrays(rects) -> tuple:
    """``(centers, sizes)`` as two ``(n, 2)`` float arrays of ``Rect`` data."""
    boxes = np.array(
        [(r.cx, r.cy, r.w, r.h) for r in rects], dtype=np.float64
    ).reshape(-1, 4)
    return (boxes[:, :2], boxes[:, 2:])


def pairs_within(centers, sizes, max_gap: float) -> tuple:
    """Index pairs ``(i, j)``, ``i < j``, of rectangles within ``max_gap``.

    ``centers`` and ``sizes`` are ``(n, 2)`` arrays of rectangle centres
    and ``(w, h)`` sizes.  Returns two int64 arrays sorted
    lexicographically by ``(i, j)``.  The per-axis separations are
    computed exactly as :func:`~repro.geometry.gap_between` computes
    them, so a pair separated along one axis only is kept iff its gap is
    ``<= max_gap``.  Diagonal pairs are compared on squared distance
    with a ``1e-12`` relative slack, so the result is a superset of the
    pairs whose ``gap_between`` is ``<= max_gap``; callers needing an
    exact threshold re-check the survivors with ``gap_between``.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    sizes = np.asarray(sizes, dtype=np.float64).reshape(-1, 2)
    n = len(centers)
    none = np.zeros(0, dtype=np.int64)
    if n < 2 or not max_gap >= 0.0:
        return (none, none)
    lo = centers - sizes / 2.0
    hi = centers + sizes / 2.0
    box = np.hstack((lo, hi))

    # Cell pitch: a partner's centre is at most (largest side + gap)
    # away per axis; the margin absorbs rounding in the cell division.
    origin = centers.min(axis=0)
    span = float((centers.max(axis=0) - origin).max())
    scale = float(np.abs(np.concatenate((lo, hi))).max())
    pitch = (float(sizes.max()) + max_gap) * (1.0 + 1e-9) + 1e-9 * scale
    pitch = max(pitch, span / _MAX_CELLS)
    if not pitch > 0.0:
        pitch = 1.0
    cell = np.floor((centers - origin) / pitch).astype(np.int64)
    stride = int(cell[:, 1].max()) + 3
    key = cell[:, 0] * stride + cell[:, 1] + 1

    order = np.argsort(key, kind="stable")
    cell_keys, cell_start, cell_count = np.unique(
        key[order], return_index=True, return_counts=True
    )
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    own = np.searchsorted(cell_keys, key)

    # Per (rectangle, offset): where its candidates start in ``order``
    # and how many there are.  Within its own cell a rectangle pairs
    # only with those sorted after it.
    src, start, count = [], [], []
    for dx, dy in _HALF_OFFSETS:
        if (dx, dy) == (0, 0):
            src.append(np.arange(n, dtype=np.int64))
            start.append(rank + 1)
            count.append(cell_start[own] + cell_count[own] - rank - 1)
            continue
        target = key + dx * stride + dy
        at = np.minimum(np.searchsorted(cell_keys, target), len(cell_keys) - 1)
        hit = cell_keys[at] == target
        src.append(np.flatnonzero(hit))
        start.append(cell_start[at[hit]])
        count.append(cell_count[at[hit]])
    src = np.concatenate(src)
    start = np.concatenate(start)
    count = np.concatenate(count)
    busy = count > 0
    src, start, count = src[busy], start[busy], count[busy]
    ends = np.cumsum(count)

    limit = max_gap * max_gap * (1.0 + 1e-12)
    found_i, found_j = [], []
    first = 0
    while first < len(count):
        base = int(ends[first - 1]) if first else 0
        last = int(np.searchsorted(ends, base + _CHUNK, side="right"))
        last = max(last, first + 1)
        cnt = count[first:last]
        offset = np.arange(int(ends[last - 1]) - base, dtype=np.int64)
        offset -= np.repeat(ends[first:last] - base - cnt, cnt)
        a = np.repeat(src[first:last], cnt)
        b = order[np.repeat(start[first:last], cnt) + offset]
        first = last

        # gap_between's per-axis separations, elementwise.
        box_a, box_b = box[a], box[b]
        d = np.maximum(box_a[:, :2], box_b[:, :2])
        d -= np.minimum(box_a[:, 2:], box_b[:, 2:])
        np.maximum(d, 0.0, out=d)
        gx, gy = d[:, 0], d[:, 1]
        keep = (gx <= max_gap) & (gy <= max_gap)
        keep &= (gx == 0.0) | (gy == 0.0) | (gx * gx + gy * gy <= limit)
        a, b = a[keep], b[keep]
        found_i.append(np.minimum(a, b))
        found_j.append(np.maximum(a, b))
    if not found_i:
        return (none, none)
    i = np.concatenate(found_i)
    j = np.concatenate(found_j)
    lex = np.lexsort((j, i))
    return (i[lex], j[lex])
