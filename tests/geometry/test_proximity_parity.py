"""Parity: the ``pairs_within`` grid hash and its three callers against
the scalar O(n²) loops they replaced.

The references below are verbatim transcriptions of the historical
``qubit_hotspot_pairs``, ``qubit_spacing_violations`` and bucketed
``check_legality`` loops.  Spacing and hotspot lists must match in order
and value (``analysis_to_dict`` and the Eq. 7 fidelity product fold over
them in order); overlap violations must match as a multiset.  Layouts
mix rect sizes, overlap freely (unlegalized), and sit on a quarter-unit
lattice so edges touch exactly, gaps land exactly on the thresholds and
diagonal corners meet; a jittered variant exercises rounding.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.geometry.proximity as pair_kernel
from repro.frequency.hotspots import HotspotPair, qubit_hotspot_pairs
from repro.frequency.proximity import tau
from repro.geometry import (
    Rect,
    SiteGrid,
    adjacency_length,
    gap_between,
    pairs_within,
    rect_arrays,
)
from repro.metrics.legality import (
    LegalityViolation,
    check_legality,
    qubit_spacing_violations,
)
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock

DELTA_C = 0.04


# -- verbatim scalar references ------------------------------------------------
def _all_rects(netlist):
    out = [(("q", q.index), q.rect) for q in netlist.qubits]
    out.extend(
        (("b", b.resonator_key, b.ordinal), b.rect) for b in netlist.wire_blocks
    )
    return out


def reference_qubit_hotspot_pairs(netlist, reach, delta_c):
    pairs = []
    qubits = netlist.qubits
    for a_pos, qa in enumerate(qubits):
        for qb in qubits[a_pos + 1 :]:
            gap = gap_between(qa.rect, qb.rect)
            if gap > reach:
                continue
            t = tau(qa.frequency, qb.frequency, delta_c)
            if t <= 0.0:
                continue
            adjacency = adjacency_length(qa.rect, qb.rect, reach)
            if adjacency <= 0.0:
                continue
            decay = max(0.0, 1.0 - gap / reach)
            contribution = adjacency * decay * t
            if contribution > 0.0:
                pairs.append(
                    HotspotPair(
                        ("q", qa.index),
                        ("q", qb.index),
                        adjacency,
                        gap,
                        t,
                        contribution,
                    )
                )
    return pairs


def reference_qubit_spacing_violations(netlist, min_spacing, tol=1e-6):
    violations = []
    qubits = netlist.qubits
    for a_pos, qa in enumerate(qubits):
        for qb in qubits[a_pos + 1 :]:
            gap = gap_between(qa.rect, qb.rect)
            if gap < min_spacing - tol:
                violations.append(
                    LegalityViolation(
                        "qubit_spacing",
                        ("q", qa.index),
                        ("q", qb.index),
                        min_spacing - gap,
                    )
                )
    return violations


def reference_check_legality(netlist, grid, tol=1e-6):
    violations = []
    border = grid.border
    rects = _all_rects(netlist)

    for cid, rect in rects:
        if not rect.inside(border, tol):
            excess = max(
                border.xlo - rect.xlo,
                rect.xhi - border.xhi,
                border.ylo - rect.ylo,
                rect.yhi - border.yhi,
            )
            violations.append(LegalityViolation("border", cid, None, excess))

    cell = max(max(r.w, r.h) for _, r in rects)
    buckets = {}
    for k, (_cid, rect) in enumerate(rects):
        key = (int(math.floor(rect.cx / cell)), int(math.floor(rect.cy / cell)))
        buckets.setdefault(key, []).append(k)
    for (bx, by), members in buckets.items():
        neighborhood = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighborhood.extend(buckets.get((bx + dx, by + dy), ()))
        for i in members:
            cid_i, rect_i = rects[i]
            for j in neighborhood:
                if j <= i:
                    continue
                cid_j, rect_j = rects[j]
                if rect_i.overlaps(rect_j, tol):
                    overlap = min(
                        rect_i.xhi - rect_j.xlo,
                        rect_j.xhi - rect_i.xlo,
                        rect_i.yhi - rect_j.ylo,
                        rect_j.yhi - rect_i.ylo,
                    )
                    violations.append(
                        LegalityViolation("overlap", cid_i, cid_j, overlap)
                    )
    return violations


def brute_pairs_within(rects, max_gap):
    return [
        (i, j)
        for i in range(len(rects))
        for j in range(i + 1, len(rects))
        if gap_between(rects[i], rects[j]) <= max_gap
    ]


# -- strategies ------------------------------------------------------------------
lattice = st.integers(0, 64).map(lambda k: k * 0.25)
jittered = st.floats(0.0, 16.0, allow_nan=False, allow_infinity=False)
qubit_side = st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.5])
block_side = st.sampled_from([0.5, 1.0, 1.5])
freq_st = st.sampled_from([6.98, 7.0, 7.01, 7.03, 7.1])
#: Gaps on either side of the rect sizes (and so of the hash pitch).
gap_st = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.5, 7.0, 20.0])


@st.composite
def netlists(draw, min_qubits=0, max_qubits=10):
    coord = draw(st.sampled_from([lattice, jittered]))
    nl = QuantumNetlist()
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    for index in range(num_qubits):
        nl.add_qubit(
            Qubit(
                index=index,
                w=draw(qubit_side),
                h=draw(qubit_side),
                x=draw(coord),
                y=draw(coord),
                frequency=draw(freq_st),
            )
        )
    if num_qubits >= 2 and draw(st.booleans()):
        resonator = nl.add_resonator(
            Resonator(qi=0, qj=1, wirelength=4.0, frequency=draw(freq_st))
        )
        resonator.blocks = [
            WireBlock(
                resonator_key=resonator.key,
                ordinal=k,
                size=draw(block_side),
                x=draw(coord),
                y=draw(coord),
                frequency=resonator.frequency,
            )
            for k in range(draw(st.integers(0, 12)))
        ]
    return nl


# -- the kernel ------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(nl=netlists(max_qubits=14), max_gap=gap_st)
def test_pairs_within_matches_brute_force(nl, max_gap):
    rects = [rect for _, rect in _all_rects(nl)]
    first, second = pairs_within(*rect_arrays(rects), max_gap)
    got = list(zip(first.tolist(), second.tolist()))
    assert got == sorted(set(got))  # unique, lexicographic
    assert all(i < j for i, j in got)
    want = brute_pairs_within(rects, max_gap)
    assert set(want) <= set(got)
    # Extras may only be diagonal pairs inside the documented slack.
    for i, j in set(got) - set(want):
        assert gap_between(rects[i], rects[j]) <= max_gap * (1.0 + 1e-9)


@pytest.mark.parametrize("count", [0, 1])
def test_pairs_within_trivial_inputs(count):
    rects = [Rect(1.0, 1.0, 1.0, 1.0)] * count
    first, second = pairs_within(*rect_arrays(rects), 5.0)
    assert first.tolist() == [] and second.tolist() == []
    assert first.dtype == np.int64


def test_pairs_within_rejects_negative_gap():
    rects = [Rect(1.0, 1.0, 2.0, 2.0), Rect(1.0, 1.0, 2.0, 2.0)]
    assert pairs_within(*rect_arrays(rects), -0.5)[0].tolist() == []
    assert pairs_within(*rect_arrays(rects), 0.0)[0].tolist() == [0]


def test_pairs_within_exact_edges_and_corners():
    rects = [
        Rect(0.5, 0.5, 1.0, 1.0),
        Rect(2.5, 0.5, 1.0, 1.0),  # edge gap exactly 1.0 from rect 0
        Rect(1.5, 1.5, 1.0, 1.0),  # touches rect 0 and rect 1 corner-to-corner
        Rect(3.5, 3.5, 1.0, 1.0),  # diagonal sqrt(2) from rect 2, 2 from rect 1
    ]

    def got(max_gap):
        first, second = pairs_within(*rect_arrays(rects), max_gap)
        return list(zip(first.tolist(), second.tolist()))

    assert got(0.0) == [(0, 2), (1, 2)]
    assert got(0.999) == [(0, 2), (1, 2)]
    assert got(1.0) == [(0, 1), (0, 2), (1, 2)]
    assert got(math.sqrt(2.0)) == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert got(2.0) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("chunk", [5, pair_kernel._CHUNK])
def test_pairs_within_chunks_a_crowded_cell(monkeypatch, chunk):
    # One huge rect widens the hash pitch so every rect shares a cell;
    # the candidate expansion must still be exact across chunks, also
    # when one rect's candidates alone overflow a chunk.
    monkeypatch.setattr(pair_kernel, "_CHUNK", chunk)
    rng = np.random.default_rng(7)
    centers = rng.uniform(0.0, 40.0, (600, 2))
    sizes = np.full((600, 2), 0.5)
    sizes[0] = (80.0, 80.0)
    first, second = pairs_within(centers, sizes, 1.0)
    rects = [Rect(cx, cy, w, h) for (cx, cy), (w, h) in zip(centers, sizes)]
    want = brute_pairs_within(rects, 1.0)
    assert list(zip(first.tolist(), second.tolist())) == want


# -- the callers ---------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(nl=netlists(), reach=gap_st.filter(lambda g: g > 0.0))
def test_qubit_hotspot_pairs_match_scalar_loop(nl, reach):
    got = qubit_hotspot_pairs(nl, reach, DELTA_C)
    assert got == reference_qubit_hotspot_pairs(nl, reach, DELTA_C)


@settings(max_examples=150, deadline=None)
@given(
    nl=netlists(),
    min_spacing=gap_st,
    tol=st.sampled_from([0.0, 1e-6, 0.25]),
)
def test_qubit_spacing_violations_match_scalar_loop(nl, min_spacing, tol):
    got = qubit_spacing_violations(nl, min_spacing, tol)
    assert got == reference_qubit_spacing_violations(nl, min_spacing, tol)


@settings(max_examples=150, deadline=None)
@given(
    nl=netlists(min_qubits=1),
    side=st.integers(4, 20),
    tol=st.sampled_from([0.0, 1e-6, 0.25]),
)
def test_check_legality_matches_bucket_scan(nl, side, tol):
    grid = SiteGrid(side, side)
    got = check_legality(nl, grid, tol)
    want = reference_check_legality(nl, grid, tol)
    border = [v for v in want if v.kind == "border"]
    assert got[: len(border)] == border
    assert Counter(got[len(border) :]) == Counter(want[len(border) :])
    overlaps = [(v.id_a, v.id_b) for v in got[len(border) :]]
    order = {cid: k for k, (cid, _) in enumerate(_all_rects(nl))}
    keys = [(order[a], order[b]) for a, b in overlaps]
    assert keys == sorted(keys) and all(i < j for i, j in keys)


def test_check_legality_empty_layout():
    assert check_legality(QuantumNetlist(), SiteGrid(4, 4)) == []
