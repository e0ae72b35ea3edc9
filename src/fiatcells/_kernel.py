"""
The associativity and star kernels of :func:`fiatcells.model.validate`,
the one part of the package that needs numpy; ``model`` imports it when
a table is first validated.

The associativity kernel never sorts.  Both sides of every (h, g, f) it
reads are expanded into (slot, product) terms, where the slot of summand
m of the pair g∘f is ``pair * n + m``, and scatter-added into one
accumulator: (h∘g)∘f with ``np.add.at``, h∘(g∘f) with
``np.subtract.at``.  A slot left non-zero witnesses a violation.  Pairs
are numbered target group by target group, so the pairs of a run of g
rows are consecutive and their slots one range; the accumulator covers
one such run (a block) at a time.  It is allocated once per call, and
after each block only the slots that block left non-zero are cleared, so
the work follows the number of terms, not the number of slots (n⁴ for a
table on one object).

It reads each triple at most once, and only where the triple can fail.
A triple with an identity in it holds by the unit law, which
``MultiCat.compose_idx`` applies, so no identity is read as h, g or f.
When star is an involutive anti-automorphism, it carries (h∘g)∘f to
(f*∘g*)∘h* and h∘(g∘f) to f*∘(g*∘h*), so (h, g, f) fails exactly when
(f*, g*, h*) does: the kernel then reads only the g with star(g) ≥ g and
adds the mirror of each violation it finds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# accumulator slots per kernel block: a run of g rows whose pairs hold at
# most this many slots (one g row on its own may hold more).  Keeps the
# accumulator at 1 MB of int64 whatever the size of the table; on the
# 120-morph S5 table 2^18 ran ~8% faster but raised peak memory ~4%
_SLOT_BUDGET = 1 << 17


@dataclass(frozen=True)
class _Compiled:
    """Every composable composite of a table, unit law applied, as index arrays.

    ``into[o]`` holds the morphs with target o in three runs, each
    ascending: first the non-identities m with star(m) ≥ m (the first
    ``mirrored[o]``), then the other non-identities, then the identity of
    o.  ``rank[m]`` is the place of m in ``into[tgt(m)]``.  ``out_of[o]``
    holds the non-identities with source o, ascending, and ``star`` the
    star of each morph.  Composable pairs (g, f) are numbered target
    group by target group: by tgt(g), then g, then f, each in the order
    of ``into``.  So g∘f is pair ``pair_first[g] + rank[f]``, the pairs
    of the g of ``into[o]`` are consecutive, in that order, the pair
    (g, identity) closes the row of g, and ``pair_g``, ``pair_f`` hold
    each pair's g and f.  Entry e says that ``k[e]`` is a summand of
    pair ``p[e]`` with multiplicity ``c[e]``; entries are sorted by
    (pair, k), and those of pair q are ``entry_first[q]:entry_first[q + 1]``.
    The ``pair_count[g]`` pairs (g, ·) begin at entry ``first[g]``, and
    the pairs (g, f) with f not an identity hold the next ``row_len[g]``
    entries.  Slots: for e in pair (x, y), ``fm[e]`` is
    ``rank[y] * n + k[e]``, the slot of k[e] in x∘y less
    ``pair_first[x] * n``, and ``lead[e]`` is ``pair_first[y] * n``, the
    first slot of the pairs (y, ·).  ``c`` is int64 when every partial
    sum the kernel forms provably fits, object (Python ints) otherwise:
    a slot collects at most n products of two multiplicities per side,
    so int64 when 2·n·max(c)² < 2^63.
    """

    n: int
    into: list[np.ndarray]
    mirrored: list[int]
    out_of: list[list[int]]
    star: np.ndarray
    rank: np.ndarray
    pair_first: np.ndarray
    pair_g: np.ndarray
    pair_f: np.ndarray
    entry_first: np.ndarray
    first: np.ndarray
    row_len: np.ndarray
    pair_count: np.ndarray
    p: np.ndarray
    k: np.ndarray
    fm: np.ndarray
    lead: np.ndarray
    c: np.ndarray


def _compile(cat) -> _Compiled:
    n = len(cat.morphs)
    star = cat.star_map
    # per target object: the mirrored non-identities, the others, the identity
    runs: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in cat.objects]
    out_of: list[list[int]] = [[] for _ in cat.objects]
    for m in cat.morphs:
        mirrored, others, identity = runs[m.tgt.index]
        if m.is_identity:
            identity.append(m.index)
        else:
            (mirrored if star[m.index] >= m.index else others).append(m.index)
            out_of[m.src.index].append(m.index)
    into = [a + b + c for a, b, c in runs]
    rank = [0] * n
    for members in into:
        for r, m in enumerate(members):
            rank[m] = r
    pair_first = [0] * n
    pair_g: list[int] = []
    pair_f: list[int] = []
    outs: list[dict[int, int]] = []  # g∘f of each pair
    for gs in into:
        for g in gs:
            pair_first[g] = len(outs)
            for f in into[cat.morphs[g].src.index]:
                pair_g.append(g)
                pair_f.append(f)
                outs.append(cat.compose_idx(g, f))
    # a slot is pair * n + m < pairs * n; offsets stay below it too
    index = np.int32 if len(outs) * n < 2**31 else np.int64
    # a side of one (h, g, f, m) sums at most n products of two entries,
    # and the accumulator holds the left side less a part of the right
    biggest = max(max(out.values(), default=1) for out in outs)
    exact = np.int64 if 2 * n * biggest * biggest < 2**63 else object
    sizes = np.fromiter(map(len, outs), dtype=index, count=len(outs))
    entries = np.concatenate(([0], np.cumsum(sizes))).astype(index)
    rank_arr = np.array(rank, dtype=index)
    pair_first = np.array(pair_first, dtype=index)
    pair_f_arr = np.array(pair_f, dtype=index)
    pair_count = np.array([len(into[m.src.index]) for m in cat.morphs], dtype=index)
    first = entries[pair_first]
    p = np.repeat(np.arange(len(outs), dtype=index), sizes)
    k = np.fromiter((k for out in outs for k in sorted(out)), dtype=index, count=entries[-1])
    return _Compiled(
        n=n,
        into=[np.array(members, dtype=index) for members in into],
        mirrored=[len(mirrored) for mirrored, _, _ in runs],
        out_of=out_of,
        star=np.array(star, dtype=index),
        rank=rank_arr,
        pair_first=pair_first,
        pair_g=np.array(pair_g, dtype=index),
        pair_f=pair_f_arr,
        entry_first=entries,
        first=first,
        # every row ends with its pair (g, identity)
        row_len=entries[pair_first + pair_count - 1] - first,
        pair_count=pair_count,
        p=p,
        k=k,
        fm=rank_arr[pair_f_arr[p]] * n + k,
        lead=pair_first[pair_f_arr[p]] * n,
        c=np.fromiter(
            (out[k] for out in outs for k in sorted(out)), dtype=exact, count=entries[-1]
        ),
    )


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] : starts[i] + lengths[i], concatenated."""
    ends = np.cumsum(lengths, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    # the dtype of starts holds every index; offsets may need int64
    dtype = starts.dtype if total < 2**31 else np.int64
    offsets = np.repeat((starts - ends + lengths).astype(dtype), lengths)
    return np.arange(total, dtype=dtype) + offsets


def _scatter(ufunc, acc, c, slot, mult, starts, lengths, inner) -> np.ndarray:
    """Apply ``ufunc.at`` to ``acc`` with ``mult[i] * c[j]`` at slot
    ``slot[i] + inner[j]``, for j in starts[i] : starts[i] + lengths[i];
    return the slots."""
    j = _spans(starts, lengths)
    slots = np.repeat(slot, lengths) + inner[j]
    ufunc.at(acc, slots, np.repeat(mult, lengths) * c[j])
    return slots


def _rows(t: _Compiled, mirror: bool) -> list[tuple[np.ndarray, list[int]]]:
    """The (g rows, h rows) the kernel reads, per object: the g with
    star(g) ≥ g when ``mirror``, every non-identity g otherwise, and every
    non-identity h; objects that leave either empty are left out."""
    rows = []
    for gs, mirrored, hs in zip(t.into, t.mirrored, t.out_of):
        gs = gs[:mirrored] if mirror else gs[:-1]
        if len(gs) and hs:
            rows.append((gs, hs))
    return rows


def _blocks(t: _Compiled, gs: np.ndarray) -> list[tuple[int, int, int]]:
    """Runs a:b of ``gs`` whose pairs hold at most ``_SLOT_BUDGET`` slots,
    with the slots each holds; a g whose own pairs hold more is a run."""
    runs, a, used = [], 0, 0
    for i, slots in enumerate((t.pair_count[gs] * t.n).tolist()):
        if used and used + slots > _SLOT_BUDGET:
            runs.append((a, i, used))
            a, used = i, 0
        used += slots
    runs.append((a, len(gs), used))
    return runs


def _associativity_violations(t: _Compiled, mirror: bool) -> list[tuple[int, int, int]]:
    """Every (h, g, f) with (h∘g)∘f != h∘(g∘f), in sorted order.

    ``mirror`` says that star is an involutive anti-automorphism of the
    table; the kernel then reads only the g with star(g) ≥ g and adds
    the mirror (f*, g*, h*) of each violation.  For each block of g rows,
    and for each non-identity h, the terms of (h∘g)∘f, f not an
    identity, are added into the accumulator and those of h∘(g∘f)
    subtracted, each at its slot less the block's first slot.  The slots
    left non-zero name the violating pairs (g, f) and are zeroed for the
    next block.
    """
    n, k, c, first, row_len, entry_first = t.n, t.k, t.c, t.first, t.row_len, t.entry_first
    blocks = [(gs, hs, _blocks(t, gs)) for gs, hs in _rows(t, mirror)]
    used = [used for _, _, runs in blocks for _, _, used in runs]
    acc = np.zeros(max(used, default=0), dtype=c.dtype)
    bad = []
    for gs, hs, runs in blocks:
        for a, b, _ in runs:
            base = t.pair_first[gs[a]]  # the block's first pair
            # h∘(g∘f): each entry of g∘f, a summand k' times h∘k'
            rows = _spans(first[gs[a:b]], row_len[gs[a:b]])
            row_rank = t.rank[k[rows]]
            row_slot = (t.p[rows] - base) * n
            row_c = c[rows]
            for h in hs:
                h_pairs = entry_first[t.pair_first[h]:]  # h∘g starts at h_pairs[rank[g]]
                # (h∘g)∘f: each entry of h∘g, a summand k times k∘f
                s, e = h_pairs[a], h_pairs[b]
                left = _scatter(
                    np.add, acc, c, t.lead[s:e] - base * n, c[s:e],
                    first[k[s:e]], row_len[k[s:e]], t.fm,
                )
                hk_first = h_pairs[row_rank]
                right = _scatter(
                    np.subtract, acc, c, row_slot, row_c,
                    hk_first, h_pairs[row_rank + 1] - hk_first, k,
                )
                slots = np.concatenate(
                    (left[np.flatnonzero(acc[left])], right[np.flatnonzero(acc[right])])
                )
                if len(slots):
                    acc[slots] = 0
                    for pair in set((slots // n + base).tolist()):
                        bad.append((h, int(t.pair_g[pair]), int(t.pair_f[pair])))
    if mirror:
        star = t.star.tolist()
        bad = set(bad) | {(star[f], star[g], star[h]) for h, g, f in bad}
    return sorted(bad)  # h runs object by object


def _star_violations(t: _Compiled) -> list[tuple[int, int]]:
    """Every composable (g, f) with star(g∘f) != star(f)∘star(g), in
    sorted order; star must be an involution that swaps ends, so that
    star(f)∘star(g) is composable.

    Entries are sorted by (pair, k), so ``p * n + k`` is a sorted key;
    each entry (k, c) of g∘f is looked up as (star(k), c) in the pair
    star(f)∘star(g).  As star is one to one, the two sides are equal
    exactly when every lookup hits and the pairs hold as many summands.
    """
    n, star, p, k, c = t.n, t.star, t.p, t.k, t.c
    mirror = t.pair_first[star[t.pair_f]] + t.rank[star[t.pair_g]]
    sizes = np.diff(t.entry_first)
    key = p * n + k  # below pairs * n, which the index dtype holds
    want = mirror[p] * n + star[k]
    at = np.minimum(np.searchsorted(key, want), len(key) - 1)
    missed = (key[at] != want) | (c[at] != c)
    # a mask rather than np.union1d, whose sort pages in ~1 MB of numpy code
    bad = sizes != sizes[mirror]
    bad[p[missed]] = True
    bad = np.flatnonzero(bad)
    return sorted(zip(t.pair_g[bad].tolist(), t.pair_f[bad].tolist()))
