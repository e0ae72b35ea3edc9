"""
The associativity kernel of :func:`fiatcells.model.validate`, the one
part of the package that needs numpy; ``model`` imports it when a table
is first validated.

The kernel never sorts.  Both sides of every (h, g, f) are expanded into
(slot, product) terms, where the slot of summand m of the pair g∘f is
``pair * n + m``, and scatter-added into one accumulator: (h∘g)∘f with
``np.add.at``, h∘(g∘f) with ``np.subtract.at``.  A slot left non-zero
witnesses a violation.  Pairs are numbered target group by target group,
so the pairs of a run of g rows are consecutive and their slots one
range; the accumulator covers one such run (a block) at a time.  It is
allocated once per call, and after each block only the slots that block
left non-zero are cleared, so the work follows the number of terms, not
the number of slots (n⁴ for a table on one object).
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

    ``into[o]`` and ``out_of[o]`` are the morphs with target and with
    source o, ascending; ``rank[m]`` is the place of m in ``into[tgt(m)]``.
    Composable pairs (g, f) are numbered target group by target group:
    by tgt(g), then g, then f.  So g∘f is pair ``pair_first[g] + rank[f]``,
    the pairs of the g of ``into[o]`` are consecutive, in that order, and
    ``pair_g``, ``pair_f`` hold each pair's g and f.  Entry e says that
    ``k[e]`` is a summand of pair ``p[e]`` with multiplicity ``c[e]``;
    entries are sorted by (pair, k), those of pair q are
    ``entry_first[q]:entry_first[q + 1]``, and those of the
    ``pair_count[g]`` pairs (g, ·) are ``first[g]:first[g] + row_len[g]``.
    Slots: for e in pair (x, y), ``fm[e]`` is ``rank[y] * n + k[e]``, the
    slot of k[e] in x∘y less ``pair_first[x] * n``, and ``lead[e]`` is
    ``pair_first[y] * n``, the first slot of the pairs (y, ·).  ``c`` is int64 when every partial sum
    the kernel forms provably fits, object (Python ints) otherwise: a slot
    collects at most n products of two multiplicities per side, so int64
    when 2·n·max(c)² < 2^63.
    """

    n: int
    into: list[np.ndarray]
    out_of: list[list[int]]
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
    into: list[list[int]] = [[] for _ in cat.objects]
    out_of: list[list[int]] = [[] for _ in cat.objects]
    for m in cat.morphs:
        into[m.tgt.index].append(m.index)
        out_of[m.src.index].append(m.index)
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
        out_of=out_of,
        rank=rank_arr,
        pair_first=pair_first,
        pair_g=np.array(pair_g, dtype=index),
        pair_f=pair_f_arr,
        entry_first=entries,
        first=first,
        row_len=entries[pair_first + pair_count] - first,
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


def _associativity_violations(t: _Compiled) -> list[tuple[int, int, int]]:
    """Every (h, g, f) with (h∘g)∘f != h∘(g∘f), in sorted order.

    For each block of g rows, and for each h, the terms of (h∘g)∘f are
    added into the accumulator and those of h∘(g∘f) subtracted, each at
    its slot less the block's first slot.  The slots left non-zero name
    the violating pairs (g, f) and are zeroed for the next block.
    """
    n, k, c, first, row_len, entry_first = t.n, t.k, t.c, t.first, t.row_len, t.entry_first
    blocks = [(gs, hs, _blocks(t, gs)) for gs, hs in zip(t.into, t.out_of)]
    acc = np.zeros(max(used for _, _, runs in blocks for _, _, used in runs), dtype=c.dtype)
    bad = []
    for gs, hs, runs in blocks:
        for a, b, _ in runs:
            base = t.pair_first[gs[a]]  # the block's first pair
            # h∘(g∘f): each entry of g∘f, a summand k' times h∘k'
            rows = slice(first[gs[a]], first[gs[b - 1]] + row_len[gs[b - 1]])
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
    bad.sort()  # h runs object by object
    return bad
