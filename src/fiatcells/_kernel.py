"""
The associativity kernel of :func:`fiatcells.model.validate`, the one
part of the package that needs numpy; ``model`` imports it when a table
is first validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# joined entry pairs per associativity kernel block: keeps its
# temporaries at a few MB whatever the size of the table
_PAIR_BUDGET = 1 << 13


@dataclass(frozen=True)
class _Compiled:
    """Every composable composite of a table, unit law applied, as index arrays.

    ``into[o]`` and ``out_of[o]`` are the morphs with target and with
    source o, ascending; ``rank[m]`` is the place of m in ``into[tgt(m)]``.
    Composable pairs (g, f) are numbered in (g, f) order: g∘f is pair
    ``pair_first[g] + rank[f]``, and ``pair_f`` holds each pair's f.
    Entry e says that ``k[e]`` is a summand of pair ``p[e]`` with
    multiplicity ``c[e]``; entries are sorted by (g, f, k), and those
    of g are ``first[g]:first[g + 1]``, ``row_len[g]`` of them.
    ``fm[e]`` is ``rank[f] * n + k[e]``.  ``c`` is int64 when every sum
    the associativity kernel forms provably fits, object (Python ints)
    otherwise.
    """

    n: int
    into: list[np.ndarray]
    out_of: list[list[int]]
    rank: np.ndarray
    pair_first: np.ndarray
    pair_f: np.ndarray
    first: np.ndarray
    row_len: np.ndarray
    p: np.ndarray
    k: np.ndarray
    fm: np.ndarray
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
    pair_first = [0] * (n + 1)
    pair_f: list[int] = []
    outs: list[dict[int, int]] = []  # g∘f of each pair
    for g, gm in enumerate(cat.morphs):
        pair_first[g] = len(outs)
        for f in into[gm.src.index]:
            pair_f.append(f)
            outs.append(cat.compose_idx(g, f))
    pair_first[n] = len(outs)
    # a kernel key is pair * n + m < pairs * n; offsets stay below it too
    index = np.int32 if len(outs) * n < 2**31 else np.int64
    # a side of one (h, g, f, m) sums at most n products of two entries
    biggest = max(max(out.values(), default=1) for out in outs)
    exact = np.int64 if 2 * n * biggest * biggest < 2**63 else object
    sizes = np.fromiter(map(len, outs), dtype=index, count=len(outs))
    entries = np.concatenate(([0], np.cumsum(sizes))).astype(index)
    rank_arr = np.array(rank, dtype=index)
    pair_first = np.array(pair_first, dtype=index)
    pair_f_arr = np.array(pair_f, dtype=index)
    first = entries[pair_first]
    p = np.repeat(np.arange(len(outs), dtype=index), sizes)
    k = np.fromiter((k for out in outs for k in sorted(out)), dtype=index, count=entries[-1])
    return _Compiled(
        n=n,
        into=[np.array(members, dtype=index) for members in into],
        out_of=out_of,
        rank=rank_arr,
        pair_first=pair_first,
        pair_f=pair_f_arr,
        first=first,
        row_len=np.diff(first),
        p=p,
        k=k,
        fm=rank_arr[pair_f_arr[p]] * n + k,
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
    return np.arange(total, dtype=dtype) + np.repeat((starts - ends + lengths).astype(dtype), lengths)


def _associativity_violations(t: _Compiled) -> list[tuple[int, int, int]]:
    """Every (h, g, f) with (h∘g)∘f != h∘(g∘f), in sorted order.

    For each h, and for each block of g rows, both sides are expanded
    into (key, product) terms keyed by pair g∘f and summand m, as
    pair * n + m.  The keys are sorted and the terms of each key
    summed, the right side negated, so a key whose sum is not zero
    witnesses a violation.
    """
    n, k, row_len = t.n, t.k, t.row_len
    index = k.dtype
    bad = []
    for gs, hs in zip(t.into, t.out_of):
        # gs: every g composable with an h of hs, and every summand of an h∘g
        rows = _spans(t.first[gs], row_len[gs])  # entries of g∘f, g in gs
        # no row is empty: g∘1 = g
        row_bounds = np.concatenate(([0], np.cumsum(row_len[gs])))
        rows_rank = t.rank[k[rows]]
        for h in hs:
            lo, hi = t.first[h], t.first[h + 1]
            hg = t.pair_f[t.p[lo:hi]]  # the g of each entry of h∘g
            # entries of h∘g (and of h∘k) for the i-th g of gs start at hg_first[i]
            hg_first = (lo + np.searchsorted(hg, gs)).astype(index)
            hg_len = (lo + np.searchsorted(hg, gs, side="right")).astype(index) - hg_first
            rhs_len = hg_len[rows_rank]
            # terms each g row adds to the two sides, to size the blocks
            lhs_sums = np.concatenate(([0], np.cumsum(row_len[k[lo:hi]])))
            cost = (
                lhs_sums[hg_first + hg_len - lo] - lhs_sums[hg_first - lo]
                + np.add.reduceat(rhs_len, row_bounds[:-1], dtype=np.int64)
            )
            block = (np.cumsum(cost) - cost) // _PAIR_BUDGET
            cuts = np.flatnonzero(np.diff(block)) + 1
            for a, b in zip([0, *cuts], [*cuts, len(gs)]):
                s, e = hg_first[a], hg_first[b - 1] + hg_len[b - 1]
                r = slice(row_bounds[a], row_bounds[b])
                keys, vals = _block_terms(
                    t, hg[s - lo:e - lo], s, e, rows[r], hg_first[rows_rank[r]], rhs_len[r]
                )
                if not len(keys):
                    continue
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
                sums = np.add.reduceat(vals[order], starts)
                for pair in sorted(set((keys[starts[sums != 0]] // n).tolist())):
                    g = int(np.searchsorted(t.pair_first, pair, side="right")) - 1
                    bad.append((h, g, int(t.pair_f[pair])))
    bad.sort()  # h runs object by object
    return bad


def _block_terms(t: _Compiled, hg, s, e, i, hk_first, hk_len) -> tuple[np.ndarray, np.ndarray]:
    """The (key, product) terms of one kernel block, right side negated.

    Left, (h∘g)∘f: the entries s:e of h∘g, of which ``hg`` are the g,
    each a summand k times a summand m of k∘f.  Right, h∘(g∘f): the
    entries i of g∘f, each a summand k times a summand m of h∘k, whose
    entries are hk_first : hk_first + hk_len.
    """
    k, c = t.k, t.c
    lengths = t.row_len[k[s:e]]
    left = int(lengths.sum())
    keys = np.empty(left + int(hk_len.sum()), dtype=k.dtype)
    vals = np.empty(len(keys), dtype=c.dtype)
    j = _spans(t.first[k[s:e]], lengths)
    np.add(np.repeat(t.pair_first[hg] * t.n, lengths), t.fm[j], out=keys[:left])
    np.multiply(np.repeat(c[s:e], lengths), c[j], out=vals[:left])
    j = _spans(hk_first, hk_len)
    np.add(np.repeat(t.p[i] * t.n, hk_len), k[j], out=keys[left:])
    np.multiply(np.repeat(c[i], hk_len), c[j], out=vals[left:])
    np.negative(vals[left:], out=vals[left:])
    return keys, vals
