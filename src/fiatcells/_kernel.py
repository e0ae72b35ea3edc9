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
rows are consecutive and their slots one range (a block).  The
accumulator holds one copy of a block per h, for a chunk of h at once:
as many as fit ``_SLOT_BUDGET``, so one scatter pair reads every h of a
small table's block, and a block over budget on its own is read one h
at a time.  It is allocated once per call, and after each chunk only
the slots that chunk left non-zero are cleared, so the work follows the
number of terms, not the number of slots (n⁴ for a table on one object).

It reads each triple at most once, and only where the triple can fail.
A triple with an identity in it holds by the unit law, which
``MultiCat.compose_idx`` applies, so no identity is read as h, g or f.

The arrays it reads are built by :func:`_compile` straight from the
stored table, in one pass and with no per-pair ``compose_idx`` call: the
stored entries that composition reads are flattened, each unit-law pair
gets its one summand by index arithmetic, and one sort orders them all.
They live only for one call of :func:`check`, the module's one entry
point, which returns plain lists: no table keeps the arrays.

To decide associativity it reads far fewer triples: only those whose
middle g is one of a generating set.  Read the table as the Q-algebra A
with basis the morphs, b_g·b_f = Σ c·b_k over the summands of g∘f when
g, f compose and 0 otherwise; once the ``structure`` check has passed,
the table is associative exactly when A is.  The middle nucleus
{y : (x, y, z) = 0 for all x, z} of A, (x, y, z) = (xy)z − x(yz), is a
subspace, and it is closed under products: with a, b in it, the
Teichmüller identity x(a,b,y) − (xa,b,y) + (x,ab,y) − (x,a,by) +
(x,a,b)y = 0 leaves (x, ab, y) = 0 (R. D. Schafer, *An Introduction to
Nonassociative Algebras*, 1966, §II.2).  Every identity lies in it by
the unit law.  So if the triples (h, s, f) hold for every s of a set S
that generates A together with the identities, every triple holds.
:func:`_generators` picks such an S from the table by unit propagation:
a product s∘w or w∘s of a generator s and a reached w lies in the
subalgebra S generates, so when all of its summands but one, k, are
reached, k is reached too (its multiplicity is non-zero).  On the Hecke
tables S is the simple reflections, 4 of the 119 non-identities of S5
(Kazhdan–Lusztig, *Invent. Math.* 53 (1979)).  Only when that
certificate finds a violation are all non-identity g read, to list
every violating triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# accumulator slots per kernel block: a run of g rows whose pairs hold at
# most this many slots (one g row on its own may hold more), and per
# chunk of h, which holds one copy of the block per h.  Keeps the
# accumulator at 1 MB of int64 whatever the size of the table; on the
# 120-morph S5 table 2^18 ran ~8% faster but raised peak memory ~4%
_SLOT_BUDGET = 1 << 17


@dataclass(frozen=True)
class _Compiled:
    """Every composable composite of a table, unit law applied, as index arrays.

    Built by :func:`_compile`: the summands of g∘f are those
    ``MultiCat.compose_idx(g, f)`` returns, that is the stored entry when
    neither g nor f is an identity (none when nothing is stored) and the
    unit law otherwise, whatever is stored for such a pair.

    ``generating_set`` is the set S of :func:`_generators`, in the order
    picked, as a plain list.  ``into[o]`` holds the morphs with
    target o in three runs, each ascending: first the generators (the
    first ``generators[o]``), then the other non-identities, then the identity
    of o.  ``rank[m]`` is the place of m in ``into[tgt(m)]``.  ``out_of[o]``
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
    generating_set: list[int]
    generators: list[int]
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


def _generators(cat, weight: list[int]) -> list[int]:
    """A set S of non-identities that generates the table's algebra
    together with the identities (see the module docstring), in the
    order picked.

    Candidates are the non-identities by ascending row weight, then
    index; ``weight[g]`` is the sum of the multiplicities of g∘f over
    all non-identity f composable with g, as :func:`_compile` counts it.
    The next candidate not yet reached joins S, and the reached set is
    closed by unit propagation over the products s∘w and w∘s, s in S
    and w reached: a product whose summands are all reached but one
    reaches that one.  A product that misses more waits in ``waiting``
    under each summand it misses, with their count, until one is left.
    """
    table, src, tgt, identity = cat.table, cat._src, cat._tgt, cat._is_identity
    reached = list(identity)
    gens: list[int] = []
    # the generators, and the reached non-identities already multiplied
    # by every generator, by source and by target object
    gens_from, gens_to, done_from, done_to = ([[] for _ in cat.objects] for _ in range(4))
    found: list[int] = []  # morphs to reach
    waiting: dict[int, list[list]] = {}  # k: [summands unreached, summands] per product

    def multiply(a: int, b: int) -> None:
        # a∘b composes and neither is an identity: the stored entry, or 0
        out = table.get((a, b), ())
        missing = [k for k in out if not reached[k]]
        if len(missing) == 1:
            found.append(missing[0])
        elif missing:
            product = [len(missing), out]
            for k in missing:
                waiting.setdefault(k, []).append(product)

    for s in sorted((m for m in range(len(src)) if not identity[m]), key=lambda g: (weight[g], g)):
        if reached[s]:
            continue
        gens.append(s)
        gens_from[src[s]].append(s)
        gens_to[tgt[s]].append(s)
        for w in done_to[src[s]]:
            multiply(s, w)
        for w in done_from[tgt[s]]:
            multiply(w, s)
        found.append(s)
        while found:
            w = found.pop()
            if reached[w]:
                continue
            reached[w] = True
            for product in waiting.pop(w, ()):
                product[0] -= 1
                if product[0] == 1:
                    found.append(next(k for k in product[1] if not reached[k]))
            for x in gens_from[tgt[w]]:
                multiply(x, w)
            for x in gens_to[src[w]]:
                if x != w:
                    multiply(w, x)
            done_from[src[w]].append(w)
            done_to[tgt[w]].append(w)
    if not all(reached):
        raise RuntimeError("generating set leaves a morph unreached")
    return gens


def _compile(cat) -> _Compiled:
    """The :class:`_Compiled` form of ``cat``, read from the stored table
    in one pass.

    The stored entries that composition reads (g, f composable, neither
    an identity) are flattened into parallel lists, one item per summand;
    the row weights that order the candidates of :func:`_generators` are
    summed from them, so the generating set reads no second pass.
    Each composable pair with an identity in it gets its unit-law
    summand by index arithmetic on ``pair_g`` and ``pair_f``: f when g is
    an identity, g otherwise, with multiplicity 1.  Other stored entries
    are never read, as ``MultiCat.compose_idx`` never reads them.  One
    ``argsort`` of the slots ``p * n + k`` orders all summands by
    (pair, k), and ``bincount`` counts them per pair.
    """
    n = len(cat.morphs)
    src, tgt, identity = cat._src, cat._tgt, cat._is_identity
    # the stored entries composition reads, one item per summand
    entry_g: list[int] = []
    entry_f: list[int] = []
    entry_size: list[int] = []
    ks: list[int] = []
    cs: list[int] = []
    for (g, f), out in cat.table.items():
        if src[g] == tgt[f] and not (identity[g] or identity[f]):
            entry_g.append(g)
            entry_f.append(f)
            entry_size.append(len(out))
            ks.extend(out)
            cs.extend(out.values())
    # a side of one (h, g, f, m) sums at most n products of two entries,
    # and the accumulator holds the left side less a part of the right;
    # the unit-law summands are 1s
    biggest = max(1, max(cs, default=1))
    exact = np.int64 if 2 * n * biggest * biggest < 2**63 else object
    stored_c = np.array(cs, dtype=exact)
    # the row weights of _generators: each a sum of stored multiplicities,
    # so below len(cs) * biggest
    weight = np.zeros(n, dtype=exact if len(cs) * biggest < 2**63 else object)
    np.add.at(weight, np.repeat(np.array(entry_g, dtype=np.int64), entry_size), stored_c)
    del cs  # stored_c holds them: one copy at the peak, not two (20 MB on S6)
    generating_set = _generators(cat, weight.tolist())
    generators = set(generating_set)
    # per target object: the generators, the other non-identities, the identity
    runs: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in cat.objects]
    out_of: list[list[int]] = [[] for _ in cat.objects]
    for m in range(n):
        gens, others, ident = runs[tgt[m]]
        if identity[m]:
            ident.append(m)
        else:
            (gens if m in generators else others).append(m)
            out_of[src[m]].append(m)
    into = [a + b + c for a, b, c in runs]
    pair_count = [len(into[o]) for o in src]
    pairs = sum(pair_count)
    # a slot is pair * n + m < pairs * n; offsets stay below it too
    index = np.int32 if pairs * n < 2**31 else np.int64
    # pairs are numbered g by g in this order, (g, f) with f in into[src(g)]
    order = np.array([m for members in into for m in members], dtype=index)
    into_first = np.cumsum([0] + [len(members) for members in into]).astype(index)
    rank = np.empty(n, dtype=index)
    rank[order] = np.arange(n, dtype=index) - into_first[np.array(tgt, dtype=index)[order]]
    pair_count = np.array(pair_count, dtype=index)
    row_count = pair_count[order]
    row_first = (np.cumsum(row_count) - row_count).astype(index)
    pair_first = np.empty(n, dtype=index)
    pair_first[order] = row_first
    pair_g = np.repeat(order, row_count)
    place = np.arange(pairs, dtype=index) - np.repeat(row_first, row_count)
    pair_f = order[into_first[np.array(src, dtype=index)[pair_g]] + place]
    # the stored summands, then one per pair with an identity in it
    is_identity = np.array(identity, dtype=bool)
    unit = np.flatnonzero(is_identity[pair_g] | is_identity[pair_f]).astype(index)
    entry_pair = pair_first[np.array(entry_g, dtype=index)] + rank[np.array(entry_f, dtype=index)]
    p = np.concatenate((np.repeat(entry_pair, np.array(entry_size, dtype=np.int64)), unit))
    k = np.concatenate((
        np.array(ks, dtype=index),
        np.where(is_identity[pair_g[unit]], pair_f[unit], pair_g[unit]),
    ))
    c = np.concatenate((stored_c, np.ones(len(unit), dtype=exact)))
    # the summands of a pair are distinct, so their slots p * n + k are
    # too: one argsort orders by (pair, k), ~4x faster than np.lexsort
    by_slot = np.argsort(p * n + k)
    p, k, c = p[by_slot], k[by_slot], c[by_slot]
    entries = np.concatenate(([0], np.cumsum(np.bincount(p, minlength=pairs)))).astype(index)
    first = entries[pair_first]
    return _Compiled(
        n=n,
        into=[np.array(members, dtype=index) for members in into],
        generating_set=generating_set,
        generators=[len(gens) for gens, _, _ in runs],
        out_of=out_of,
        star=np.array(cat.star_map, dtype=index),
        rank=rank,
        pair_first=pair_first,
        pair_g=pair_g,
        pair_f=pair_f,
        entry_first=entries,
        first=first,
        # every row ends with its pair (g, identity)
        row_len=entries[pair_first + pair_count - 1] - first,
        pair_count=pair_count,
        p=p,
        k=k,
        fm=rank[pair_f[p]] * n + k,
        lead=pair_first[pair_f[p]] * n,
        c=c,
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


def _rows(t: _Compiled, certificate: bool) -> list[tuple[np.ndarray, list[int]]]:
    """The (g rows, h rows) the kernel reads, per object: the generators
    when ``certificate``, every non-identity g otherwise, and every
    non-identity h; objects that leave either empty are left out."""
    rows = []
    for gs, generators, hs in zip(t.into, t.generators, t.out_of):
        gs = gs[:generators] if certificate else gs[:-1]
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


def _associativity_violations(t: _Compiled, certificate: bool) -> list[tuple[int, int, int]]:
    """Every (h, g, f) with (h∘g)∘f != h∘(g∘f), in sorted order, with g
    among the generators when ``certificate``; that list is empty
    exactly when the table is associative (see the module docstring).

    The non-identity h of a block of g rows are read in chunks of
    ``max(1, _SLOT_BUDGET // used)``, ``used`` the slots of the block,
    so that one copy of the block per h fits the budget; a block over
    budget on its own is read one h at a time.  Copy i of a chunk is
    the slot range ``i * used : (i + 1) * used``.  For the whole chunk
    at once, the terms of (h∘g)∘f, f not an identity, are added into the
    accumulator and those of h∘(g∘f) subtracted, each in the copy of its
    h at its slot less the block's first slot.  A slot left non-zero
    reads as ``divmod(slot, used)``: the h of the copy and the slot of
    the violating pair (g, f); it is zeroed for the next chunk.
    """
    n, k, c, first, row_len, entry_first = t.n, t.k, t.c, t.first, t.row_len, t.entry_first
    pair_first = t.pair_first
    blocks = [(gs, hs, _blocks(t, gs)) for gs, hs in _rows(t, certificate)]
    # a chunk's copies hold at most max(_SLOT_BUDGET, used) slots
    size = [used * min(len(hs), max(1, _SLOT_BUDGET // used))
            for _, hs, runs in blocks for _, _, used in runs]
    acc = np.zeros(max(size, default=0), dtype=c.dtype)
    bad = []
    for gs, hs, runs in blocks:
        for a, b, used in runs:
            base = pair_first[gs[a]]  # the block's first pair
            # h∘(g∘f): each entry of g∘f, a summand k' times h∘k'
            rows = _spans(first[gs[a:b]], row_len[gs[a:b]])
            row_rank = t.rank[k[rows]]
            row_slot = (t.p[rows] - base) * n
            row_c = c[rows]
            per = max(1, _SLOT_BUDGET // used)
            for i in range(0, len(hs), per):
                chunk = hs[i:i + per]
                h_first = pair_first[chunk]  # h∘x is pair h_first + rank[x]
                copy = np.arange(len(chunk), dtype=pair_first.dtype) * used
                # (h∘g)∘f: each entry of h∘g, a summand k times k∘f
                s = entry_first[h_first + a]
                lengths = entry_first[h_first + b] - s
                hg = _spans(s, lengths)
                left = _scatter(
                    np.add, acc, c, t.lead[hg] - base * n + np.repeat(copy, lengths), c[hg],
                    first[k[hg]], row_len[k[hg]], t.fm,
                )
                hk = h_first[:, None] + row_rank
                hk_first = entry_first[hk]
                right = _scatter(
                    np.subtract, acc, c, (copy[:, None] + row_slot).ravel(),
                    np.tile(row_c, len(chunk)), hk_first.ravel(),
                    (entry_first[hk + 1] - hk_first).ravel(), k,
                )
                slots = np.concatenate(
                    (left[np.flatnonzero(acc[left])], right[np.flatnonzero(acc[right])])
                )
                if len(slots):
                    acc[slots] = 0
                    # slot // n is copy * (used // n) + pair - base
                    for at, pair in {divmod(j, used // n) for j in (slots // n).tolist()}:
                        pair += base
                        bad.append((chunk[at], int(t.pair_g[pair]), int(t.pair_f[pair])))
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


def check(
    cat, star: bool, associativity: bool
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], list[int]]:
    """Compile ``cat`` and run the kernels ``validate`` asks for: the star
    kernel when ``star``, the associativity certificate when
    ``associativity``, and the full listing only when the certificate
    finds a violation.

    Returns the (g, f) that break ``star-anti-automorphism`` and the
    (h, g, f) that break associativity, each sorted and empty when its
    kernel did not run, and the generating set S of the certificate, as
    plain lists of Python ints; the arrays are freed on return.
    """
    t = _compile(cat)
    pairs = _star_violations(t) if star else []
    triples = []
    if associativity and _associativity_violations(t, certificate=True):
        triples = _associativity_violations(t, certificate=False)
    return pairs, triples, t.generating_set
