"""Polar encoder and erasure-channel decoders for ell^n blocks.

Channel index i (1-based) has base-ell digits b_1..b_n of i-1, b_1 most
significant; digits name the branch taken at each combine level, root first.
The generator row feeding index i is the digit-reversed row of the n-fold
Kronecker power of the kernel, so encoding runs as n kernel-local stages:
consecutive blocks of ell^{n-1} inputs are encoded recursively and the
resulting words are combined ell consecutive output symbols at a time,
(x_{p ell}, ..., x_{p ell + ell - 1}) = (v_0[p], ..., v_{ell-1}[p]) G.

Successive cancellation over the erasure channel is exact ternary algebra,
and every rule of it comes from the kernel's dual codewords (G b, b)
(``gf2kernel``): at a kernel node, branch input u_j is determined iff some
b inside the known outputs has parities G b equal to 1 at row j and 0 at
every later row and at every earlier row whose input is still unknown, and
u_j is then parity(x & b) plus the known earlier inputs that G b marks.
Determined bits are always correct, so the only failure mode is an
undetermined information bit and a block is in error iff one occurs; no
guesses are made.  ``sc_decode_bec`` runs this decoder on one word and
recovers values.  A subtree without information indices decodes to the
frozen zeros and re-encodes to all-known zeros whatever it receives, so it
is skipped (the rate-0 nodes of Alamdar-Yazdi and Kschischang, "A
simplified successive-cancellation decoder for polar codes").  Every node
holds its word as two lists of Python ints, one ell-bit entry per kernel
node.  A branch rule is one lookup in a per-code dict for that branch,
keyed by (known-output mask, unresolved-earlier mask) and filled on a miss
by ``_branch_rule``, which takes the first fitting b among the branch's
determiners; it is the only rule cache.  One kernel stage re-encodes
through two lists of 2^ell output masks, output erasures from the erased
branches and output values from the branch values (the kernel's codewords
uG, ``BitMatrix._codewords``).

Whether SC fails needs less.  Compare it with the genie-aided decoder, in
which every earlier input is known when branch j is decided, so the rule
reduces to ``determined_masks``: u_j is determined iff one of its
determiners lies inside the known outputs.  An
earlier input is unknown in the real decoder only below an undetermined
leaf, and frozen leaves are always known, so up to and including the first
undetermined information bit both decoders see identical known and
unknown masks at every node.  Hence SC fails iff some information leaf is
undetermined under the genie rule.  That rule is upward-closed in the
known outputs, so branch j is determined iff all outputs of one of its
minimal determining sets (``gf2kernel.minimal_determining_sets``) are
known: an OR of ANDs, factored once per code into one program of ANDs and
ORs that all branches share.  The count runs that program top-down in n
stages over bit-packed trials, 64 to a word, the layout BP runs on too.

MAP is the matching global test: the pattern is ambiguous iff some nonzero
combination of information rows is supported entirely inside the erasure
set.  Whenever that happens the SC decoder is also stuck (a bit forced by
the observations would have to agree with both candidate words), so MAP
failures are a per-trial subset of SC failures; ``simulate`` checks the
inclusion on every trial.  The test is one elimination per pattern
(``gf2kernel.gf2_independent``) over the information rows as Python ints,
masked to the kept positions: the pattern is ambiguous as soon as one row
reduces to zero.

Erasure belief propagation (peeling) sits between the two and certifies
most trials without the rank test (Hussami, Korada and Urbanke,
"Performance of polar codes for channel and source coding").  It runs on
the factor graph of n + 1 layers of N variables, channel inputs on top and
word positions at the bottom, whose kernel nodes each tie ell variables of
one layer to ell of the next through the local code {(u, uG)}.  A variable
is known once some minimal codeword of the dual local code {(Gb, b)} holds
it with every other variable known.  Those codewords are all the circuits
of the local code, so one pass of the rule closes a node; per variable it
is an OR of ANDs, factored into one program like the SC count's.  Peeling
to a fixpoint leaves a trial unresolved only if some information input
stays unknown; otherwise every input is a forced function of the kept
positions, a constructive proof that the word is
MAP-unique.  The graph must be SC's: the stage nearest the word groups the
least significant position digit, as in the SC count.  The stages of the
Kronecker power commute as linear maps but not as factor graphs, and on
the encoder's order BP stalls on patterns SC decodes.  On SC's graph
every SC determination is a sequence of node closures, so per trial MAP
failure implies BP failure implies SC failure.  ``simulate`` asserts BP in
SC and MAP in SC on every trial and runs the rank test only where BP
fails.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, cycle
from operator import or_

import numpy as np

from .asymptotics import q_inverse
from .errors import (
    DimensionTooLarge,
    DomainError,
    FrozenBitNonzero,
    IndexOutOfRange,
    MismatchedLevel,
    integral_array,
    whole,
)
from .gf2kernel import (
    BitMatrix,
    KernelProfile,
    _unpack_bits,
    gf2_independent,
    minimal_determining_sets,
)
from .rng import erasure_words, subseeds
from .serialize import csv_text

ERASED = -1

# two-sided 95% normal quantile, used for Wilson intervals
WILSON_Z = q_inverse(0.025)

MAX_BLOCK = 2**22

# erasure flags per chunk of simulated trials: a chunk of CELLS // N trials
# is drawn as packed known words (CELLS / 8 bytes) and decoded as one batch
CELLS = 1 << 22

# widest kernel erasure BP runs on: ``_bp_checks`` compares every pair of
# the 2^ell - 1 nonzero dual supports, about 4^ell comparisons (65 thousand
# at ell = 8, 4.3 billion at ell = 16)
BP_MAX_ELL = 8


@dataclass(frozen=True)
class PolarCode:
    """Frozen-set polar code over an ell x ell kernel, block length ell^n.

    ``frozen`` holds 1-based channel indices forced to zero; the rest carry
    information.  Typically built from a selection rule via
    ``from_selection`` (frozen = complement of the selected indices).
    """

    profile: KernelProfile
    n: int
    frozen: frozenset

    def __post_init__(self):
        object.__setattr__(self, "n", whole(self.n, "n", 1))
        size = self.profile.ell**self.n
        if size > MAX_BLOCK:
            raise DimensionTooLarge(f"block length {size} exceeds {MAX_BLOCK}")
        idx = integral_array(list(self.frozen), "frozen indices")
        bad = idx[(idx < 1) | (idx > size)]
        if bad.size:
            raise IndexOutOfRange(f"frozen index {int(bad.min())} outside 1..{size}")
        object.__setattr__(self, "frozen", frozenset(idx.astype(np.int64).tolist()))

    @classmethod
    def from_selection(cls, profile: KernelProfile, selection) -> "PolarCode":
        if selection.ell != profile.ell:
            raise MismatchedLevel("selection kernel size does not match profile")
        size = profile.ell**selection.n
        frozen = frozenset(range(1, size + 1)) - frozenset(
            int(i) for i in selection.indices
        )
        return cls(profile=profile, n=selection.n, frozen=frozen)

    @property
    def block_length(self) -> int:
        return self.profile.ell**self.n

    @property
    def k(self) -> int:
        return self.block_length - len(self.frozen)

    @property
    def rate(self) -> float:
        return self.k / self.block_length

    @cached_property
    def info_indices(self) -> np.ndarray:
        """1-based information indices, ascending."""
        return np.flatnonzero(self._info_mask) + 1

    @cached_property
    def _info_mask(self) -> np.ndarray:
        mask = np.ones(self.block_length, dtype=bool)
        mask[np.fromiter(self.frozen, dtype=np.int64, count=len(self.frozen)) - 1] = False
        return mask

    @cached_property
    def _kernel_array(self) -> np.ndarray:
        return np.array(self.profile.kernel.as_lists(), dtype=np.uint8)

    @cached_property
    def _info_prefix(self) -> list:
        """Entry i counts the information indices among the first i."""
        return [0, *np.cumsum(self._info_mask).tolist()]

    @cached_property
    def _sc_rules(self) -> tuple:
        """Per branch j, a dict from key K | P << ell to ``_packed_rule``,
        filled on a miss; the only cache of SC branch rules."""
        return tuple(_LazyDict(partial(_packed_rule, self, j)) for j in range(self.profile.ell))

    @cached_property
    def _reencode(self) -> tuple:
        """One kernel stage of ternary re-encoding as two lists of 2^ell
        ell-bit output masks: entry E of the first marks the outputs erased
        when exactly the inputs in E are erased (those on some row of E),
        entry V of the second, ``BitMatrix._codewords``, the output values
        of input bits V."""
        erased = [0]
        for row in self.profile.kernel.rows:
            erased += [e | row for e in erased]
        return erased, self.profile.kernel._codewords.tolist()

    @cached_property
    def _spread(self) -> tuple:
        """Per branch j, a dict from an ell-bit mask m to the tuple of its
        bits, bit i of m at bit ell + j of item i, filled on a miss."""
        ell = self.profile.ell
        return tuple(
            _LazyDict(lambda m, at=ell + j: tuple((m >> i & 1) << at for i in range(ell)))
            for j in range(ell)
        )

    def generator_row(self, i: int) -> int:
        """Kronecker generator row of channel index i as a column bitmask.

        Row selection digit-reverses i-1: the innermost kernel factor takes
        the most significant channel digit.
        """
        i = whole(i, "index")
        if not 1 <= i <= self.block_length:
            raise IndexOutOfRange(f"index {i} outside 1..{self.block_length}")
        return self._generator_rows(np.array([i - 1]))[0]

    @cached_property
    def _sc_program(self) -> tuple:
        """The genie-aided rule of every branch as one ``_factor`` program
        over the known outputs of a kernel node."""
        return _factor(minimal_determining_sets(self.profile.kernel))

    @cached_property
    def _info_reversed(self) -> np.ndarray:
        """``_info_mask`` in digit-reversed channel order, the order of the
        last layer of the SC count and of BP."""
        ell = self.profile.ell
        return self._info_mask.reshape((ell,) * self.n).T.ravel()

    @cached_property
    def _bp_checks(self) -> tuple:
        """Minimal dual codewords of one kernel node's local code {(u, uG)},
        each as the tuple of its variables: u_j is variable j, x_c is
        variable ell + c.  The dual code is {(Gb, b)}: b on the outputs and
        its parities ``BitMatrix._parities`` on the inputs."""
        ell = self.profile.ell
        b = np.arange(1, 1 << ell, dtype=np.int64)
        supp = self.profile.kernel._parities[1:] | b << ell
        # a support is minimal iff it holds no other nonzero support
        holds = (supp[:, None] & ~supp[None, :]) == 0
        bits = (supp[:, None] >> np.arange(2 * ell)) & 1
        return tuple(
            tuple(np.flatnonzero(bits[p]).tolist())
            for p in np.flatnonzero(holds.sum(axis=0) == 1)
        )

    @cached_property
    def _bp_program(self) -> tuple:
        """BP's node rule as one ``_factor`` program over the variables of a
        kernel node: variable v is known iff, for some check of
        ``_bp_checks`` holding v, every other variable of the check is.  The
        checks are minimal, so each family is an antichain of nonempty sets."""
        return _factor(tuple(
            frozenset(frozenset(k) - {v} for k in self._bp_checks if v in k)
            for v in range(2 * self.profile.ell)
        ))

    @cached_property
    def _info_rows(self) -> list:
        """``generator_row`` of every information index."""
        return self._generator_rows(self.info_indices - 1)

    def _generator_rows(self, index: np.ndarray) -> list:
        """Generator rows of the 0-based channel indices ``index`` as Python
        ints, the Kronecker factors taken for all rows at once."""
        ell = self.profile.ell
        kernel = self._kernel_array.astype(bool)
        rows = np.ones((index.size, 1), dtype=bool)
        for p in reversed(range(self.n)):  # digit p of the index, innermost first
            factor = kernel[index // ell**p % ell]
            rows = (factor[:, :, None] & rows[:, None, :]).reshape(-1, ell ** (self.n - p))
        return [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(rows, axis=1, bitorder="little")]


@dataclass(frozen=True, eq=False)
class ErasureWord:
    """Ternary channel word: 0, 1, or ERASED (-1) per position."""

    symbols: np.ndarray

    def __post_init__(self):
        # validate before the int8 cast, which would wrap 257 to 1 and
        # truncate 1.7 to 1
        sym = np.asarray(self.symbols)
        if sym.ndim != 1:
            raise DomainError("symbols must be one-dimensional")
        if not np.isin(sym, (0, 1, ERASED)).all():
            raise DomainError("symbols must be 0, 1, or ERASED")
        sym = sym.astype(np.int8)
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)

    def __len__(self):
        return self.symbols.size

    def erased_mask(self) -> np.ndarray:
        return self.symbols == ERASED

    @property
    def erasure_count(self) -> int:
        return int((self.symbols == ERASED).sum())


def _encode_batch(u: np.ndarray, code: PolarCode) -> np.ndarray:
    ell = code.profile.ell
    n = code.n
    g = code._kernel_array
    t = np.ascontiguousarray(u, dtype=np.uint8).reshape((-1,) + (ell,) * n)
    for _ in range(n):
        # contract the current leading digit axis; kernel output axis lands
        # at the end, so after n stages axes read (batch, c_n, ..., c_1)
        t = np.tensordot(t, g, axes=([1], [0])) & 1
    axes = (0,) + tuple(range(n, 0, -1))
    return t.transpose(axes).reshape(u.shape[0], code.block_length)


def encode(u, code: PolarCode) -> np.ndarray:
    """Encode channel-ordered input bits u (frozen positions must be 0)."""
    u = np.asarray(u)
    if u.shape != (code.block_length,):
        raise DomainError(f"input length must be {code.block_length}")
    if not np.isin(u, (0, 1)).all():
        raise DomainError("input bits must be 0 or 1")
    u = u.astype(np.uint8)
    bad = np.flatnonzero(u & ~code._info_mask)
    if bad.size:
        raise FrozenBitNonzero(f"frozen index {bad[0] + 1} carries a nonzero bit")
    return _encode_batch(u[None, :], code)[0]


def transmit_bec(x, eps: float, seed: int) -> ErasureWord:
    """Erase each symbol independently with probability eps.

    Symbol k is erased iff output k of the splitmix64 stream with the given
    seed maps below eps, so the word is a pure function of (x, eps, seed).
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise DomainError("codeword must be one-dimensional")
    if not (0.0 <= eps <= 1.0) or math.isnan(eps):
        raise DomainError("eps must lie in [0, 1]")
    if not np.isin(x, (0, 1)).all():
        raise DomainError("codeword bits must be 0 or 1")
    seed = whole(seed, "seed")
    x = x.astype(np.int8)
    erased = erasure_words([seed % 2**64], x.size, eps)[:, 0] & 1 == 1
    return ErasureWord(np.where(erased, np.int8(ERASED), x))


def _branch_rule(g: BitMatrix, j: int, kmask: int, pmask: int):
    """Rule of branch j at a node of kernel g with the outputs kmask known
    and the earlier branches pmask unknown: (det, alpha, beta), where u_j =
    parity(x & alpha) xor parity(u_prior & beta) when det.  alpha is the
    first determiner b of branch j inside kmask whose G b vanishes on
    pmask; beta is G b on the known earlier branches."""
    b, gb = g._determiners[j]
    hit = np.flatnonzero((b & ~kmask | gb & pmask) == 0)
    if not hit.size:
        return (False, 0, 0)
    return (True, int(b[hit[0]]), int(gb[hit[0]]) ^ 1 << j)


@dataclass(frozen=True, eq=False)
class ScResult:
    """Successive-cancellation outcome: ternary input estimate per index.

    ``undetermined`` lists the 1-based information indices whose value could
    not be forced; the block decodes iff it is empty.  Determined entries of
    ``u`` are exact.
    """

    u: np.ndarray
    undetermined: tuple

    @property
    def is_determined(self) -> bool:
        return not self.undetermined


class _LazyDict(dict):
    """A dict that fills each missing entry once, from ``fill(key)``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _packed_rule(code: PolarCode, j: int, key: int) -> int:
    """``_branch_rule`` of branch j at key K | P << ell, packed as
    alpha | beta << ell | 1 << 2 ell, or 0 when the branch is undetermined."""
    ell = code.profile.ell
    det, alpha, beta = _branch_rule(code.profile.kernel, j, key & ((1 << ell) - 1), key >> ell)
    return alpha | beta << ell | 1 << 2 * ell if det else 0


def _sc_decode(y: np.ndarray, code: PolarCode) -> np.ndarray:
    """SC-decode one ternary word; returns the (N,) ternary input estimate.

    A node of span ell^m holds its word as two lists over its ell^(m-1)
    kernel nodes: the keys K | P << ell (known outputs, then the branches
    decoded so far whose input is unknown) and the values
    X | V << ell | 1 << 2 ell (output bits, then the known branch values;
    bits that are not known read as anything).  Branch j takes one rule
    lookup and one bit count per kernel node: the top bit, set in every
    value and in every determined rule, makes the count 0 for an
    undetermined branch and 1 + the parity count otherwise.  Symbol p of
    the child word goes to child kernel node p // ell at bit p % ell, and
    at span ell the child is a leaf of ``u``.  Rate-0 branches are skipped.
    Every node returns its re-encoding as the ``_reencode`` masks of its
    kernel nodes, which the parent spreads back over its own through
    ``_spread``.
    """
    ell = code.profile.ell
    full = (1 << ell) - 1
    top = 1 << 2 * ell
    rules = code._sc_rules
    enc_erased, enc_ones = code._reencode
    spread = code._spread
    cum = code._info_prefix
    # codes[i][c]: what a kernel node at p % ell = i passes to its child
    # entry when its bit count is c, the known bit at i and the value bit at
    # ell + i
    codes = [[0] + [1 << i | (~c & 1) << (ell + i) for c in range(1, 2 * ell + 1)]
             for i in range(ell)]
    u = [0] * code.block_length

    def node(base: int, keys: list, vals: list):
        lc = len(keys)
        for j in range(ell):
            b = base + j * lc
            if cum[b + lc] == cum[b]:
                continue  # rate-0 branch: u = 0, known
            table = rules[j]
            if lc == 1:
                count = (vals[0] & table[keys[0]]).bit_count()
                if count:
                    u[b] = v = ~count & 1
                    vals[0] |= v << (ell + j)
                else:
                    u[b] = ERASED
                    keys[0] |= 1 << (ell + j)
                continue
            coded = iter([c[(x & table[k]).bit_count()]
                          for c, k, x in zip(cycle(codes), keys, vals)])
            child = list(map(sum, zip(*[coded] * ell)))  # groups of ell kernel nodes
            erased, ones = node(b, [c & full for c in child], [c >> ell | top for c in child])
            spread_j = spread[j].__getitem__
            keys = list(map(or_, keys, chain.from_iterable(map(spread_j, erased))))
            vals = list(map(or_, vals, chain.from_iterable(map(spread_j, ones))))
        return [enc_erased[k >> ell] for k in keys], [enc_ones[x >> ell & full] for x in vals]

    if cum[-1]:
        w = 1 << np.arange(ell, dtype=np.int64)
        keys = (y != ERASED).reshape(-1, ell) @ w
        vals = (y == 1).reshape(-1, ell) @ w | top
        node(0, keys.tolist(), vals.tolist())
    return np.array(u, dtype=np.int8)


def sc_decode_bec(word: ErasureWord, code: PolarCode) -> ScResult:
    """Successive cancellation over the erasure channel, no guessing."""
    if len(word) != code.block_length:
        raise MismatchedLevel(
            f"word length {len(word)} does not match block length {code.block_length}"
        )
    u = _sc_decode(word.symbols, code)
    undet = np.flatnonzero((u == ERASED) & code._info_mask) + 1
    return ScResult(u=u, undetermined=tuple(int(i) for i in undet))


def _factor(families: tuple) -> tuple:
    """One straight-line program for the OR of ANDs of every family of sets.

    A family F, an antichain of nonempty sets, is split on its most common
    coordinate c (the lowest on ties): F = (x_c AND F1) OR F0, where F1
    holds the sets with c, c removed, and F0 the sets without c.  Both are
    antichains, and F1 is {{}} exactly when {c} is in F, making the AND
    x_c alone.  Equal families are built once, also across branches, so
    sets that share coordinates share their ANDs.  Returns (steps, roots):
    step i is (c, on, off, drop), value x_c, AND value ``on`` when
    on >= 0, OR value ``off`` when off >= 0, after which the values in
    ``drop`` are used no more; family j is the value of step roots[j].
    """
    index = {}
    steps = []

    def build(fam):
        if fam not in index:
            count = Counter(chain.from_iterable(fam))
            c = max(sorted(count), key=count.__getitem__)
            on = frozenset(k - {c} for k in fam if c in k)
            off = frozenset(k for k in fam if c not in k)
            step = (c, -1 if frozenset() in on else build(on), build(off) if off else -1)
            index[fam] = len(steps)
            steps.append(step)
        return index[fam]

    roots = tuple(build(fam) for fam in families)
    last = {}
    for i, (_, on, off) in enumerate(steps):
        last[on] = last[off] = i
    drops = [[] for _ in steps]
    for v, i in last.items():
        if v >= 0 and v not in roots:
            drops[i].append(v)
    return tuple(step + (tuple(d),) for step, d in zip(steps, drops)), roots


def _run(program: tuple, slabs) -> list:
    """Values of the roots of a ``_factor`` program on ``slabs`` (anything
    that takes & and |, x_c being slabs[c])."""
    steps, roots = program
    vals = [None] * len(steps)
    for i, (c, on, off, drop) in enumerate(steps):
        v = slabs[c]
        if on >= 0:
            v = v & vals[on]
        if off >= 0:
            v = v | vals[off]
        vals[i] = v
        for d in drop:
            vals[d] = None
    return [vals[r] for r in roots]


def _sc_failures(known: np.ndarray, trials: int, code: PolarCode) -> np.ndarray:
    """Per-trial SC failure of the first ``trials`` trials of a batch of
    known words: the complement of ``erasure_words``, (N, ceil(B/64))
    uint64 with bit t of word w at position p marking symbol p of trial
    64 w + t known.

    Runs the genie-aided rule, under which every earlier input is known, in
    n stages over whole trial words, holding only the current layer and the
    next.  Stage s groups the last remaining position digit of the layer
    into kernel nodes and puts branch j of each node in its place: known
    iff, for one of the branch's minimal sets (``_sc_program``), every output
    in it is known.  The branch digits so land newest first and the last
    layer is in digit-reversed channel order, like BP's layers.
    """
    ell = code.profile.ell
    n = code.n
    words = known.shape[1]
    layer = known
    for s in range(n):
        shape = (ell ** (n - s - 1), ell, ell**s, words)
        src = layer.reshape(shape)
        layer = np.empty_like(known)
        dst = layer.reshape(shape)
        for j, v in enumerate(_run(code._sc_program, [src[:, c] for c in range(ell)])):
            dst[:, j] = v
    open_ = np.bitwise_or.reduce(~layer[code._info_reversed], axis=0)
    return _unpack_bits(open_[None], trials)[0]


def _bp_failures(known: np.ndarray, trials: int, code: PolarCode) -> np.ndarray | None:
    """Per-trial erasure-BP failure of the first ``trials`` trials of a
    batch of known words (see ``_sc_failures``), or None above BP_MAX_ELL,
    where BP is not run.

    Peels to a fixpoint on SC's factor graph: layer 0 holds the word
    positions, layer n the channel inputs (frozen ones known) and stage s
    joins layers s and s + 1 through the kernel nodes of ``_sc_failures``'
    stage s, which group the last remaining position digit.  Every layer
    is an (N, ceil(B/64)) uint64 array of known words.  A stage gathers its
    2 ell variable slabs into one contiguous buffer, closes them there with
    one run of ``_bp_program`` and scatters them back.  Rounds sweep the
    stages up and back down until every information input is known or a
    round learns nothing; a trial fails iff an information input stays
    unknown.
    """
    ell = code.profile.ell
    if ell > BP_MAX_ELL:
        return None
    n = code.n
    size, words = known.shape
    layers = np.zeros((n + 1, size, words), dtype=np.uint64)
    layers[0] = known
    # layer s keeps its branch digits newest first, (d_1..d_{n-s}, b_s..b_1),
    # so both sides of a stage are slabs along one axis; layer n is in
    # digit-reversed channel order
    info = code._info_reversed
    layers[n][~info] = ~np.uint64(0)
    stages = []
    for s in range(n):
        # (side, slab, node, ...) view of layers s + 1 (u_j) and s (x_c)
        pair = layers.reshape(n + 1, ell ** (n - s - 1), ell, ell**s, words)[s : s + 2][::-1]
        stages.append(pair.transpose(0, 2, 1, 3, 4))
    buf = np.empty((2 * ell, size // ell, words), dtype=np.uint64)
    # the closure is exact per node, so a stage is not closed twice in a row
    order = [*range(n), *range(n - 2, 0, -1)]
    seen = -1
    while True:
        for s in order:
            gathered = buf.reshape(stages[s].shape)
            np.copyto(gathered, stages[s])
            # a singleton family's root is a view of ``buf`` and may see an
            # earlier gain of this loop, which the known set implies too
            for var, gain in zip(buf, _run(code._bp_program, buf)):
                var |= gain
            np.copyto(stages[s], gathered)
        open_ = np.bitwise_or.reduce(~layers[n][info], axis=0)
        count = int(np.bitwise_count(layers).sum())
        if not open_.any() or count == seen:
            return _unpack_bits(open_[None], trials)[0]
        seen = count


def _ambiguous(known: int, code: PolarCode) -> bool:
    """MAP rank test of one word, its known coordinates the bits of
    ``known``: ambiguous iff the information rows, masked to them, are
    linearly dependent (``gf2_independent``)."""
    return not gf2_independent(row & known for row in code._info_rows)


def _map_failures(known: np.ndarray, index: np.ndarray, code: PolarCode) -> np.ndarray:
    """MAP ambiguity of trials ``index`` of a batch of known words (see
    ``_sc_failures``): each trial's bits are gathered from the one byte
    column that holds them and packed along the positions into the
    Python-int mask of ``_ambiguous``."""
    raw = known.astype("<u8", copy=False).view(np.uint8)
    bits = (raw[:, index >> 3] >> (index & 7).astype(np.uint8)) & 1
    masks = np.packbits(bits, axis=0, bitorder="little").T
    return np.array([_ambiguous(int.from_bytes(m.tobytes(), "little"), code)
                     for m in masks], dtype=bool)


def map_decode_bec(word: ErasureWord, code: PolarCode) -> str:
    """Global erasure test: 'unique' or 'ambiguous'.

    Ambiguous iff the information rows admit a nonzero combination supported
    inside the erasure set, i.e. the generator restricted to the known
    coordinates drops rank.  This stays the bare rank test, with no BP
    shortcut, so that it remains an independent oracle for ``simulate``.
    """
    if len(word) != code.block_length:
        raise MismatchedLevel(
            f"word length {len(word)} does not match block length {code.block_length}"
        )
    known = np.packbits(~word.erased_mask(), bitorder="little")
    return "ambiguous" if _ambiguous(int.from_bytes(known.tobytes(), "little"), code) else "unique"


def wilson_interval(errors: int, trials: int) -> tuple:
    """Two-sided 95% Wilson score interval (z = WILSON_Z) for a binomial proportion."""
    trials = whole(trials, "trials", 1)
    errors = whole(errors, "errors", 0, trials)
    p = errors / trials
    zz = WILSON_Z * WILSON_Z / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = (WILSON_Z / (1.0 + zz)) * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials))
    # at the boundary counts center and half agree exactly in theory; pin
    # the closed endpoint so roundoff cannot leak across it
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo block-error summary for both decoders.

    Wilson fields are 95% score intervals.  ``sc_errors`` counts trials with
    at least one undetermined information bit; MAP errors are the ambiguous
    trials and are a subset by construction.
    """

    eps: float
    n: int
    ell: int
    rate: float
    trials: int
    seed: int
    sc_errors: int
    map_errors: int
    sc_interval: tuple = field(repr=False)
    map_interval: tuple = field(repr=False)

    CSV_HEADER = (
        "eps,n,rate,trials,sc_errors,map_errors,sc_rate,map_rate,"
        "sc_wilson_lo,sc_wilson_hi,map_wilson_lo,map_wilson_hi"
    )

    @property
    def sc_rate(self) -> float:
        return self.sc_errors / self.trials

    @property
    def map_rate(self) -> float:
        return self.map_errors / self.trials

    def csv_row(self) -> tuple:
        return (
            self.eps, self.n, self.rate, self.trials, self.sc_errors,
            self.map_errors, self.sc_rate, self.map_rate, *self.sc_interval,
            *self.map_interval,
        )

    def to_csv(self) -> str:
        return csv_text(self.CSV_HEADER, [self.csv_row()])


def _check_inside_sc(fail: np.ndarray, sc_fail: np.ndarray, done: int, what: str) -> None:
    bad = np.flatnonzero(fail & ~sc_fail)
    if bad.size:
        raise AssertionError(f"trial {done + int(bad[0])}: {what} but SC determined")


def simulate(code: PolarCode, eps: float, trials: int, seed: int) -> SimulationReport:
    """Monte Carlo block-error rates for SC and MAP over the BEC.

    Both failure events depend only on the erasure pattern (the code is
    linear with frozen zeros), so trials run on the all-zero word. Trial t
    uses the pattern of ``transmit_bec(0, eps, subseed(seed, t))``; each
    chunk of ``max(1, CELLS // N)`` trials draws its patterns straight into
    packed known words (``erasure_words``) and runs the decoders on them
    as a batch, so memory stays bounded at any block length N and reports
    do not depend on the chunk size.  A trial that erasure BP resolves is
    MAP-unique, so the rank test runs only on BP failures (on every trial
    when the kernel is wider than BP_MAX_ELL, where BP is not run), and
    only their known masks are read from the words.  Every trial
    asserts two inclusions: a BP failure is an SC failure, and a MAP
    failure is an SC failure.
    """
    if not (0.0 <= eps <= 1.0) or math.isnan(eps):
        raise DomainError("eps must lie in [0, 1]")
    trials = whole(trials, "trials", 1)
    seed = whole(seed, "seed")
    size = code.block_length
    chunk = max(1, CELLS // size)
    sc_errors = 0
    map_errors = 0
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        # padding trials past b read as fully known, so they never fail
        known = ~erasure_words(subseeds(seed, b, done), size, eps)
        sc_fail = _sc_failures(known, b, code)
        bp_fail = _bp_failures(known, b, code)
        if bp_fail is None:
            bp_fail = np.ones(b, dtype=bool)
        else:
            _check_inside_sc(bp_fail, sc_fail, done, "BP undetermined")
        map_fail = np.zeros(b, dtype=bool)
        if bp_fail.any():
            map_fail[bp_fail] = _map_failures(known, np.flatnonzero(bp_fail), code)
        _check_inside_sc(map_fail, sc_fail, done, "MAP ambiguous")
        sc_errors += int(sc_fail.sum())
        map_errors += int(map_fail.sum())
        done += b
    return SimulationReport(
        eps=eps,
        n=code.n,
        ell=code.profile.ell,
        rate=code.rate,
        trials=trials,
        seed=seed,
        sc_errors=sc_errors,
        map_errors=map_errors,
        sc_interval=wilson_interval(sc_errors, trials),
        map_interval=wilson_interval(map_errors, trials),
    )
