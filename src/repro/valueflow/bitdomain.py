"""Bitset encoding of the taint lattice.

:class:`RegionInterner` assigns each distinct :class:`TaintSource` a
dense index *i*, so a whole :class:`Taint` becomes one Python int.
The layout is interleaved: source *i* owns *data* bit ``2*i`` and
*control* bit ``2*i + 1``. The lattice operations collapse to integer
arithmetic:

- ``join``        → ``a | b``
- ``unsafe(x)``   → ``enc & data_mask != 0``
- ``as_control``  → ``((enc | enc >> 1) & data_mask) << 1``
- placeholder strip (summary mode) → ``enc & keep_mask``

``data_mask`` (every even bit of an interned source) and ``keep_mask``
grow as sources are interned, so the interner has no width limit: a
new source only appends two bits above the existing ones, and no
existing encoding changes. Encodings are ordinary Python ints and stay
small while few bits are set, which is the common case. This module
is the only one that knows the layout — the compiled kernel goes
through :meth:`RegionInterner.data_bit` and
:meth:`RegionInterner.as_control`, never through raw shifts.

``encode``/``decode`` are total inverses over interned taints:
``decode(encode(t)) is t`` (decoding re-enters the :class:`Taint`
intern table, so identity-keyed memos in the engine stay sound), and
distinct taints never share an encoding.
"""

from __future__ import annotations

from typing import Dict, List

from .taint import EMPTY_SOURCES, SAFE, Taint, TaintSource

#: summary-mode parameter placeholders (must match the engine's
#: ``_PLACEHOLDER_PREFIX``; asserted in the engine at kernel start-up)
PLACEHOLDER_PREFIX = "\x00arg:"


class RegionInterner:
    """Dense indices for taint sources, plus encode/decode memos."""

    __slots__ = (
        "data_mask", "keep_mask",
        "_index_of", "_source_of", "_enc_memo", "_dec_memo",
    )

    def __init__(self):
        #: the data bit of every interned source
        self.data_mask = 0
        #: AND-mask dropping both bits of every placeholder source
        self.keep_mask = -1
        self._index_of: Dict[TaintSource, int] = {}
        self._source_of: List[TaintSource] = []
        #: id(taint) -> encoding. Sound because the Taint intern table
        #: holds strong references: ids of interned taints never recycle.
        self._enc_memo: Dict[int, int] = {id(SAFE): 0}
        self._dec_memo: Dict[int, Taint] = {0: SAFE}

    def __len__(self) -> int:
        return len(self._source_of)

    def data_bit(self, source: TaintSource) -> int:
        """The data bit of ``source`` (its control bit is the next one
        up), interning the source on first sight."""
        index = self._index_of.get(source)
        if index is None:
            index = len(self._source_of)
            self._index_of[source] = index
            self._source_of.append(source)
            bit = 1 << 2 * index
            self.data_mask |= bit
            if source.region.startswith(PLACEHOLDER_PREFIX):
                self.keep_mask &= ~(bit | bit << 1)
            return bit
        return 1 << 2 * index

    def encode(self, taint: Taint) -> int:
        enc = self._enc_memo.get(id(taint))
        if enc is not None:
            return enc
        data_bit = self.data_bit
        enc = 0
        for source in taint.data:
            enc |= data_bit(source)
        for source in taint.control:
            enc |= data_bit(source) << 1
        self._enc_memo[id(taint)] = enc
        self._dec_memo.setdefault(enc, taint)
        return enc

    def decode(self, enc: int) -> Taint:
        taint = self._dec_memo.get(enc)
        if taint is not None:
            return taint
        source_of = self._source_of
        data: List[TaintSource] = []
        control: List[TaintSource] = []
        digits = bin(enc)[:1:-1]  # least significant bit first
        i = digits.find("1")
        while i >= 0:
            (control if i & 1 else data).append(source_of[i >> 1])
            i = digits.find("1", i + 1)
        taint = Taint(frozenset(data) if data else EMPTY_SOURCES,
                      frozenset(control) if control else EMPTY_SOURCES)
        self._dec_memo[enc] = taint
        # the decoded taint round-trips to the same bits by construction
        self._enc_memo.setdefault(id(taint), enc)
        return taint

    def as_control(self, enc: int) -> int:
        """Bitset mirror of :meth:`Taint.as_control`."""
        return ((enc | enc >> 1) & self.data_mask) << 1
