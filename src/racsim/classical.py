"""Classical strategies for the n-dit random access game.

A deterministic strategy is an encoder table mapping every input string to a
single message dit, with one decoder table per question.  The module evaluates
strategies exactly, builds majority encoding with identity decoding and counts
its exact value at every n, knows the closed-form optima for n = 2 and n = 3,
and ships an exhaustive oracle that recovers the optimum at small sizes.

The oracle searches multisets of decoder columns only.  The best encoder
picks, for each input independently, a message whose column of answers
(f_1(m), ..., f_n(m)) gets the most questions right, so it never needs to be
enumerated, and message labels do not change the value.  Relabeling the
values of one position does not change it either, so of each orbit under
message permutations and per-position relabelings only canonical column
sequences are scored: c_0 <= ... <= c_{d-1} in rank order, every entry of
c_m at most m.  The smallest decoder tuple of an orbit, read f_1's row
first, is canonical: were f_y(m) > m its first entry over the bound, swapping
that value with the smallest value missing from f_y(0..m-1) would lower the
tuple.  So the optimum and the lexicographically smallest optimal decoder
tuple are found among them.

The last two columns (i, j) are scored for many prefixes at once.  With
rows[i] a prefix's best agreement with column i and agree[j, x] the questions
column j answers right on input x, a pair scores sum_x max(rows[i, x],
agree[j, x]), and for integers a, b in 0..n, max(a, b) = n - sum_{t=1..n}
[a < t][b < t].  So the scores are n d^n - sum_t (rows < t) @ (agree < t)^T,
n float32 matrix products.  They are exact: each product entry counts inputs,
an integer at most d^n, and d^n < 2^24, as the (d^n)^2 agreement table could
not exist otherwise.  A block of one row (d = 2, whose one prefix is empty)
is scored by an int8 maximum and sum instead, which is faster for a vector.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .report import FLOAT_MAX, InfeasibleSearchError, SuccessReport, check_int, check_weight, text_chunks

#: Column-multiset budget below which the oracle runs without an override.
#: Covers (n=2, d<=6) at ~4.5M, (n=3, d<=4) at ~766k and (n<=5, d=3) at ~2.4M.
DEFAULT_TUPLE_BUDGET = 10_000_000

#: Cells of every table the oracle scores at once: a block of rows, a chunk of columns, the
#: float32 threshold masks of each and their counts.  A block holds at least one row and a chunk
#: one column, so above 2**19 columns each is up to count cells.
_BLOCK_CELLS = 1 << 19

#: Bits above which the oracle's multiset count is not formed: math.comb takes
#: 2 s at (n=2, d=10^5), minutes at d=10^6, and overflows past d = 2^63 - 1.
_EXACT_BITS = 1 << 19

#: Length from which strategy_from_text first tries the writer's own layout (_written_strategy).
#: Its fixed cost, the writer's, is about 0.35 ms.  Measured crossover on 2 shared cores,
#: Python 3.11, numpy 2.4: (3,14) at 25k characters reads in 0.59 ms that way and 0.55 ms by the
#: general reader, (2,60) at 31k in 0.58 against 0.63 ms, and (2,5) at 194 in 0.35 against 0.06 ms.
_COLUMN_READ_CHARS = 1 << 15


@dataclass(frozen=True)
class ClassicalTask:
    """An [(n, d) -> 1] game: n dits from a size-d alphabet, one dit sent."""

    n: int
    d: int

    def __post_init__(self) -> None:
        check_int(self.n, "string length n", 1)
        check_int(self.d, "alphabet size d", 2)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Encoder table plus one decoder table per question.

    ``encoder[k]`` is the message for the input string of lexicographic rank
    ``k`` (first dit most significant); ``decoders[y-1][m]`` is the answer to
    question ``y`` on receiving message ``m``.  The tables may be given as any
    integer sequences or arrays; both fields hold tuples of Python ints.
    """

    n: int
    d: int
    encoder: tuple[int, ...]
    decoders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = check_int(self.n, "string length n", 1)
        d = check_int(self.d, "alphabet size d", 2)
        count = d**n
        if len(self.encoder) != count:
            raise ValueError(f"encoder table must have {count} entries, got {len(self.encoder)}")
        if len(self.decoders) != n or any(len(t) != d for t in self.decoders):
            raise ValueError(f"need {n} decoder tables of {d} entries each")
        # An integer array is checked by its dtype, shape and range, any other table entry by entry.
        is_array = [isinstance(t, np.ndarray) and t.dtype.kind in "iu" for t in (self.encoder, self.decoders)]
        tables = [*([] if is_array[0] else [self.encoder]), *([] if is_array[1] else self.decoders)]
        # An array's entries are checked as the Python scalars tolist() gives.
        tables = [t.tolist() if isinstance(t, np.ndarray) else t for t in tables]
        # one pass over the entries' types in C, then a check per distinct type
        kinds = set(map(type, itertools.chain(*tables)))
        for kind in kinds:
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise ValueError(f"table entries must be integers, got a {kind.__name__}")
        try:
            entries = np.fromiter(itertools.chain(*tables), dtype=np.int64, count=sum(map(len, tables)))
            entries.flags.writeable = False
            # astype copies, so a later change to the caller's array reaches neither table. It
            # wraps uint64 entries of 2^63 and above round to negative ones, which are refused.
            encoder = self.encoder.astype(np.int64) if is_array[0] else entries[:count]
            decoders = self.decoders.astype(np.int64) if is_array[1] else entries[-n * d :].reshape(n, d)
            in_range = min(encoder.min(), decoders.min()) >= 0 and max(encoder.max(), decoders.max()) < d
        except OverflowError:  # beyond int64, so out of range too
            in_range = False
        if not in_range:
            raise ValueError(f"table entries must lie in 0..{d - 1}")
        if encoder.shape != (count,) or decoders.shape != (n, d):
            shapes = f"({count},) and ({n}, {d}), got {encoder.shape} and {decoders.shape}"
            raise ValueError(f"table arrays must have shapes {shapes}")
        encoder.flags.writeable = decoders.flags.writeable = False
        # Not a dataclass field: equality, hashing and asdict() see the tuples only.
        object.__setattr__(self, "_arrays", (encoder, decoders))
        if kinds != {int} or any(type(t) is not tuple for t in (self.encoder, self.decoders, *self.decoders)):
            object.__setattr__(self, "encoder", tuple(encoder.tolist()))
            object.__setattr__(self, "decoders", tuple(map(tuple, decoders.tolist())))


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Outcome of an exhaustive search over deterministic strategies."""

    optimum: float
    witness: DeterministicStrategy
    strategies_examined: int


def all_inputs(n: int, d: int) -> np.ndarray:
    """All d^n input strings as the columns of an unsigned (n, d^n) table, in lexicographic order."""
    return np.indices((d,) * n, dtype=np.min_scalar_type(d - 1)).reshape(n, -1)


def _hits(x: np.ndarray, messages: np.ndarray, decoders: np.ndarray) -> np.ndarray:
    """Which questions the tables answer right on each input string, as an (n, d^n) table like ``x``."""
    return decoders.take(messages, axis=1) == x


def _majority_messages(x: np.ndarray) -> np.ndarray:
    """Most frequent dit of each input string, ties going to the earliest position."""
    best, top = x[0], (x == x[0]).sum(axis=0, dtype=np.int8)
    for row in x[1:]:
        count = (x == row).sum(axis=0, dtype=np.int8)
        best, top = np.where(count > top, row, best), np.maximum(top, count)
    return best


def evaluate_strategy(task: ClassicalTask, strategy: DeterministicStrategy) -> SuccessReport:
    """Exact success counting of one deterministic strategy: the average is the share of
    cells that are hits, the worst case the least hit count of an input string over n."""
    if (strategy.n, strategy.d) != (task.n, task.d):
        raise ValueError(
            f"strategy tables are for (n={strategy.n}, d={strategy.d}), "
            f"task is (n={task.n}, d={task.d})"
        )
    n, d = task.n, task.d
    hits = _hits(all_inputs(n, d), *strategy._arrays)
    average, worst = np.count_nonzero(hits) / hits.size, int(hits.sum(axis=0).min()) / n
    # np.asarray, not astype: with astype the classical-oracle benchmark read 1.3 MB more peak RSS
    return SuccessReport(average, worst, lambda: np.asarray(hits.T.reshape((d,) * n + (n,)), dtype=float))


def majority_identity_strategy(task: ClassicalTask) -> DeterministicStrategy:
    """Send the most frequent dit (ties broken by earliest position), decode verbatim."""
    n, d = task.n, task.d
    encoder = _majority_messages(all_inputs(n, d))
    return DeterministicStrategy(n=n, d=d, encoder=encoder, decoders=(tuple(range(d)),) * n)


def majority_identity_value(task: ClassicalTask) -> Fraction:
    """Exact average success of :func:`majority_identity_strategy`, from dit multiplicities alone:
    identity decoders answer right at every position that holds the sent dit, so it scores
    sum_x maxcount(x) = sum_{k=1..n} (d^n - N(k-1)), where N(j) = n! [t^n] (sum_{i<=j} t^i / i!)^d
    counts the strings in which no dit appears more than j times.  Each series is kept as its count
    of strings of each length and raised to the d-th power by squaring: O(n^3 log d) int operations."""
    n, d = task.n, task.d
    comb = [[math.comb(m, i) for i in range(m + 1)] for m in range(n + 1)]

    def times(a: list, b: list) -> list:  # strings over two disjoint alphabets, by length
        return [sum(c * a[i] * b[m - i] for i, c in enumerate(comb[m])) for m in range(n + 1)]

    hits = d**n  # k = 1: N(0) = 0, as every string holds some dit
    for j in range(1, n):
        power, base, e = [1] + [0] * n, [int(i <= j) for i in range(n + 1)], d
        while e:
            power, e = times(power, base) if e & 1 else power, e >> 1
            base = times(base, base) if e else base
        hits += d**n - power[n]
    return Fraction(hits, n * d**n)


def _two_dit_value(d):
    """Optimal classical two-dit success (1 + 1/d) / 2, for one int or elementwise over an array."""
    return 0.5 * (1.0 + 1.0 / d)


def closed_form_classical(n: int, d: int) -> float:
    """Optimal classical average success for n = 2 or n = 3."""
    n = check_int(n, "string length n of a known closed form", 2, 3)
    d = check_int(d, "alphabet size d", 2, FLOAT_MAX)
    if n == 2:
        return _two_dit_value(d)
    return (1.0 + 3.0 / d - 1 / d**2) / 3.0  # int / int: 0.0, not OverflowError, past d ~ 1e154


def _log10_multisets(log_count: float, d: int) -> int:
    """log10 C(count + d - 1, d), rounded, from ln count, by Stirling's series taken per dit: with
    r = d / count, ln C = d (ln(1 + r) / r + ln(1 + 1/r)) - ln(2 pi d (1 + r)) / 2 + O(1/d).
    No float overflows, and nothing cancels as in lgamma(count + d) - lgamma(count)."""
    t = log_count - math.log(d)  # ln(1/r) >= 0, as count >= d
    r = math.exp(-t)
    per_dit = (math.log1p(r) / r if r else 1.0) + t + math.log1p(r)
    rest = (math.log1p(r) + math.log(2 * math.pi) + math.log(d)) / 2
    return round((d * Fraction(per_dit) - Fraction(rest)) / Fraction(math.log(10)))


def optimal_classical_bruteforce(
    task: ClassicalTask,
    *,
    max_tuples: int = DEFAULT_TUPLE_BUDGET,
    allow_large: bool = False,
) -> OracleResult:
    """Exact maximum average success over all deterministic strategies.

    The search covers the C(d^n + d - 1, d) multisets of decoder columns and
    scores only the canonical ones (see the module docstring); that count is
    ``strategies_examined``.  When it exceeds ``max_tuples`` the search
    refuses to run unless ``allow_large`` is set.  The reported witness
    carries the lexicographically smallest optimal decoder tuple and its
    greedy encoder.
    """
    check_int(max_tuples, "multiset budget max_tuples", 0)
    if not isinstance(allow_large, bool):
        raise ValueError(f"allow_large must be a bool, got {allow_large!r}")
    n, d = task.n, task.d
    # C(count + d - 1, d) < (count + d)^d, so its bits are below d * (count + d).bit_length(), and
    # count = d^n has over n * (bit_length(d) - 1) bits: past _EXACT_BITS neither is formed.
    count = d**n if d * (n * (d.bit_length() - 1) + 1) <= _EXACT_BITS else None
    required = math.comb(count + d - 1, d) if count and d * (count + d).bit_length() <= _EXACT_BITS else None
    if required is None or (required > max_tuples and not allow_large):
        log10 = _log10_multisets(n * math.log(d), d) if required is None else round(math.log10(required))
        if required is None and allow_large:
            raise ValueError(f"exhaustive search needs about 10^{log10} column multisets, too many to search")
        raise InfeasibleSearchError(required, max_tuples, log10)
    cols = all_inputs(n, d)
    level = cols.max(axis=0)

    # agree[x, c]: questions answered right on input x by a message of column c; inputs and
    # columns are the same strings, so the table is symmetric.  It is built in slabs of rows
    # whose comparisons, every dit of every input against every column, hold _BLOCK_CELLS cells.
    agree = np.empty((count, count), dtype=np.int8)
    slab = max(1, _BLOCK_CELLS // cols.size)
    for top in range(0, count, slab):
        same = cols[:, top : top + slab, None] == cols[:, None, :]
        same.sum(axis=0, dtype=np.int8, out=agree[top : top + slab])
    block = max(1, _BLOCK_CELLS // count)
    prefixes = _canonical_prefixes(level, d - 2)

    best_count, best_key = -1, None
    # The first d - 2 columns of a canonical sequence come from the prefixes, the
    # last two (i, j) from blocks of rows: each prefix's columns i of level at most
    # d - 2 from its last on, each row the prefix's best agreement with i, scored
    # against every column j from the block's least i on.  Entries with j < i are
    # real strategies too, so they can change neither the optimum nor the witness.
    for held, owner, index in _row_blocks(prefixes, np.flatnonzero(level <= d - 2), block):
        partial = np.zeros((len(held), count), dtype=np.int8)
        for column in held.T:
            np.maximum(partial, agree[column], out=partial)
        rows = np.maximum(agree[index], partial[owner])
        for left in range(int(index.min()), count, block):
            counts = _pair_counts(rows, agree[left : left + block], n)
            top_count = int(counts.max())
            if top_count < best_count:
                continue
            i, j = np.nonzero(counts == top_count)
            sets = np.column_stack([held[owner[i]], index[i], left + j])
            if top_count > best_count:
                best_count, best_key = top_count, None
            best_key = _smallest_decoder_tuple(cols, sets, best_key)

    witness = _greedy_witness(task, np.reshape(best_key, (n, d)), best_count)
    optimum = best_count / (n * count)
    return OracleResult(optimum=optimum, witness=witness, strategies_examined=required)


def _canonical_prefixes(level: np.ndarray, length: int):
    """Nondecreasing column sequences c_0..c_{length-1} with level(c_m) <= m, in order."""
    allowed = [np.flatnonzero(level <= m).tolist() for m in range(length)]

    def extend(prefix: tuple):
        if len(prefix) == length:
            yield prefix
            return
        for c in allowed[len(prefix)]:
            if not prefix or c >= prefix[-1]:
                yield from extend((*prefix, c))

    return extend(())


def _row_blocks(prefixes, penultimate: np.ndarray, block: int):
    """The rows (prefix, i), i each column of ``penultimate`` from the prefix's last on, ``block`` at a
    time: each block as its prefixes, a (k, length) array, and per row its prefix's place and its i."""
    starts = penultimate.tolist()
    spans, size = [], 0
    for prefix in prefixes:
        low = bisect.bisect_left(starts, prefix[-1]) if prefix else 0
        while low < len(starts):  # a prefix's run of rows may be split between blocks
            high = min(len(starts), low + block - size)
            spans.append((prefix, low, high))
            size, low = size + high - low, high
            if size == block:
                yield _rows(spans, penultimate)
                spans, size = [], 0
    if spans:
        yield _rows(spans, penultimate)


def _rows(spans: list, penultimate: np.ndarray) -> tuple:
    """(prefixes, owner, index) of the rows ``penultimate[low:high]`` of each span (prefix, low, high)."""
    held, lows, highs = zip(*spans)
    lengths = np.subtract(highs, lows)
    owner = np.repeat(np.arange(len(spans)), lengths)
    # each row's place in the block, moved to its place in penultimate
    index = penultimate[np.arange(len(owner)) + np.repeat(lows - (np.cumsum(lengths) - lengths), lengths)]
    return np.array(held, dtype=np.intp), owner, index


def _pair_counts(rows: np.ndarray, columns: np.ndarray, n: int) -> np.ndarray:
    """counts[i, j] = sum_x max(rows[i, x], columns[j, x]) for int8 tables of entries in 0..n."""
    if len(rows) == 1:  # a vector against a matrix: one int8 pass beats n float32 products
        return np.maximum(rows[:, None, :], columns[None, :, :]).sum(axis=2, dtype=np.int64)
    # The threshold identity of the module docstring: each product entry counts inputs, so it is an
    # integer below 2^24 that float32 holds exactly, and it is made an integer before it is summed.
    counts = np.full((len(rows), len(columns)), n * rows.shape[1], dtype=np.int32)
    below_rows = np.empty(rows.shape, dtype=np.float32)
    below_columns = np.empty(columns.shape, dtype=np.float32)
    product = np.empty(counts.shape, dtype=np.float32)
    for t in range(1, n + 1):
        np.less(rows, t, out=below_rows)
        np.less(columns, t, out=below_columns)
        np.matmul(below_rows, below_columns.T, out=product)
        np.subtract(counts, product, out=counts, dtype=np.int32, casting="unsafe")
    return counts


def _smallest_decoder_tuple(cols: np.ndarray, sets: list, incumbent: tuple | None) -> tuple:
    """Smallest decoder tuple of ``incumbent`` and of the column multisets ``sets``."""
    # Columns in rank order give a multiset's smallest decoder tuple.
    keys = cols[:, sets].transpose(1, 0, 2).reshape(len(sets), -1)
    key = tuple(keys[np.lexsort(keys.T[::-1])[0]].tolist())
    return key if incumbent is None or key < incumbent else incumbent


def _greedy_witness(
    task: ClassicalTask, decoders: np.ndarray, expected_count: int
) -> DeterministicStrategy:
    """Strategy with the given decoder rows and the per-input greedy encoder."""
    n, d = task.n, task.d
    score = (decoders[:, None, :] == all_inputs(n, d)[:, :, None]).sum(axis=0)
    encoder = score.argmax(axis=1)  # ties resolved toward the smallest message
    total = int(score.max(axis=1).sum())
    if total != expected_count:
        raise AssertionError(f"greedy encoder scores {total}, search reported {expected_count}")
    return DeterministicStrategy(n=n, d=d, encoder=encoder, decoders=decoders)


def mixture_value(
    task: ClassicalTask, strategies: list[tuple[DeterministicStrategy, float]]
) -> float:
    """Average success of a shared-randomness mixture of deterministic strategies."""
    if not strategies:
        raise ValueError("mixture needs at least one strategy")
    weights = [w for _, w in strategies]
    for w in weights:
        check_weight(w, "weights")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {total}")
    return sum(w * evaluate_strategy(task, s).average for s, w in strategies)


def strategy_to_text(strategy: DeterministicStrategy) -> str:
    """Serialize a strategy in the exchange table format.

    Line 1 is ``n d``; the next d^n lines list an input string followed by its
    message, in lexicographic input order; then n blocks of d lines map each
    message to the answer for questions y = 1..n.
    """
    return "".join(_text_pieces(strategy.n, strategy.d, *strategy._arrays))


def _text_pieces(n: int, d: int, messages: np.ndarray, decoders: np.ndarray):
    """The text of :func:`strategy_to_text` for the message and (n, d) decoder arrays, in pieces written
    as they are taken: the header line, then the encoder and decoder lines ``text_chunks`` rows at a time."""
    yield f"{n} {d}\n"
    yield from text_chunks("%s " * n + "%s\n", [*all_inputs(n, d), messages], str)
    yield from text_chunks("%s %s\n", [np.tile(np.arange(d), n), decoders.ravel()], str)


def strategy_from_text(text: str) -> DeterministicStrategy:
    """Parse the exchange table format produced by :func:`strategy_to_text`.

    Lines may come in any order within a block, but each input string and
    each message of a block must appear exactly once.  A long text in the
    writer's own layout is read from its last column alone; any other text,
    line by line.  Both give the same strategy or the same ``ValueError``.
    """
    if isinstance(text, str) and len(text) >= _COLUMN_READ_CHARS:
        written = _written_strategy(text)
        if written is not None:
            return written
    return _read_table(text)


def _written_strategy(text: str) -> DeterministicStrategy | None:
    """The strategy that :func:`strategy_to_text` writes as ``text``, or None if it writes none so.

    Only the last token of each line, its message or answer, is read; the tables those make are then
    written piece by piece against ``text``, and the strategy is built once all of it matches.  As the
    writer is injective and :func:`_read_table` reads what it writes back, this is its strategy too."""
    header = re.match(r"([1-9][0-9]*) ([1-9][0-9]*)\n", text)  # as the writer writes n and d
    if header is None or not text.isascii():
        return None
    n, d = map(int, header.groups())
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    # Once n and d are below the line count, d^n is small enough to compute.
    if max(n, d) >= len(ends) or 1 + d**n + n * d != len(ends) or ends[-1] != len(raw) - 1:
        return None
    # Each line's last token, read from its end back to the first byte that is not a digit.
    last, count = ends[1:], d**n
    values, reading = np.zeros(len(last), dtype=np.int64), np.ones(len(last), dtype=bool)
    for place in range(len(str(d - 1))):
        digit = raw[last - 1 - place] - np.uint8(ord("0"))  # bytes below '0' wrap above 9
        reading &= digit < 10
        values += np.where(reading, digit, 0).astype(np.int64) * 10**place
    messages, decoders = values[:count], values[count:].reshape(n, d)
    start = 0
    try:
        for piece in _text_pieces(n, d, messages, decoders):
            if not text.startswith(piece, start):
                return None
            start += len(piece)
        return DeterministicStrategy(n, d, encoder=messages, decoders=decoders) if start == len(text) else None
    except ValueError:  # d = 1 or a value out of range, which the general reader reports
        return None


def _read_table(text: str) -> DeterministicStrategy:
    """:func:`strategy_from_text` for any text: each line read whole, in any order within its block."""
    # int() would also read '1_0' and non-ASCII digits, and older numpy readers '1.0' as 1.
    allowed = "0123456789+- \t\n\r\x0b\x0c"
    if not text.isascii() or text.encode().translate(None, allowed.encode()):
        bad = next(c for c in text if c not in allowed)
        raise ValueError(f"strategy table tokens must be ASCII decimal integers, got {bad!r}")
    lines = list(filter(str.strip, text.splitlines()))
    if not lines or len(lines[0].split()) != 2:
        raise ValueError("strategy table must start with a header line 'n d'")
    n, d = map(int, lines[0].split())
    ClassicalTask(n=n, d=d)  # rejects n < 1 and d < 2
    # Once n and d are below the line count, d^n is small enough to compute.
    if max(n, d) >= len(lines) or 1 + d**n + n * d != len(lines):
        raise ValueError(f"strategy table for n={n}, d={d} needs 1 + d^n + n*d lines, got {len(lines)}")

    top = len(lines) - n * d  # the first decoder line
    encoder = _keyed_values(lines[1:top], n, d, "encoder")
    blocks = enumerate(range(top, len(lines), d), start=1)
    decoders = [_keyed_values(lines[i : i + d], 1, d, f"question {y} decoder") for y, i in blocks]
    return DeterministicStrategy(n=n, d=d, encoder=encoder, decoders=decoders)


def _keyed_values(lines: list[str], k: int, d: int, what: str) -> np.ndarray:
    """Values of the lines ``key_1 ... key_k value`` in key order; each key of k dits must appear once."""
    # numpy's reader rejects ragged lines, non-integer tokens and values beyond int64 with ValueError.
    rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    if rows.shape[1] != k + 1:
        raise ValueError(f"{what} lines must hold {k + 1} integers, got {rows.shape[1]}")
    keys = rows[:, :k]
    if keys.min() < 0 or keys.max() >= d:
        raise ValueError(f"{what} keys must lie in 0..{d - 1}")
    ranks = keys @ d ** np.arange(k - 1, -1, -1)
    hits = np.bincount(ranks, minlength=len(lines))
    if (hits != 1).any():
        rank = int(np.argmax(hits != 1))
        key = " ".join(map(str, np.unravel_index(rank, (d,) * k)))
        raise ValueError(f"each {what} key must appear on one line; {key} appears on {hits[rank]}")
    values = np.empty(len(lines), dtype=np.int64)
    values[ranks] = rows[:, k]
    return values
