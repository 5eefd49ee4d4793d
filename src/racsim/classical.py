"""Classical strategies for the n-dit random access game.

A deterministic strategy is an encoder table mapping every input string to a
single message dit together with one decoder table per question.  The module
evaluates arbitrary strategies exactly, builds the majority-encoding
identity-decoding strategy, knows the closed-form optima for n = 2 and n = 3,
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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .report import FLOAT_MAX, SuccessReport, check_int, check_weight

#: Column-multiset budget below which the oracle runs without an override.
#: Covers (n=2, d<=6) at ~4.5M, (n=3, d<=4) at ~766k and (n<=5, d=3) at ~2.4M.
DEFAULT_TUPLE_BUDGET = 10_000_000

#: Cells of the (rows i, columns j, inputs) int8 block scored at once.  Rows are
#: gathered by level; a block holds at least one row, so above 2048 columns it
#: is up to count**2 cells.
_BLOCK_CELLS = 1 << 22

#: Table lines the text writer and parser format or split at once.
_TEXT_ROWS = 1 << 12

#: Bits above which the oracle's multiset count is not formed: math.comb takes
#: 2 s at (n=2, d=10^5), minutes at d=10^6, and overflows past d = 2^63 - 1.
_EXACT_BITS = 1 << 19


class InfeasibleSearchError(ValueError):
    """Raised when an exhaustive search would exceed its multiset budget.  ``required`` is the
    multiset count, or None when it may exceed ``_EXACT_BITS``; ``log10`` is its rounded log10."""

    def __init__(self, required: int | None, budget: int, log10: int):
        self.required = required
        self.budget = budget
        # Python refuses to write an int of over 4,300 digits in decimal.
        size = str(required) if log10 < 4000 else f"about 10^{log10}"
        super().__init__(
            f"exhaustive search needs {size} column multisets, above the budget "
            f"of {budget}; pass allow_large=True to run it anyway"
        )


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
        # An array's entries are checked as the Python scalars tolist() gives.
        tables = [t.tolist() if isinstance(t, np.ndarray) else t for t in (self.encoder, *self.decoders)]
        # one pass over the entries' types in C, then a check per distinct type
        kinds = set(map(type, itertools.chain(*tables)))
        for kind in kinds:
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise ValueError(f"table entries must be integers, got a {kind.__name__}")
        try:
            entries = np.fromiter(itertools.chain(*tables), dtype=np.int64, count=count + n * d)
            in_range = entries.min() >= 0 and entries.max() < d
        except OverflowError:  # beyond int64, so out of range too
            in_range = False
        if not in_range:
            raise ValueError(f"table entries must lie in 0..{d - 1}")
        entries.flags.writeable = False
        encoder, decoders = entries[:count], entries[count:].reshape(n, d)
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
    """Exact success counting of one deterministic strategy."""
    if (strategy.n, strategy.d) != (task.n, task.d):
        raise ValueError(
            f"strategy tables are for (n={strategy.n}, d={strategy.d}), "
            f"task is (n={task.n}, d={task.d})"
        )
    n, d = task.n, task.d
    per = _hits(all_inputs(n, d), *strategy._arrays)
    return SuccessReport.from_per_input(per.T.reshape((d,) * n + (n,)))


def majority_identity_strategy(task: ClassicalTask) -> DeterministicStrategy:
    """Send the most frequent dit (ties broken by earliest position), decode verbatim."""
    n, d = task.n, task.d
    encoder = _majority_messages(all_inputs(n, d))
    return DeterministicStrategy(n=n, d=d, encoder=encoder, decoders=(tuple(range(d)),) * n)


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

    # agree[x, c]: questions answered right on input x by a message of column c;
    # inputs and columns are the same strings, so the table is symmetric.
    agree = np.zeros((count, count), dtype=np.int8)
    for row in cols:
        agree += row[:, None] == row[None, :]
    block = max(1, _BLOCK_CELLS // count**2)
    penultimate = np.flatnonzero(level <= d - 2)

    best_count, best_key = -1, None
    # The first d - 2 columns of a canonical sequence come from the prefixes, the
    # last two (i, j) from one block of rows i at a time: columns of level at most
    # d - 2 from the prefix's last on, against every column j from the block's
    # first row on.  Entries with j < i are real strategies too, so they can
    # change neither the optimum nor the witness.
    for prefix in _canonical_prefixes(level, d - 2):
        partial = agree[list(prefix)].max(axis=0, initial=0)
        candidates = penultimate[penultimate >= (prefix[-1] if prefix else 0)]
        for top in range(0, len(candidates), block):
            index = candidates[top : top + block]
            first = int(index[0])
            rows = np.maximum(agree[index], partial)
            counts = np.maximum(rows[:, None, :], agree[None, first:, :]).sum(axis=2, dtype=np.int64)
            top_count = int(counts.max())
            if top_count < best_count:
                continue
            i, j = np.nonzero(counts == top_count)
            sets = [(*prefix, int(index[a]), first + b) for a, b in zip(i.tolist(), j.tolist())]
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
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    return sum(w * evaluate_strategy(task, s).average for s, w in strategies)


def strategy_to_text(strategy: DeterministicStrategy) -> str:
    """Serialize a strategy in the exchange table format.

    Line 1 is ``n d``; the next d^n lines list an input string followed by its
    message, in lexicographic input order; then n blocks of d lines map each
    message to the answer for questions y = 1..n.
    """
    n, d = strategy.n, strategy.d
    words = np.array([str(v) for v in range(d)], dtype=object)
    columns = np.vstack((all_inputs(n, d), strategy._arrays[0]))  # each: an input string, its message
    lines = [f"{n} {d}"]
    # Joined a chunk of columns at a time, so no list holds every encoder line.
    for top in range(0, columns.shape[1], _TEXT_ROWS):
        lines.append("\n".join(map(" ".join, words[columns[:, top : top + _TEXT_ROWS].T].tolist())))
    lines += (f"{m} {a}" for table in strategy.decoders for m, a in enumerate(table))
    return "\n".join([*lines, ""])


def strategy_from_text(text: str) -> DeterministicStrategy:
    """Parse the exchange table format produced by :func:`strategy_to_text`.

    Lines may come in any order within a block, but each input string and
    each message of a block must appear exactly once.
    """
    # int() would also read '1_0' and non-ASCII digits, such as Arabic-Indic ones.
    if not text.isascii() or "_" in text:
        bad = next(c for c in text if c == "_" or not c.isascii())
        raise ValueError(f"strategy table tokens must be ASCII decimal integers, got {bad!r}")
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2:
        raise ValueError("strategy table must start with a header line 'n d'")
    n, d = (int(v) for v in header)
    ClassicalTask(n=n, d=d)  # rejects n < 1 and d < 2
    # Once n and d are below the line count, d^n is small enough to compute.
    if max(n, d) >= len(lines) or 1 + d**n + n * d != len(lines):
        raise ValueError(f"strategy table for n={n}, d={d} needs 1 + d^n + n*d lines, got {len(lines)}")

    encoder = _keyed_values(lines[1 : -n * d], n, d, "encoder")
    decoders = [
        _keyed_values(lines[start : start + d], 1, d, f"question {y} decoder")
        for y, start in enumerate(range(len(lines) - n * d, len(lines), d), start=1)
    ]
    return DeterministicStrategy(n=n, d=d, encoder=encoder, decoders=decoders)


def _keyed_values(lines: list[str], k: int, d: int, what: str) -> np.ndarray:
    """Values of the lines ``key_1 ... key_k value``, in lexicographic key order.

    Every key of k dits must appear on exactly one line.  Lines are split a
    chunk at a time, so no list holds every line's tokens.
    """
    rows = np.empty((len(lines), k + 1), dtype=np.int64)
    for top in range(0, len(lines), _TEXT_ROWS):
        chunk = [line.split() for line in lines[top : top + _TEXT_ROWS]]
        if set(map(len, chunk)) != {k + 1}:
            bad = next(row for row in chunk if len(row) != k + 1)
            raise ValueError(f"{what} lines must hold {k + 1} integers, got {' '.join(bad)!r}")
        try:
            rows[top : top + len(chunk)] = np.array(chunk, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"table entries must lie in the int64 range: {exc}") from exc
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
