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

import numpy as np

from .report import SuccessReport, check_int

#: Column-multiset budget below which the oracle runs without an override.
#: Covers (n=2, d<=6) at ~4.5M, (n=3, d<=4) at ~766k and (n<=5, d=3) at ~2.4M.
DEFAULT_TUPLE_BUDGET = 10_000_000

#: Cells of the (rows i, columns j, inputs) int8 block scored at once.  Rows are
#: gathered by level; a block holds at least one row, so above 2048 columns it
#: is up to count**2 cells.
_BLOCK_CELLS = 1 << 22


class InfeasibleSearchError(ValueError):
    """Raised when an exhaustive search would exceed its multiset budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exhaustive search needs {required} column multisets, above the budget "
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

    @property
    def input_count(self) -> int:
        return self.d**self.n


@dataclass(frozen=True)
class DeterministicStrategy:
    """Encoder table plus one decoder table per question.

    ``encoder[k]`` is the message for the input string of lexicographic rank
    ``k`` (first dit most significant); ``decoders[y-1][m]`` is the answer to
    question ``y`` on receiving message ``m``.
    """

    n: int
    d: int
    encoder: tuple[int, ...]
    decoders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_int(self.n, "string length n", 1)
        check_int(self.d, "alphabet size d", 2)
        if len(self.encoder) != self.d**self.n:
            raise ValueError(
                f"encoder table must have {self.d ** self.n} entries, got {len(self.encoder)}"
            )
        if len(self.decoders) != self.n or any(len(t) != self.d for t in self.decoders):
            raise ValueError(f"need {self.n} decoder tables of {self.d} entries each")
        # one pass over the entries' types in C, then a check per distinct type
        for kind in set(map(type, itertools.chain(self.encoder, *self.decoders))):
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise ValueError(f"table entries must be integers, got a {kind.__name__}")
        try:
            entries = np.fromiter(
                itertools.chain(self.encoder, *self.decoders),
                dtype=np.int64,
                count=len(self.encoder) + self.n * self.d,
            )
            in_range = entries.min() >= 0 and entries.max() < self.d
        except OverflowError:  # beyond int64, so out of range too
            in_range = False
        if not in_range:
            raise ValueError(f"table entries must lie in 0..{self.d - 1}")


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Outcome of an exhaustive search over deterministic strategies."""

    optimum: float
    witness: DeterministicStrategy
    strategies_examined: int


def input_rank(x: tuple[int, ...], d: int) -> int:
    """Lexicographic rank of a dit string, first position most significant."""
    rank = 0
    for value in x:
        if not 0 <= value < d:
            raise ValueError(f"dit values must lie in 0..{d - 1}, got {value}")
        rank = rank * d + value
    return rank


def all_inputs(n: int, d: int) -> np.ndarray:
    """All d^n input strings as an array of rows in lexicographic order."""
    grids = np.meshgrid(*([np.arange(d)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def evaluate_strategy(task: ClassicalTask, strategy: DeterministicStrategy) -> SuccessReport:
    """Exact success counting of one deterministic strategy."""
    if (strategy.n, strategy.d) != (task.n, task.d):
        raise ValueError(
            f"strategy tables are for (n={strategy.n}, d={strategy.d}), "
            f"task is (n={task.n}, d={task.d})"
        )
    n, d = task.n, task.d
    inputs = all_inputs(n, d)
    messages = np.asarray(strategy.encoder)
    decoders = np.asarray(strategy.decoders)
    per = decoders[:, messages].T == inputs
    return SuccessReport.from_per_input(per.reshape((d,) * n + (n,)))


def majority_identity_strategy(task: ClassicalTask) -> DeterministicStrategy:
    """Send the most frequent dit (ties broken by earliest position), decode verbatim."""
    n, d = task.n, task.d
    inputs = all_inputs(n, d)
    # Count, per position, how often that position's value occurs in its
    # string; the first position whose value attains the maximum count wins
    # the tie-break.
    per_position = np.zeros(inputs.shape, dtype=np.int8)
    for j in range(n):
        per_position += inputs == inputs[:, [j]]
    first = (per_position == per_position.max(axis=1, keepdims=True)).argmax(axis=1)
    encoder = inputs[np.arange(task.input_count), first]
    identity = tuple(range(d))
    return DeterministicStrategy(n=n, d=d, encoder=tuple(encoder.tolist()), decoders=(identity,) * n)


def closed_form_classical(n: int, d: int) -> float:
    """Optimal classical average success for n = 2 or n = 3."""
    check_int(n, "string length n of a known closed form", 2, 3)
    check_int(d, "alphabet size d", 2)
    if n == 2:
        return 0.5 * (1.0 + 1.0 / d)
    return (1.0 + 3.0 / d - 1.0 / d**2) / 3.0


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
    n, d = task.n, task.d
    count = task.input_count
    required = math.comb(count + d - 1, d)
    if required > max_tuples and not allow_large:
        raise InfeasibleSearchError(required, max_tuples)
    cols = all_inputs(n, d)
    level = cols.max(axis=1)

    # agree[x, c]: questions answered right on input x by a message of column c;
    # inputs and columns are the same strings, so the table is symmetric.
    agree = np.zeros((count, count), dtype=np.int8)
    for y in range(n):
        agree += cols[:, None, y] == cols[None, :, y]
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
    optimum = best_count / (n * task.input_count)
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
    keys = cols[sets].transpose(0, 2, 1).reshape(len(sets), -1)
    key = tuple(keys[np.lexsort(keys.T[::-1])[0]].tolist())
    return key if incumbent is None or key < incumbent else incumbent


def _greedy_witness(
    task: ClassicalTask, decoders: np.ndarray, expected_count: int
) -> DeterministicStrategy:
    """Strategy with the given decoder rows and the per-input greedy encoder."""
    n, d = task.n, task.d
    inputs = all_inputs(n, d)
    score = (decoders[None, :, :] == inputs[:, :, None]).sum(axis=1)
    encoder = score.argmax(axis=1)  # ties resolved toward the smallest message
    total = int(score.max(axis=1).sum())
    if total != expected_count:
        raise AssertionError(f"greedy encoder scores {total}, search reported {expected_count}")
    return DeterministicStrategy(
        n=n,
        d=d,
        encoder=tuple(int(m) for m in encoder),
        decoders=tuple(tuple(int(v) for v in table) for table in decoders),
    )


def mixture_value(
    task: ClassicalTask, strategies: list[tuple[DeterministicStrategy, float]]
) -> float:
    """Average success of a shared-randomness mixture of deterministic strategies."""
    if not strategies:
        raise ValueError("mixture needs at least one strategy")
    weights = [w for _, w in strategies]
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError(f"weights must be finite and nonnegative, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    return sum(w * evaluate_strategy(task, s).average for s, w in strategies)


def strategy_to_text(strategy: DeterministicStrategy) -> str:
    """Serialize a strategy in the exchange table format.

    Line 1 is ``n d``; the next d^n lines list an input string followed by its
    message, in lexicographic input order; then n blocks of d lines map each
    message to the answer for questions y = 1..n.
    """
    lines = [f"{strategy.n} {strategy.d}"]
    for rank, x in enumerate(itertools.product(range(strategy.d), repeat=strategy.n)):
        lines.append(" ".join(str(v) for v in x) + f" {strategy.encoder[rank]}")
    for table in strategy.decoders:
        for message, answer in enumerate(table):
            lines.append(f"{message} {answer}")
    return "\n".join(lines) + "\n"


def strategy_from_text(text: str) -> DeterministicStrategy:
    """Parse the exchange table format produced by :func:`strategy_to_text`."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("strategy table must start with a header line 'n d'")
    try:
        n, d = (int(v) for v in rows[0])
    except ValueError as exc:
        raise ValueError(f"malformed header {' '.join(rows[0])!r}") from exc
    task = ClassicalTask(n=n, d=d)
    expected = 1 + task.input_count + n * d
    if len(rows) != expected:
        raise ValueError(f"strategy table for n={n}, d={d} needs {expected} lines, got {len(rows)}")

    encoder = [-1] * task.input_count
    for row in rows[1 : 1 + task.input_count]:
        if len(row) != n + 1:
            raise ValueError(f"encoder line must hold {n} dits and a message: {' '.join(row)!r}")
        values = [int(v) for v in row]
        rank = input_rank(tuple(values[:n]), d)
        if encoder[rank] != -1:
            raise ValueError(f"duplicate encoder line for input {tuple(values[:n])}")
        encoder[rank] = values[n]
    decoders = []
    cursor = 1 + task.input_count
    for _ in range(n):
        table = [-1] * d
        for row in rows[cursor : cursor + d]:
            if len(row) != 2:
                raise ValueError(f"decoder line must hold a message and an answer: {' '.join(row)!r}")
            message, answer = (int(v) for v in row)
            if not 0 <= message < d or table[message] != -1:
                raise ValueError(f"bad or duplicate decoder line for message {message}")
            table[message] = answer
        decoders.append(tuple(table))
        cursor += d
    return DeterministicStrategy(n=n, d=d, encoder=tuple(encoder), decoders=tuple(decoders))
