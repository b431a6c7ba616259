"""Freely reduced words over generators x1..xn.

A word stores its letters as signed 1-based generator indices (+i for x_i,
-i for its inverse) and is always freely reduced.  The commutator
convention used everywhere in this package is [a, b] = a^-1 b^-1 a b.

Since both factors of a product are freely reduced, letters can cancel
only at the junction: a cancelling pair inside either factor would
already have been removed.  Once the last letter of the left part and
the first letter of the right part no longer cancel, the joined tuple is
freely reduced.  So a product costs the cancelled letters plus one copy,
not a letter-by-letter pass (`junction`).
"""

from __future__ import annotations

import re
from functools import lru_cache

# The longest word a power or the parser may build.  Checked before each
# word is built, so a hostile exponent or nesting fails at once; it also
# keeps the partial exponent sums of such words inside the packed
# monomial fields of `laurent`.
MAX_LETTERS = 1 << 20


class WordError(ValueError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


def free_reduce(letters):
    stack = []
    for L in letters:
        if stack and stack[-1] == -L:
            stack.pop()
        else:
            stack.append(L)
    return tuple(stack)


def junction(left, right):
    """The number of letters that cancel when the freely reduced sequences
    left and right are joined: the last k letters of left are the inverses
    of the first k letters of right, read outward from the junction."""
    k = 0
    m = min(len(left), len(right))
    while k < m and left[-1 - k] == -right[k]:
        k += 1
    return k


class Word:
    """A freely reduced word in the free group of the given rank."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        for L in letters:
            if L == 0 or abs(L) > rank:
                raise WordError(f"letter {L} out of range for rank {rank}")
        self.rank = rank
        self.letters = free_reduce(letters)

    @classmethod
    def _raw(cls, rank, reduced):
        self = object.__new__(cls)
        self.rank = rank
        self.letters = reduced
        return self

    @classmethod
    def identity(cls, rank):
        return cls._raw(rank, ())

    @classmethod
    def generator(cls, i, rank):
        """x_{i+1} (0-based index)."""
        if not 0 <= i < rank:
            raise WordError(f"generator index {i} out of range")
        return cls._raw(rank, (i + 1,))

    def _check(self, other):
        if self.rank != other.rank:
            raise WordError("words of different ranks")

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        self._check(other)
        left, right = self.letters, other.letters
        if left and right and left[-1] == -right[0]:
            k = junction(left, right)
            left, right = left[: len(left) - k], right[k:]
        return Word._raw(self.rank, left + right)

    def inverse(self):
        return Word._raw(self.rank, tuple(-L for L in reversed(self.letters)))

    def __pow__(self, k):
        """w^k in linear time: with w = u v u^-1 and v cyclically reduced,
        w^k = u v^k u^-1 is already freely reduced."""
        if not isinstance(k, int):
            return NotImplemented
        letters = self.letters
        t = 0
        while 2 * t + 1 < len(letters) and letters[t] == -letters[-1 - t]:
            t += 1
        core = letters[t : len(letters) - t]
        check_size(2 * t + abs(k) * len(core), "power")
        if k < 0:
            core = tuple(-L for L in reversed(core))
        if not k or not core:
            return Word.identity(self.rank)
        return Word._raw(self.rank, letters[:t] + core * abs(k) + letters[len(letters) - t :])

    def conjugated_by(self, g):
        """g * self * g^-1."""
        return g * self * g.inverse()

    def commutator(self, other):
        """[self, other] = self^-1 other^-1 self other."""
        return self.inverse() * other.inverse() * self * other

    def exponent_sums(self):
        letters = self.letters
        return tuple(letters.count(i) - letters.count(-i) for i in range(1, self.rank + 1))

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.rank == other.rank and self.letters == other.letters

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __str__(self):
        return word_to_text(self)

    def __repr__(self):
        return f"Word({self.rank}, {word_to_text(self)!r})"


def check_size(size, what, position=None):
    """Raise WordError before a `what` of `size` letters passes MAX_LETTERS."""
    if size > MAX_LETTERS:
        raise WordError(f"{what} of {size} letters exceeds the limit of {MAX_LETTERS}", position)


@lru_cache(maxsize=16)
def _letter_tokens(rank):
    """Tokens indexed by letter: "xK" at K and, by negative indexing,
    "xK^-1" at -K, for 1 <= K <= rank."""
    return (
        ("",)
        + tuple(f"x{k}" for k in range(1, rank + 1))
        + tuple(f"x{k}^-1" for k in range(rank, 0, -1))
    )


# A run of two or more equal tokens; the lookahead keeps x1 from
# matching the start of x11 or x1^-1.
_RUN_RE = re.compile(r"(x[0-9]+(?:\^-1)?)(?: \1(?![0-9^]))+")


def _collapse(m):
    # a run of k tokens, with the k - 1 spaces between them
    token = m[1]
    k = (m.end() - m.start() + 1) // (len(token) + 1)
    return f"{token[:-1]}{k}" if token.endswith("^-1") else f"{token}^{k}"


def word_to_text(w):
    """Canonical text: runs of one generator collapse to xK^E.

    The per-letter tokens are joined, then one regex substitution
    collapses each run of two or more equal tokens, so the Python
    callback runs once per run, not once per letter."""
    if not w.letters:
        return "1"
    return _RUN_RE.sub(_collapse, " ".join(map(_letter_tokens(w.rank).__getitem__, w.letters)))


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise WordError("generator name needs an index", i)
            tokens.append(("gen", int(text[i + 1 : j]), i))
            i = j
        elif ch == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            k = j
            while k < n and text[k].isdecimal():
                k += 1
            if k == j:
                raise WordError("exponent needs digits", i)
            tokens.append(("pow", int(text[i + 1 : k]), i))
            i = k
        elif ch in "[](),":
            tokens.append((ch, None, i))
            i += 1
        elif ch == "1":
            tokens.append(("one", None, i))
            i += 1
        else:
            raise WordError(f"unexpected character {ch!r}", i)
    return tokens


def parse_word(text, rank):
    """Parse the word grammar: factors xK, xK^E, [w1,...,wk], (w)^E.

    Multi-entry brackets are left-normed: [a,b,c] = [[a,b],c].  The parsed
    word is freely reduced.  A product, commutator or power that would
    build more than MAX_LETTERS letters raises WordError before it is
    built.

    Factors are letter sequences, freely reduced, and a sequence of
    factors is one list that cancels only where the next factor joins
    it; only brackets and powered parentheses go through `Word`.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def parse_sequence(stoppers):
        nonlocal pos
        out = []
        while pos < len(tokens) and tokens[pos][0] not in stoppers:
            at = tokens[pos][2]
            factor = parse_factor()
            check_size(len(out) + len(factor), "product", at)
            if out and factor and out[-1] == -factor[0]:
                k = junction(out, factor)
                del out[len(out) - k :]
                out.extend(factor[k:])
            else:
                out.extend(factor)
        return out

    def parse_factor():
        nonlocal pos
        kind, value, at = peek()
        if kind == "gen":
            if not 1 <= value <= rank:
                raise WordError(f"generator x{value} out of range for rank {rank}", at)
            pos += 1
            if peek()[0] == "pow":
                e = peek()[1]
                pos += 1
                check_size(abs(e), "power")
                return (value if e > 0 else -value,) * abs(e)
            return (value,)
        if kind == "one":
            pos += 1
            if peek()[0] == "pow":
                pos += 1
            return ()
        if kind == "[":
            pos += 1
            entries = [parse_sequence({",", "]"})]
            while peek()[0] == ",":
                pos += 1
                entries.append(parse_sequence({",", "]"}))
            if peek()[0] != "]":
                raise WordError("unclosed '['", at)
            pos += 1
            if len(entries) < 2:
                raise WordError("a commutator needs at least two entries", at)
            atom = Word._raw(rank, tuple(entries[0]))
            for e in entries[1:]:
                check_size(2 * (len(atom) + len(e)), "commutator", at)
                atom = atom.commutator(Word._raw(rank, tuple(e)))
        elif kind == "(":
            pos += 1
            letters = parse_sequence({")"})
            if peek()[0] != ")":
                raise WordError("unclosed '('", at)
            pos += 1
            if peek()[0] != "pow":
                return letters
            atom = Word._raw(rank, tuple(letters))
        else:
            raise WordError(f"unexpected token {kind!r}", at)
        if peek()[0] == "pow":
            atom = atom ** peek()[1]
            pos += 1
        return atom.letters

    out = parse_sequence(set())
    if pos != len(tokens):
        raise WordError("trailing input", tokens[pos][2])
    return Word._raw(rank, tuple(out))
