"""Endomorphisms of the free group, given by generator images."""

from __future__ import annotations

import re
from collections import Counter

from .words import MAX_LETTERS, Word, WordError, check_size, extend_reduced, parse_digits, parse_word, word_to_text


# The longest left side that an error message quotes.
MAX_QUOTED = 40
# The most generators `parse_endomorphism` accepts: the Jacobian has n^2
# entries, and every packed monomial has n fields, so each polynomial
# term costs O(n) to build, multiply and print.
MAX_GENERATORS = 128


class Endomorphism:
    """An endomorphism given by its generator images.  Immutable: nothing
    writes `images` after `__init__`, so `apply` keeps a table of the
    images and their inverses once it has built it, `is_ia` keeps its
    answer, `fox.jacobian` and `fox.j_minus_i` keep J and J - I, and
    `fixpoint.left_kernel` keeps the checked kernel basis of J - I and
    its membership values, the one place the basis is kept."""

    __slots__ = ("rank", "images", "_table", "_ia", "_jacobian", "_jmi", "_kernel")

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise ValueError("an endomorphism needs at least one image")
        rank = images[0].rank
        for y in images:
            if y.rank != rank:
                raise ValueError("image words of mixed ranks")
        if len(images) != rank:
            raise ValueError(f"{rank} generators but {len(images)} image words")
        self.rank = rank
        self.images = images
        self._table = self._ia = self._jacobian = self._jmi = self._kernel = None

    @classmethod
    def identity(cls, rank):
        return cls(tuple(Word.generator(i, rank) for i in range(rank)))

    def apply(self, w):
        """Image of a word: substitute generator images, freely reduce.

        The running image and each letter's image are freely reduced, so
        letters cancel only where they join.  The running image is
        measured after every letter, and WordError, naming the length
        reached, is raised once it passes MAX_LETTERS letters, so an
        image that stays within the limit is never rejected."""
        table = self._table
        if table is None:
            table = self._table = {}
            for i, y in enumerate(self.images, start=1):
                table[i] = y.letters
                table[-i] = y.inverse().letters
        out = []
        for L in w.letters:
            extend_reduced(out, table[L])
            if len(out) > MAX_LETTERS:
                check_size(len(out), "image")
        return Word._raw(self.rank, tuple(out))

    def compose(self, other):
        """(self o other)(x) = self(other(x))."""
        if self.rank != other.rank:
            raise ValueError("endomorphisms of different ranks")
        return Endomorphism(tuple(self.apply(y) for y in other.images))

    def is_ia(self):
        """True when every image abelianizes to its own generator.  Each
        image's letters are counted once, so the test takes time in the
        total image length, not in n per image."""
        if self._ia is None:
            self._ia = all(_abelianizes_to(y, i) for i, y in enumerate(self.images, start=1))
        return self._ia

    def __eq__(self, other):
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        body = "; ".join(f"x{i + 1} -> {word_to_text(y)}" for i, y in enumerate(self.images))
        return f"Endomorphism({body})"


def _abelianizes_to(y, i):
    """True when the exponent sums of the word y are those of x_i: with
    one x_i taken off, every generator occurs as often as its inverse."""
    counts = Counter(y.letters)
    counts[i] -= 1
    return all(c == counts[-L] for L, c in counts.items())


def inner_automorphism(g):
    """Conjugation x -> g^-1 x g."""
    n = g.rank
    ginv = g.inverse()
    return Endomorphism(tuple(ginv * Word.generator(i, n) * g for i in range(n)))


def parse_endomorphism(text):
    """Parse an endomorphism file: line i is `xI -> word`, rank = #lines.

    Blank lines and `#` comments are ignored.  Lines end at LF, CR LF or
    CR only, so the other breaks of `str.splitlines` (form feed, U+2028,
    ...) stay inside a comment.  Lines must appear in generator order x1,
    x2, ...  The lines are counted, and held to MAX_GENERATORS, before
    any right side is parsed.
    """
    entries = []
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise WordError(f"line {lineno}: expected 'xI -> word'")
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        if not re.fullmatch("x[0-9]+", lhs):
            # a long side is named by its length, as `parse_digits` names
            # a long number
            got = repr(lhs) if len(lhs) <= MAX_QUOTED else f"a side of {len(lhs)} characters"
            raise WordError(f"line {lineno}: left side must be a generator, got {got}")
        try:
            idx = parse_digits(lhs[1:], 0)
        except WordError as e:
            raise WordError(f"line {lineno}: left side: {e}") from None
        entries.append((lineno, idx, rhs.strip()))
    n = len(entries)
    if n == 0:
        raise WordError("no generator images found")
    if n > MAX_GENERATORS:
        raise WordError(f"need at most {MAX_GENERATORS} generators, got {n}")
    images = []
    for k, (lineno, idx, rhs) in enumerate(entries, start=1):
        if idx != k:
            raise WordError(f"line {lineno}: expected x{k} on the left, got x{idx}")
        try:
            images.append(parse_word(rhs, n))
        except WordError as e:
            raise WordError(f"line {lineno}: {e}") from None
    return Endomorphism(tuple(images))
