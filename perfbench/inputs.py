"""Seeded inputs for the three workloads, built without importing metafix.

Words are tuples of signed 1-based generator indices (+i is x_i, -i its
inverse), always freely reduced.  Every item records what the program is
given (argv, plus `.endo` files written by the runner) and what the
reference checker needs to know about it (the letters of every word).
The same seed always gives byte-identical inputs; `digest` hashes them.
"""

from __future__ import annotations

import hashlib
import itertools
import random

BRAID_STRANDS = 3
BRAID_MAX_LEN = 3
COSET_ITEMS = 39
COSET_BOUND = 1
VERIFY_ITEMS = 32
VERIFY_ENDOS = 16
MAX_POWER = 100

# (rank, kind) of the random coset-box inputs, in turn.  The eight n = 3
# rank-deficient inputs hold the slowest tenth of the 39 items, and the
# median lies inside the 16 n = 3 plain ones rather than on the steep edge
# between two classes, where it would jump from one seed to the next.
# There is no n = 4 input: its analysis takes 150 ms or more, too long for
# enough runs of it to fit in one benchmark run; with four of them, the
# tail moved with the machine's speed by a fifth from run to run.
COSET_SLOTS = (
    (2, "plain"), (2, "deficient"), (3, "plain"), (3, "plain"), (3, "deficient"),
    (2, "plain"), (3, "plain"), (3, "plain"), (3, "deficient"),
)

WORKLOADS = ("braid-sweep", "coset-box", "verify-long")

FIXTURES = {
    "displaced_pair": "x1 -> x1 [x1,x2]\nx2 -> x2 [x1,x2]^-1\n",
    "infinite_fix": "x1 -> x1 [x2,x3,x1]\nx2 -> x2\nx3 -> x3\n",
    # Its found cosets need a witness realized from coordinates.
    "shared_commutator": "x1 -> x1 [x1^-1,x2^-1]\nx2 -> x2 [x1^-1,x2^-1]\n",
}


def reduce(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def inverse(w):
    return tuple(-a for a in reversed(w))


def commutator(u, v):
    """[u, v] = u^-1 v^-1 u v, the convention of the program under test."""
    return reduce(inverse(u) + inverse(v) + u + v)


def power(w, k):
    base = w if k >= 0 else inverse(w)
    return reduce(base * abs(k))


def word_text(w):
    """Letter-by-letter text in the program's word grammar."""
    if not w:
        return "1"
    return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in w)


def endo_text(images):
    return "".join(f"x{i + 1} -> {word_text(y)}\n" for i, y in enumerate(images))


def random_word(rng, n, length):
    """A freely reduced word of exactly `length` letters."""
    out = []
    while len(out) < length:
        a = rng.choice((1, -1)) * rng.randrange(1, n + 1)
        if not out or out[-1] != -a:
            out.append(a)
    return tuple(out)


def random_ia(rng, n, pairs, factors, conj_len, keep):
    """x_i -> x_i s_i with s_i a product of `factors` basic commutators on
    `pairs`, each conjugated by a word of `conj_len` letters; generators
    listed in `keep` map to themselves."""
    images = []
    for i in range(1, n + 1):
        s = ()
        if i not in keep:
            for _ in range(factors):
                a, b = rng.choice(pairs)
                c = commutator((a,), (b,))
                if rng.random() < 0.5:
                    c = inverse(c)
                g = random_word(rng, n, conj_len)
                s = reduce(s + g + c + inverse(g))
        images.append(reduce((i,) + s))
    return tuple(images)


def relabel(rng, n):
    """A random signed permutation of x_1..x_n, as a list: x_i goes to
    x_|s| if s = sigma[i] > 0 and to its inverse if s < 0 (sigma[0] unused)."""
    return [0] + [rng.choice((1, -1)) * p for p in rng.sample(range(1, n + 1), n)]


def rename(w, sigma):
    """The image of the word w under the generator map `sigma`."""
    return tuple(sigma[abs(a)] if a > 0 else -sigma[abs(a)] for a in w)


def conjugate(images, sigma):
    """Images of sigma phi sigma^-1, where phi has the given images.  The
    two endomorphisms have the same fixed points up to sigma, and nearly
    the same cost to analyse."""
    out = [None] * len(images)
    for i, y in enumerate(images, 1):
        image = rename(y, sigma)
        out[abs(sigma[i]) - 1] = image if sigma[i] > 0 else inverse(image)
    return tuple(out)


def _all_pairs(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def braid_items(shape, rng):
    """Every pure braid word of length <= 3 on three strands (259 words,
    including the empty one), in seeded order."""
    gens = [(i, j) for i in range(1, BRAID_STRANDS + 1) for j in range(i + 1, BRAID_STRANDS + 1)]
    letters = [(i, j, s) for (i, j) in gens for s in (1, -1)]
    words = []
    for length in range(BRAID_MAX_LEN + 1):
        words.extend(itertools.product(letters, repeat=length))
    rng.shuffle(words)
    items = []
    for w in words:
        text = " ".join(f"A[{i},{j}]" if s == 1 else f"A[{i},{j}]^-1" for (i, j, s) in w) or "1"
        items.append({
            "argv": ["braid", str(BRAID_STRANDS), text, "--json"],
            "files": {},
            "braid": list(w),
        })
    return items


def _parse_fixture(text):
    """Letters of the two fixtures, expanded by hand (see FIXTURES)."""
    c12 = commutator((1,), (2,))
    if text == FIXTURES["displaced_pair"]:
        return (reduce((1,) + c12), reduce((2,) + inverse(c12)))
    if text == FIXTURES["shared_commutator"]:
        c = commutator((-1,), (-2,))
        return (reduce((1,) + c), reduce((2,) + c))
    c231 = commutator(commutator((2,), (3,)), (1,))
    return (reduce((1,) + c231), (2,), (3,))


def coset_items(shape, rng):
    """The three fixtures plus random IA endomorphisms on n = 2 and 3
    generators, plain inputs and rank-deficient ones whose displacements
    use at most max(1, n - 2) basic commutators, in the COSET_SLOTS mix.

    The fixed `shape` stream draws each endomorphism whole.  The seed
    shuffles the items and renames and inverts the generators of each
    random input (see `conjugate`)."""
    specs = [(name, text, _parse_fixture(text)) for name, text in FIXTURES.items()]
    for k in range(COSET_ITEMS - len(specs)):
        n, kind = COSET_SLOTS[k % len(COSET_SLOTS)]
        pairs = _all_pairs(n)
        if kind == "deficient":
            shape.shuffle(pairs)
            pairs = pairs[: max(1, n - 2)]
            keep = set(shape.sample(range(1, n + 1), (k // len(COSET_SLOTS)) % 2))
            images = random_ia(shape, n, pairs, 2, 1, keep)
        else:
            images = random_ia(shape, n, pairs, 1, 2, set())
        images = conjugate(images, relabel(rng, n))
        specs.append((f"{kind}{k:03d}_n{n}", endo_text(images), images))
    items = []
    for name, text, images in specs:
        fname = f"{name}.endo"
        items.append({
            "argv": ["analyze", fname, "--bound", str(COSET_BOUND), "--json"],
            "files": {fname: text},
            "images": [list(y) for y in images],
        })
    rng.shuffle(items)
    return items


def _factor(shape, gens, sigma):
    """One factor (u)^k or ([a,b] u)^k over the generator list `gens`, with
    its generators renamed by `sigma`.

    `shape` draws the letters of u without inverse pairs, the commutator
    and k.  Orders that would cancel across the commutator or around the
    power are redrawn, so the expanded length is |k| times the base length."""
    size = shape.randrange(2, 5)
    letters = []
    while len(letters) < size:
        a = shape.choice((1, -1)) * shape.choice(gens)
        if -a not in letters:
            letters.append(a)
    pair = shape.sample(gens, 2) if len(gens) > 1 and shape.random() < 0.5 else None
    k = shape.choice((1, -1)) * shape.randrange(MAX_POWER // 2, MAX_POWER + 1)
    prefix = commutator((pair[0],), (pair[1],)) if pair else ()
    for _ in range(20):
        shape.shuffle(letters)
        base = prefix + tuple(letters)
        if reduce(base) == base and base[0] != -base[-1]:
            break
    u = word_text(rename(letters, sigma))
    if pair:
        a, b = (word_text(rename((g,), sigma)) for g in pair)
        text = f"([{a},{b}] {u})^{k}"
    else:
        text = f"({u})^{k}"
    return text, rename(power(reduce(base), k), sigma)


def verify_items(shape, rng):
    """Long words given as a few powered factors.  Every fourth word uses
    only generators its endomorphism fixes, so it is fixed by construction.
    As on coset-box, the seed only renames and inverts the generators of
    each endomorphism and its words."""
    endos = []
    for e in range(VERIFY_ENDOS):
        n = 3 + e % 2
        keep = sorted(shape.sample(range(1, n + 1), 2))
        images = random_ia(shape, n, _all_pairs(n), 2, 2, set(keep))
        sigma = relabel(rng, n)
        endos.append((f"verify{e}.endo", n, conjugate(images, sigma), keep, sigma))
    items = []
    for k in range(VERIFY_ITEMS):
        fname, n, images, keep, sigma = endos[k % len(endos)]
        by_construction = k % 4 == 0
        gens = keep if by_construction else list(range(1, n + 1))
        texts, letters = [], ()
        for _ in range(2 + k % 3):
            text, w = _factor(shape, gens, sigma)
            texts.append(text)
            letters = reduce(letters + w)
        items.append({
            "argv": ["verify", fname, " ".join(texts), "--json"],
            "files": {fname: endo_text(images)},
            "images": [list(y) for y in images],
            "word": list(letters),
            "fixed_by_construction": by_construction,
        })
    return items


GENERATORS = {
    "braid-sweep": braid_items,
    "coset-box": coset_items,
    "verify-long": verify_items,
}


def generate(workload, seed):
    """(items, digest) for a workload and seed.

    The inputs themselves are drawn from a fixed stream that does not
    depend on the seed.  The seed draws the order of the braid words and of
    the coset-box inputs, and a renaming and inversion of the generators of
    every random endomorphism and its words, so that inputs of different seeds
    differ but cost about the same to analyse, and run-to-run spread
    measures the program, not the draw.
    """
    shape = random.Random(f"{workload}:shape")
    rng = random.Random(f"{workload}:{seed}")
    items = GENERATORS[workload](shape, rng)
    h = hashlib.sha256()
    for item in items:
        h.update(repr((item["argv"], sorted(item["files"].items()))).encode())
    return items, h.hexdigest()[:16]


# A fixed, cheap item run once, untimed, before the timed loop.
WARMUP = {
    "braid-sweep": {"argv": ["braid", "3", "A[1,2] A[2,3]^-1", "--json"], "files": {}},
    "coset-box": {
        "argv": ["analyze", "warmup.endo", "--bound", "1", "--json"],
        "files": {"warmup.endo": FIXTURES["displaced_pair"]},
    },
    "verify-long": {
        "argv": ["verify", "warmup.endo", "(x2 x1^-1)^20", "--json"],
        "files": {"warmup.endo": FIXTURES["infinite_fix"]},
    },
}
