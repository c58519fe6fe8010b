"""Independent reference semantics for one instance, built from raw image tuples.

Nothing here imports partsem.  Members are found by filtering all n^n maps of
[0, n) by the definition (every block lands inside one block and the
induced character lies in the index set), and an integer product table is
built with NumPy.  Every relation and element set the benchmark checks is
derived from that table.

Composition is left to right, as in partsem: ``table[a, b]`` is the index of
the map x -> b(a(x)).
"""

from __future__ import annotations

import itertools
import re

import numpy as np


def parse_label(label: str) -> tuple[list[list[int]], str]:
    """Split an ``n4:[0,1][2]/full`` label into its blocks and index-set kind."""
    match = re.fullmatch(r"n(\d+):((?:\[[\d,]+\])+)/(\w+)", label)
    if match is None:
        raise ValueError(f"cannot parse instance label {label!r}")
    blocks = [
        [int(x) for x in part.split(",")]
        for part in re.findall(r"\[([\d,]+)\]", match.group(2))
    ]
    if sum(len(b) for b in blocks) != int(match.group(1)):
        raise ValueError(f"blocks of {label!r} do not cover [0, n)")
    return blocks, match.group(3)


def full_index_set(degree: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(degree), repeat=degree))


def _or_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product; float32 counts are exact far beyond these sizes."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


class Reference:
    """Product table and derived relations of one instance."""

    def __init__(self, blocks: list[list[int]], index_set: list[tuple[int, ...]]) -> None:
        n = sum(len(b) for b in blocks)
        block_of = [0] * n
        for i, b in enumerate(blocks):
            for x in b:
                block_of[x] = i
        allowed = {tuple(a) for a in index_set}
        members = []
        for f in itertools.product(range(n), repeat=n):
            targets = [{block_of[f[x]] for x in b} for b in blocks]
            if all(len(t) == 1 for t in targets):
                if tuple(t.pop() for t in targets) in allowed:
                    members.append(f)
        self.n = n
        self.members = members
        self.size = size = len(members)
        imgs = np.array(members, dtype=np.int64).reshape(size, n)
        self._weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._lookup = np.full(n**n, -1, dtype=np.int64)
        self._lookup[imgs @ self._weights] = np.arange(size)

        table = np.empty((size, size), dtype=np.int64)
        for a in range(size):
            table[a] = self._lookup[imgs[:, imgs[a]] @ self._weights]
        if (table < 0).any():
            raise ValueError("the member set is not closed under composition")
        self.table = table

        ids = np.arange(size)
        l_below = np.zeros((size, size), dtype=bool)  # f <=_L g: f = h*g
        r_below = np.zeros((size, size), dtype=bool)  # f <=_R g: f = g*h
        for g in range(size):
            l_below[table[:, g], g] = True
            r_below[table[g, :], g] = True
        l_below[ids, ids] = True
        r_below[ids, ids] = True
        self.l_below = l_below
        self.r_below = r_below
        # paths[f, g] counts the h with f <=_R h <=_L g; f <=_J g iff it is positive.
        paths = (r_below.astype(np.float32) @ l_below.astype(np.float32)).astype(np.int64)
        self.j_below = paths > 0
        self.rel = {
            "L": l_below & l_below.T,
            "R": r_below & r_below.T,
            "J": self.j_below & self.j_below.T,
        }
        self.rel["D"] = _or_product(self.rel["L"], self.rel["R"])
        self.below = {"L": l_below, "R": r_below, "J": self.j_below}
        # Where the path count is a multiple of 256, a uint8 matrix product of
        # these preorders wraps to 0 (ROADMAP item 1), so such an
        # implementation says "not below".
        self.j_wrap = self.j_below & (paths % 256 == 0)

        identity = self.index(tuple(range(n)))
        self.units = ((table == identity) & (table.T == identity)).any(axis=1)
        self.idempotent = table[ids, ids] == ids
        fgf = table[table, ids[:, None]]  # fgf[f, g] = index of f*g*f
        self.regular = (fgf == ids[:, None]).any(axis=1)
        self.unit_regular = (fgf[:, self.units] == ids[:, None]).any(axis=1)
        self._fgf = fgf

        labels_r = self.rel["R"].argmax(axis=1)  # least member of each class
        labels_l = self.rel["L"].argmax(axis=1)
        labels_d = self.rel["D"].argmax(axis=1)
        self.r_label = labels_r
        self.l_label = labels_l
        self.d_label = labels_d
        self.d_classes: dict[int, list[int]] = {}
        for k in range(size):
            self.d_classes.setdefault(int(labels_d[k]), []).append(k)

    def index(self, images) -> int:
        """Member index of an image tuple; -1 when it is not a member."""
        images = tuple(images)
        if len(images) != self.n or not all(0 <= y < self.n for y in images):
            return -1
        return int(self._lookup[int(np.dot(images, self._weights))])

    def product(self, *ks: int) -> int:
        out = ks[0]
        for k in ks[1:]:
            out = int(self.table[out, k])
        return out

    def is_inner_inverse(self, f: int, g: int) -> bool:
        return g >= 0 and int(self._fgf[f, g]) == f

    def is_regular_semigroup(self) -> bool:
        return bool(self.regular.all())

    def is_unit_regular_semigroup(self) -> bool:
        return bool(self.unit_regular.all())

    def is_inverse_semigroup(self) -> bool:
        es = np.flatnonzero(self.idempotent)
        sub = self.table[np.ix_(es, es)]
        return self.is_regular_semigroup() and bool((sub == sub.T).all())

    def eggbox_errors(self, boxes: list[dict]) -> list[str]:
        """Differences between an egg-box listing and the reference classes."""
        errors = []
        seen: set[int] = set()
        for box in boxes:
            ks = [k for row in box["grid"] for cell in row for k in cell]
            seen.update(ks)
            root = int(box["representative"])
            if sorted(ks) != self.d_classes.get(root, []):
                errors.append(f"D-class of #{root} differs")
                continue
            for row, r_label in zip(box["grid"], box["r_classes"]):
                for cell, l_label in zip(row, box["l_classes"]):
                    for k in cell:
                        if self.r_label[k] != r_label or self.l_label[k] != l_label:
                            errors.append(f"member #{k} sits in the wrong cell")
        if seen != set(range(self.size)):
            errors.append("the egg-box does not list every member exactly once")
        return errors
