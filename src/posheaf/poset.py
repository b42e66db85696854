"""Finite posets with the Alexandrov topology, simplicial complexes as face
posets, monotone maps, locally closed subsets, mapping cylinders and order
complexes.

Elements are opaque strings.  Reachability is precomputed once as per-element
up-set bitsets (python ints), which makes `star`, `closure` and submatrix
extraction cheap; everything is immutable after construction.  The convexity
test and the mapping cylinder are bit arithmetic on the up-sets and covers
their posets already hold; an induced order (`restrict`) is closed from the
ambient covers or comparable pairs it inherits.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import InputError, SizeCapExceeded


class Poset:
    """A finite poset.

    Attributes
    ----------
    elements : list[str]
        element ids in input order (dense indices = list positions)
    covers : list[tuple[str, str]]
        pairs (a, b) with a covered by b
    linear_extension : list[str]
        deterministic topological order: sorted by (longest chain strictly
        below, input position)
    height : int
        longest chain length (number of strict steps)
    """

    def __init__(self, elements, leq_bits, covers):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InputError("duplicate element ids")
        self._up = leq_bits  # up[i] = bitset of {j : elements[i] <= elements[j]}
        self._down_lists: dict[str, list[int]] = {}  # see `down_indices`
        self.covers = covers
        self._down, self._height_below = self._down_sets_and_heights()
        order = sorted(range(len(self.elements)), key=self._height_below.__getitem__)  # stable
        self.linear_extension = [self.elements[i] for i in order]
        self.height = max(self._height_below, default=0)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_covers(cls, elements, covers) -> "Poset":
        """Build from cover pairs.  A pair that the others imply (a < c next
        to a < b < c) is dropped; the true covers keep their input order."""
        elements, up, kept = _closed_relation(elements, covers, "cover")
        return cls(elements, up, [(elements[i], elements[j]) for i, j in kept])

    @classmethod
    def from_leq_pairs(cls, elements, leq_pairs) -> "Poset":
        """Build from an arbitrary relation; reflexive-transitive closure is taken."""
        pairs = [(a, b) for a, b in leq_pairs if a != b]
        elements, up, kept = _closed_relation(elements, pairs, "relation")
        return cls(elements, up, [(elements[i], elements[j]) for i, j in sorted(kept)])

    def _down_sets_and_heights(self) -> tuple[list[int], list[int]]:
        """Down-set bitsets and longest chains strictly below, in one pass
        over the covers (which generate the order) in a topological order:
        a < b implies that a's up-set is the larger."""
        n, index = len(self.elements), self.index
        lower = [[] for _ in range(n)]
        for a, b in self.covers:
            lower[index[b]].append(index[a])
        down, below = [1 << i for i in range(n)], [0] * n
        for j in sorted(range(n), key=[-u.bit_count() for u in self._up].__getitem__):
            acc, height = down[j], 0
            for i in lower[j]:
                acc |= down[i]
                if below[i] >= height:
                    height = below[i] + 1
            down[j], below[j] = acc, height
        return down, below

    # -- queries ------------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and other.elements == self.elements
            and other._up == self._up
        )

    def __hash__(self):
        return hash((tuple(self.elements), tuple(self._up)))

    def leq(self, a: str, b: str) -> bool:
        return (self._up[self.index[a]] >> self.index[b]) & 1 == 1

    def up_bits(self, e: str) -> int:
        return self._up[self.index[e]]

    def down_bits(self, e: str) -> int:
        return self._down[self.index[e]]

    def down_indices(self, e: str) -> list[int]:
        """The indices of the elements below e, e included, ascending; built
        on first use and kept.  The lists hold the int objects of `index`."""
        down = self._down_lists.get(e)
        if down is None:
            index, elements = self.index, self.elements
            down = self._down_lists[e] = [index[elements[k]] for k in _bit_indices(self.down_bits(e))]
        return down

    def bits_of(self, members) -> int:
        """The members as a bitset; InputError naming an unknown element."""
        index, bits = self.index, 0
        for e in members:
            i = index.get(e)
            if i is None:
                raise InputError(f"unknown element {e!r}")
            bits |= 1 << i
        return bits

    def elements_of(self, bits: int) -> list[str]:
        return [self.elements[i] for i in _bit_indices(bits)]

    def star(self, e: str) -> set[str]:
        """St e = {t : e <= t}; open in the Alexandrov topology."""
        return self.star_of_set([e])

    def closure(self, members) -> set[str]:
        """Downward closure of a set of elements."""
        return set(self.elements_of(_union(self._down, self.bits_of(members))))

    def star_of_set(self, members) -> set[str]:
        return set(self.elements_of(_union(self._up, self.bits_of(members))))

    def is_locally_closed(self, members) -> bool:
        """True iff the set Z is order-convex (equivalently, open in its
        closure)."""
        return self._convex(self.bits_of(members))

    def _convex(self, bits: int) -> bool:
        """(OR of up(z)) & (OR of down(z)) & ~Z == 0 over z in Z: x lies in
        both unions iff a <= x <= b for some members a and b, and convexity
        asks exactly that every such x is a member."""
        return _union(self._up, bits) & _union(self._down, bits) & ~bits == 0

    def maximal_elements(self) -> list[str]:
        return [e for e in self.elements if self._up[self.index[e]] == 1 << self.index[e]]

    def is_open(self, members) -> bool:
        bits = self.bits_of(members)
        return _union(self._up, bits) & ~bits == 0

    def opposite(self) -> "Poset":
        n = len(self.elements)
        up = [self._down[i] for i in range(n)]
        covers = [(b, a) for a, b in self.covers]
        return Poset(list(self.elements), up, covers)

    def restrict(self, members) -> "Poset":
        """The order the members inherit, on the members in ambient element
        order, its covers listed by ambient index pair.  On an order-convex
        member set Z these covers are the ambient covers with both ends in Z:
        an element strictly between two members is a member, so a cover of Z
        is an ambient cover, and conversely, and a < b in Z is joined by a
        chain of ambient covers inside Z, so these covers generate Z's order.
        Any other member set hands every comparable pair to the closure."""
        mask, index, elements = self.bits_of(members), self.index, self.elements
        inside = self.elements_of(mask)
        if self._convex(mask):
            names = set(inside)
            pairs = sorted((index[a], index[b]) for a, b in self.covers
                           if a in names and b in names)
        else:
            pairs = [(i, j) for i in _bit_indices(mask)
                     for j in _bit_indices(self._up[i] & mask & ~(1 << i))]
        sub, up, kept = _closed_relation(
            inside, [(elements[i], elements[j]) for i, j in pairs], "relation")
        return Poset(sub, up, [(sub[i], sub[j]) for i, j in kept])

    def validate(self) -> list[str]:
        """Check the poset invariants; returns a list of violations (empty if ok)."""
        issues = []
        n = len(self.elements)
        for i in range(n):
            if not (self._up[i] >> i) & 1:
                issues.append(f"leq not reflexive at {self.elements[i]}")
        for i in range(n):
            for j in _bit_indices(self._up[i]):
                if self._up[j] & ~self._up[i]:
                    issues.append(
                        f"leq not transitive at {self.elements[i]} <= {self.elements[j]}"
                    )
        closure = Poset.from_leq_pairs(self.elements, self.covers)
        if closure._up != self._up:
            issues.append("covers do not generate leq")
        pos = {e: k for k, e in enumerate(self.linear_extension)}
        for a, b in self.covers:
            if pos[a] >= pos[b]:
                issues.append(f"linear extension violates {a} < {b}")
        return issues


def _closed_relation(elements, pairs, what: str):
    """The elements, the up-sets of the order `pairs` generate, and the index
    pairs among `pairs` that are covers of it, once each in input order.
    (a, b) is one unless b lies strictly above another successor of a.
    Duplicate elements are left to `Poset.__init__` to refuse."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    succ, edges = [[] for _ in elements], []
    for a, b in pairs:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise InputError(f"{what} ({a}, {b}) uses unknown element")
        if i == j:
            raise InputError(f"{what} ({a}, {b}) is reflexive")
        succ[i].append(j)
        edges.append((i, j))
    up = _up_sets(elements, succ)
    strict = [u ^ (1 << i) for i, u in enumerate(up)]
    beyond = [0] * len(elements)
    for i, targets in enumerate(succ):
        for j in targets:
            beyond[i] |= strict[j]
    return elements, up, [(i, j) for i, j in dict.fromkeys(edges) if not beyond[i] >> j & 1]


def _up_sets(elements, succ) -> list[int]:
    """Up-set bitsets of the reflexive-transitive closure of the relation
    i -> succ[i], by one Kahn pass: up[i] is the OR of its successors'
    up-sets, taken in reverse topological order.  A cycle is an InputError
    naming two of its elements."""
    n = len(elements)
    indegree = [0] * n
    for i in range(n):
        for j in succ[i]:
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        a, b = _cycle_pair(succ, indegree)
        raise InputError(f"relation is not antisymmetric: {elements[a]} and {elements[b]}")
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        acc = up[i]
        for j in succ[i]:
            acc |= up[j]
        up[i] = acc
    return up


def _cycle_pair(succ, indegree) -> tuple[int, int]:
    """Two distinct elements on one cycle of the cover graph, given the
    in-degrees Kahn's pass left behind (nonzero exactly off its order).
    Every element left over has a left-over predecessor, so walking
    predecessors must come back to an element already on the path."""
    left = [i for i, d in enumerate(indegree) if d]
    pred = {j: i for i in left for j in succ[i]}
    path = [left[0]]
    while pred[path[-1]] not in path:
        path.append(pred[path[-1]])
    cycle = path[path.index(pred[path[-1]]):]
    a = min(cycle)
    return a, min(k for k in cycle if k != a)


def _union(sets: list[int], bits: int) -> int:
    """The OR of sets[i] over the indices i in `bits`."""
    acc = 0
    for i in _bit_indices(bits):
        acc |= sets[i]
    return acc


def _bit_indices(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# -- simplicial complexes ---------------------------------------------------


def _vertex_key(v: str):
    return (len(v), v)


def _face_key(face):
    """Faces by size, then by their sorted vertex keys, so that face order
    follows vertex order (``2`` before ``10``)."""
    return (len(face), sorted(_vertex_key(str(v)) for v in face))


def vertex_separator(vertices) -> str:
    """The empty separator when every vertex token is one character, else ","."""
    return "" if all(len(str(v)) == 1 for v in vertices) else ","


def face_name(vertices, separator: str | None = None) -> str:
    """Sorted vertex tokens joined by `separator`, by default the
    `vertex_separator` of these tokens.  A complex passes its own separator,
    chosen once from all of its vertices, so that names never collide."""
    toks = sorted((str(v) for v in vertices), key=_vertex_key)
    if separator is None:
        separator = vertex_separator(toks)
    return separator.join(toks)


def generated_faces(facets, max_faces: float = math.inf) -> set[frozenset]:
    """Every nonempty vertex set inside a facet, once; SizeCapExceeded as
    soon as there are more than `max_faces`."""
    faces = set()
    for facet in facets:
        facet = sorted({str(v) for v in facet}, key=_vertex_key)
        if not facet:
            raise InputError("empty facet")
        for k in range(1, len(facet) + 1):
            for sub in combinations(facet, k):
                faces.add(frozenset(sub))
                if len(faces) > max_faces:
                    raise SizeCapExceeded(f"input has more than {max_faces} faces")
    return faces


class SimplicialComplex:
    """An abstract simplicial complex together with its face poset.

    Faces are nonempty vertex sets; the face poset is ordered by inclusion and
    its elements are named by the sorted vertex tokens (e.g. ``013``), joined
    by commas (``1,12``) if any vertex token is longer than one character.
    """

    def __init__(self, faces: list[frozenset]):
        self.faces = sorted(set(faces), key=_face_key)
        for f in self.faces:
            if not f:
                raise InputError("empty face")
        self.vertices = sorted({str(v) for f in self.faces for v in f}, key=_vertex_key)
        self.separator = vertex_separator(self.vertices)
        self.name_of = {f: self.name(f) for f in self.faces}
        self.face_of = {name: f for f, name in self.name_of.items()}
        if len(self.face_of) != len(self.faces):
            raise InputError("face names collide; use distinct vertex ids")
        face_set = set(self.faces)
        covers = []
        for f in self.faces:
            if len(f) == 1:
                continue
            for v in sorted((str(x) for x in f), key=_vertex_key):
                sub = frozenset(x for x in f if str(x) != v)
                if sub not in face_set:
                    raise InputError(f"face {self.name(f)} is missing its subset {self.name(sub)}")
                covers.append((self.name_of[sub], self.name_of[f]))
        self.face_poset = Poset.from_covers([self.name_of[f] for f in self.faces], covers)

    @classmethod
    def from_facets(cls, facets, max_faces: float = math.inf) -> "SimplicialComplex":
        """The complex the facets generate; SizeCapExceeded as soon as it is
        known to have more than `max_faces` distinct faces."""
        return cls(generated_faces(facets, max_faces))

    def name(self, vertices) -> str:
        """Name of a vertex set under this complex's naming rule."""
        return face_name(vertices, self.separator)

    def dim(self, name: str) -> int:
        return len(self.face_of[name]) - 1

    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.faces), default=-1)

    def simplices_of_dim(self, d: int) -> list[str]:
        return [self.name_of[f] for f in self.faces if len(f) == d + 1]


def skeleton_of_simplex(n: int, d: int) -> SimplicialComplex:
    """The d-skeleton of the n-simplex on vertices 0..n."""
    verts = [str(i) for i in range(n + 1)]
    return SimplicialComplex.from_facets(combinations(verts, min(d, n) + 1))


def star_subposet(complex_: SimplicialComplex, face: str) -> Poset:
    """The star of a face as a poset, relabeled by dropping the face's vertices.

    The face itself becomes "∅".  Matches the usual link-with-cone
    description of a star.
    """
    base = complex_.face_of[face]
    return link_cone([f - base for f in complex_.faces if f > base], complex_.separator)


def link_cone(link_faces, separator: str) -> Poset:
    """The poset of "∅" below the nonempty vertex sets `link_faces` (closed
    under nonempty subsets), ordered by inclusion and named with `separator`:
    the star of a face whose link is `link_faces`, relabeled as in
    `star_subposet`.  Faces are in `_face_key` order, the order the star's
    faces have in the complex: dropping a common face shifts every size
    alike, and two vertex sets of one size compare as the one holding the
    least vertex of their symmetric difference, which it leaves alone.
    Covers are listed by index pair."""
    faces = [frozenset()] + sorted(link_faces, key=_face_key)
    index = {f: i for i, f in enumerate(faces)}
    names = ["∅"] + [face_name(f, separator) for f in faces[1:]]
    if len(set(names)) < len(names):
        raise InputError("face names collide; use distinct vertex ids")
    pairs = sorted((index[f - {v}], i) for i, f in enumerate(faces) for v in f)
    return Poset.from_covers(names, [(names[i], names[j]) for i, j in pairs])


def image_poset(source: Poset, assignment: dict, elements=None) -> Poset:
    """The order on `elements` (default: the images, in order of first
    appearance) generated by the images of `source`'s covers under
    `assignment`, the least one that makes the assignment monotone."""
    try:
        images = [assignment[e] for e in source.elements]
    except KeyError as missing:
        raise InputError(f"assignment missing element {missing}") from None
    pairs = [(assignment[a], assignment[b]) for a, b in source.covers
             if assignment[a] != assignment[b]]
    return Poset.from_leq_pairs(dict.fromkeys(images) if elements is None else elements, pairs)


# -- monotone maps and cylinders --------------------------------------------


class MonotoneMap:
    """An order preserving map between posets, stored as an element dict."""

    def __init__(self, source: Poset, target: Poset, assignment: dict):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        image = {}  # source element -> target index
        for e in source.elements:
            if e not in self.assignment:
                raise InputError(f"assignment missing element {e!r}")
            if self.assignment[e] not in target.index:
                raise InputError(f"assignment hits unknown target {self.assignment[e]!r}")
            image[e] = target.index[self.assignment[e]]
        if len(self.assignment) > len(image):
            extra = next(k for k in self.assignment if k not in image)
            raise InputError(f"assignment given for unknown element {extra!r}")
        up = target._up
        for a, b in source.covers:
            if not up[image[a]] >> image[b] & 1:
                raise InputError(
                    f"map is not order preserving on {a} < {b}: "
                    f"{self.assignment[a]} !<= {self.assignment[b]}"
                )

    def __call__(self, e: str) -> str:
        return self.assignment[e]

    @classmethod
    def identity(cls, poset: Poset) -> "MonotoneMap":
        return cls(poset, poset, {e: e for e in poset.elements})

    @classmethod
    def constant(cls, source: Poset, target: Poset, value: str) -> "MonotoneMap":
        return cls(source, target, {e: value for e in source.elements})

    @classmethod
    def inclusion(cls, source: Poset, target: Poset) -> "MonotoneMap":
        return cls(source, target, {e: e for e in source.elements})

    @classmethod
    def simplicial(
        cls, source: SimplicialComplex, target: SimplicialComplex, vertex_map: dict
    ) -> "MonotoneMap":
        """Extend a vertex map to the face posets; vertices not listed map to
        themselves."""
        vm = {str(k): str(v) for k, v in vertex_map.items()}
        assignment = {}
        for f in source.faces:
            image = frozenset(vm.get(str(v), str(v)) for v in f)
            name = target.name(image)
            if name not in target.face_poset.index:
                raise InputError(f"image face {name} not in target complex")
            assignment[source.name_of[f]] = name
        return cls(source.face_poset, target.face_poset, assignment)


class LocallyClosedSet:
    """An order-convex subset of an ambient poset."""

    def __init__(self, ambient: Poset, members):
        self.ambient = ambient
        self.members = frozenset(members)
        if not ambient.is_locally_closed(self.members):
            raise InputError("set is not locally closed (order convexity fails)")

    def restricted_poset(self) -> Poset:
        """The order Z inherits from the ambient poset."""
        return self.ambient.restrict(self.members)

    def closure(self) -> set[str]:
        return self.ambient.closure(self.members)

    def boundary(self) -> set[str]:
        return self.closure() - self.members


def mapping_cylinder(f: MonotoneMap) -> tuple[Poset, MonotoneMap, MonotoneMap]:
    """The mapping cylinder of f with the two inclusions (source, target).

    The order on S' + T (source copies first) is the one generated by the
    covers of S and T and s' < f(s).  Its up-sets are, with T shifted by |S|,
        up(s') = up_S(s) | up_T(f(s)) << |S|,    up(t) = up_T(t) << |S|:
    nothing in T lies below S', and t >= s' iff t >= f(u) for some u >= s,
    i.e. (f monotone) t >= f(s).  The covers of S and of T stay covers, as
    whatever lies between two members of one side is on that side.  t covers
    s' only if t = f(s) (else f(s) lies between), and f(s) covers s' iff no
    cover s < u has f(u) = f(s).  Such a u' lies between them; conversely,
    whatever lies between is some u' with s < u and f(s) <= f(u) <= f(s),
    and the first cover s < v on a chain up to u has f(s) <= f(v) <= f(u).
    Covers are listed by index pair.

    Elements keep their names; on a name collision between source and target
    the source copy is renamed.
    """
    src, tgt = f.source, f.target
    taken = set(tgt.elements)
    src_name = {}
    for e in src.elements:
        name = e
        while name in taken:
            name = name + "'"
        src_name[e] = name
        taken.add(name)
    n = len(src.elements)
    image = [tgt.index[f(e)] for e in src.elements]
    up = [u | tgt._up[image[i]] << n for i, u in enumerate(src._up)]
    up += [u << n for u in tgt._up]
    covered_by_image = set(range(n))
    pairs = []
    for a, b in src.covers:
        i, j = src.index[a], src.index[b]
        pairs.append((i, j))
        if image[i] == image[j]:
            covered_by_image.discard(i)
    pairs += [(i, n + image[i]) for i in covered_by_image]
    pairs += [(n + tgt.index[a], n + tgt.index[b]) for a, b in tgt.covers]
    elements = [src_name[e] for e in src.elements] + list(tgt.elements)
    cyl = Poset(elements, up, [(elements[i], elements[j]) for i, j in sorted(pairs)])
    inc_src = MonotoneMap(src, cyl, src_name)
    inc_tgt = MonotoneMap(tgt, cyl, {e: e for e in tgt.elements})
    return cyl, inc_src, inc_tgt


# -- order complex ----------------------------------------------------------


def _chains(poset: Poset) -> list[list[tuple[str, ...]]]:
    """The strictly increasing chains as element tuples, grouped by length:
    group k holds the chains on k + 1 elements, in lexicographic order of
    their element indices.  Each chain of a group is extended, in index
    order, by every element strictly above its last one (one list per element)."""
    index = poset.index
    above = {e: poset.elements_of(poset.up_bits(e) & ~(1 << index[e])) for e in poset.elements}
    groups = [[(e,) for e in poset.elements]]
    while groups[-1]:
        groups.append([chain + (e,) for chain in groups[-1] for e in above[chain[-1]]])
    return groups[:-1]


def order_complex(poset: Poset) -> tuple[SimplicialComplex, MonotoneMap]:
    """The complex of strictly increasing chains, with the terminal-element map.

    Chain vertices are named by the poset's elements; a chain is the face on
    its member set, so faces of the order complex are exactly the chains.
    """
    last = {frozenset(chain): chain[-1] for group in _chains(poset) for chain in group}
    complex_ = SimplicialComplex(list(last))
    terminal = {complex_.name_of[face]: last[face] for face in complex_.faces}
    return complex_, MonotoneMap(complex_.face_poset, poset, terminal)
