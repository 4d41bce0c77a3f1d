"""f-core computation.

An f-core of X is a minimal image of an idempotent endomorphism r with
f∘r = f. The brute method runs a decremental loop on one engine
(_retractions), whose side condition solver._idempotent keeps each value a
fixed point: the constraints are built and the f-fiber domains propagated
once, then each element m still in the current image, in ascending order,
gets one search with m's own value removed. A failed search settles m to m
for every later search; a map found narrows every domain to its image for
good, so each later map factors through it and has a smaller image. The
last map found (the identity if none) is the f-core's retraction. It is
certified: were there a non-identity f-retraction s of the final core, s
precomposed with the final map would satisfy every constraint in force when
s's least moved element was tried (the values lie in every image so far,
and the elements settled before it are fixed by s), so that exhaustive
search would not have failed. The variety-specific methods compute a (not
certified) retraction directly and are anchored to the brute oracle by the
test suite, never trusted on their own.

Each method is one row of _METHODS, which every entry point reads. Each
input is checked once, at its entry point, by one preamble (_check_inputs),
in this order: the method's precondition (boolean needs Z); validate_algebra
on X and Z; the variety's laws (varieties' validators minus
validate_algebra); f, a homomorphism X -> Z when Z is given, else only its
domain size. fixed_z_right_factor validates its instance and builds f and
Z restricted to im f from checked parts, so its f-core step runs only the
laws and the construction; its search keeps the whole of Y, since the
h-fibers over im f already confine g to h^-1(im f). A construction checks
only what the preamble leaves open: vspace that f (unchecked without Z) is
constant on the cosets of its kernel, boolean that Z has two elements and
f is onto.

Each result is verified once. Every f-core passes one check, _core: an
f-respecting retraction whose fixed points are the image. brute_fcore
checks only the last map of the loop, is_fcore only the first one, with
one is_retraction_respecting, and fixed_z_right_factor checks the witness
it reassembles with verify_witness.

brute_fcore, is_fcore, abelian_fcore and fixed_z_right_factor count the
nodes of every search one call makes in the SearchStats they are given;
passing its node_limit raises NodeLimitReached, never a smaller or a wrong
answer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    Mapping,
    SizeMismatch,
    induced_subalgebra,
    is_homomorphism,
    is_retraction_respecting,
)
from .solver import (
    FactorizationInstance,
    _expect,
    _fibers,
    _hom_engine,
    _idempotent,
    _malformed,
    _search_hom,
    _solve_right_factor,
    _words,
    verify_witness,
)
from .varieties import (
    _abelian_laws,
    _boolean_laws,
    _gset_laws,
    _inverse_image,
    _vspace_laws,
    boolean_atoms,
    gset_orbits,
)

__all__ = [
    "FCoreResult",
    "InapplicableReport",
    "brute_fcore",
    "is_fcore",
    "gset_fcore",
    "vspace_fcore",
    "boolean_fcore",
    "abelian_fcore",
    "fixed_z_right_factor",
    "FCORE_METHODS",
]


@dataclass(frozen=True)
class FCoreResult:
    retraction: Mapping
    image: tuple[int, ...]
    core_algebra: FiniteAlgebra
    certified_minimal: bool
    method: str


@dataclass(frozen=True)
class InapplicableReport:
    """The variety construction does not apply; carries the brute result."""

    method: str
    reason: str
    fallback: FCoreResult


@dataclass(frozen=True)
class _Method:
    build: Callable  # (x, f, z, stats) on checked inputs -> FCoreResult | InapplicableReport
    variety: str | None = None
    laws: Callable | None = None  # well-formed algebra -> problems, empty if in the variety
    target_laws: bool = False  # Z, when given, must be in the variety too
    needs_target: bool = False


def _core(x: FiniteAlgebra, f: Mapping, values, method: str,
          certified: bool = False) -> FCoreResult:
    """The result for the retraction with the given values, once
    is_retraction_respecting accepts it; the image is its fixed points."""
    retraction = Mapping(x.size, x.size, values)
    if not is_retraction_respecting(retraction, x, f):
        raise AssertionError(f"the {method} method built no f-respecting retraction")
    image = tuple(e for e in range(x.size) if retraction.values[e] == e)
    core, _ = induced_subalgebra(x, image)
    return FCoreResult(retraction, image, core, certified, method)


def _retractions(x, f, stats):
    """Yield non-identity f-respecting idempotent endomorphisms of x, each
    image a proper subset of the one before, by the decremental loop of the
    module docstring; not yet re-verified. The searches count their nodes
    in stats (None: uncounted)."""
    eng = _hom_engine(x, x, stats, _fibers(f.values, f.values), side=_idempotent(x.size))
    if eng is None or not eng.root():
        return
    image = np.ones(x.size, dtype=bool)
    for m in range(x.size):
        if not image[m]:
            continue
        sol = eng.first_without(m, m)
        if sol is None:
            only = np.zeros(-(-x.size // 64), dtype=np.uint64)  # the words of {m} (see _words)
            only[m >> 6] = 1 << (m & 63)
            if not eng.settle(m, only):
                return
            continue
        yield Mapping(x.size, x.size, sol)
        image = np.zeros(x.size, dtype=bool)
        image[list(sol)] = True
        words = _words(image)
        if not all(eng.settle(v, words) for v in range(x.size)):
            return


def _brute(x, f, z, stats) -> FCoreResult:
    last = Mapping.identity(x.size)
    for last in _retractions(x, f, stats):
        pass
    return _core(x, f, last.values, "brute", certified=True)


def _orbit_map(o1, o2, ops, fvals):
    """Equivariant map o1 -> o2 agreeing with f, or None. Propagates from the
    least element of o1; candidate targets tried in ascending order."""
    x0 = o1[0]
    for y0 in o2:
        theta = {x0: y0}
        stack = [x0]
        ok = True
        while stack and ok:
            u = stack.pop()
            for t in ops:
                u2, v2 = t[u], t[theta[u]]
                if u2 in theta:
                    if theta[u2] != v2:
                        ok = False
                        break
                else:
                    theta[u2] = v2
                    stack.append(u2)
        if ok and len(theta) == len(o1) and all(fvals[theta[u]] == fvals[u] for u in o1):
            return theta
    return None


def _gset(x, f, z, stats) -> FCoreResult:
    fvals = f.values
    ops = [x.table(name).tolist() for name, _ in x.signature.ops]
    orbits = gset_orbits(x)
    kept = list(range(len(orbits)))
    r = list(range(x.size))
    for i, orbit in enumerate(orbits):
        for j in kept:
            theta = None if j == i else _orbit_map(orbit, orbits[j], ops, fvals)
            if theta is not None:
                kept.remove(i)
                r = [theta.get(v, v) for v in r]
                break
    return _core(x, f, r, "gset")  # the fixed points are the kept orbits


def _vspace(x, f, z, stats) -> FCoreResult:
    zero = int(x.table("zero")[0])
    add = x.nd("add")
    fv = np.asarray(f.values)
    kernel = np.flatnonzero(fv == fv[zero])
    # f(v + k) = f(v) for every kernel element k, which also closes the
    # kernel under addition, so it is a subspace; a linear f always passes
    if not (fv[add[:, kernel]] == fv[:, None]).all():
        raise AlgebraError("f is not constant on the cosets of its kernel; f is not linear")
    kernel, add = kernel.tolist(), add.tolist()
    scalar_tables = [x.table(nm).tolist() for nm in x.signature.names if nm[0] == "s"]
    # extend the kernel to the whole space by each vector it misses, least
    # first; the vectors added span the complement
    span, complement = set(kernel), [zero]
    for v in range(x.size):
        if v not in span:
            line = [s[v] for s in scalar_tables]  # every multiple of v, 0·v first
            span = {add[u][w] for u in span for w in line}
            complement = [add[c][w] for c in complement for w in line]
    proj = [-1] * x.size
    for k in kernel:
        for w in complement:
            proj[add[k][w]] = w
    return _core(x, f, proj, "vspace")  # the fixed points are the complement


def _boolean(x, f, z, stats) -> FCoreResult:
    if z.size < 2:
        raise AlgebraError("target must have at least two elements")
    if len(f.image) != z.size:
        raise AlgebraError("f is not surjective")
    atoms_x = boolean_atoms(x)
    meet_z = z.nd("meet")
    # a surjective Boolean homomorphism sends exactly one atom of X onto
    # each atom of Z, and every other atom to the bottom
    reps = [next(a for a in atoms_x if meet_z[f.values[a], beta] == beta)
            for beta in boolean_atoms(z)]
    rep_set = set(reps)
    least = min(reps)
    pairs = [(a if a in rep_set else least, a) for a in atoms_x]
    return _core(x, f, _inverse_image(x, x, pairs), "boolean")


def _abelian(x, f, z, stats):
    zero = int(x.table("zero")[0])
    d = _fibers(f.values, f.values)
    kernel = d[zero].copy()
    d[kernel] = False
    d[kernel, zero] = True
    retraction = _search_hom(x, x, stats, d=d, side=_idempotent(x.size))
    if retraction is None:
        return InapplicableReport(
            "abelian", "kernel of f is not a direct summand", _brute(x, f, z, stats)
        )
    return _core(x, f, retraction.values, "abelian")


_METHODS = {
    "brute": _Method(_brute),
    "gset": _Method(_gset, "group action", _gset_laws, target_laws=True),
    "vspace": _Method(_vspace, "vector space", lambda alg: _vspace_laws(alg)[1]),
    "boolean": _Method(_boolean, "Boolean algebra", _boolean_laws, target_laws=True,
                       needs_target=True),
    "abelian": _Method(_abelian, "abelian group", _abelian_laws),
}

FCORE_METHODS = tuple(_METHODS)


def _method(name: str) -> _Method:
    if name not in _METHODS:
        raise AlgebraError(f"unknown f-core method {name!r}")
    return _METHODS[name]


def _check_laws(spec: _Method, x: FiniteAlgebra, z: FiniteAlgebra | None):
    for name, alg in (("algebra", x), ("target", z if spec.target_laws else None)):
        problems = [] if alg is None or spec.laws is None else spec.laws(alg)
        if problems:
            raise AlgebraError(f"{name} is not a valid {spec.variety}: " + "; ".join(problems))


def _check_inputs(method: str, x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra | None):
    """The one input check of an entry point (see the module docstring)."""
    spec = _method(method)
    if spec.needs_target and z is None:
        raise AlgebraError(f"the {method} method needs the target algebra Z")
    problems = _malformed([("algebra", x)] + ([] if z is None else [("target", z)]))
    if problems:
        raise AlgebraError("; ".join(problems))
    _check_laws(spec, x, z)
    if z is None:
        if f.dom_size != x.size:
            raise SizeMismatch(f"f has domain {f.dom_size}, algebra has size {x.size}")
    elif not is_homomorphism(f, x, z):  # raises SizeMismatch on a size mismatch
        raise AlgebraError("f is not a homomorphism")


def _run_method(method, x, f, z, stats):
    """One f-core method on unchecked inputs; brute and abelian count nodes in stats."""
    _check_inputs(method, x, f, z)
    return _METHODS[method].build(x, f, z, stats)


def brute_fcore(x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra | None = None, *,
                stats=None) -> FCoreResult:
    """Decremental minimization down to a certified f-core."""
    return _run_method("brute", x, f, z, stats)


def is_fcore(x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra | None = None, *,
             stats=None) -> bool:
    """True iff only the identity retraction respects f (exhaustive search)."""
    _check_inputs("brute", x, f, z)
    r = next(_retractions(x, f, stats), None)
    if r is not None and not is_retraction_respecting(r, x, f):
        raise AssertionError("retraction search returned a bad witness")
    return r is None


def gset_fcore(x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra | None = None) -> FCoreResult:
    """Orbit-level minimization for group actions.

    An idempotent equivariant map fixes whole orbits and sends every other
    orbit into a fixed one. One pass over the orbits, in order, merges each
    into the first kept orbit it maps into along an equivariant map that
    agrees with f. The kept orbits only shrink, so an orbit that maps into
    no kept orbit at its turn never will, and the result admits no further
    non-identity retraction.
    """
    return _run_method("gset", x, f, z, None)


def vspace_fcore(x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra | None = None) -> FCoreResult:
    """Projection onto a complement of the kernel of f.

    Extends a basis of ker f to a basis of X and projects along the kernel;
    the image has exactly one point per f-value. Without Z, an f that is
    not constant on the cosets of its kernel raises AlgebraError.
    """
    return _run_method("vspace", x, f, z, None)


def boolean_fcore(x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra) -> FCoreResult:
    """Retraction along an idempotent self-map of the atoms.

    Each atom of the target sits under the image of exactly one atom of X;
    those representatives stay fixed and every other atom is redirected to
    the least representative. The retraction is the inverse-image map of
    that atom function, so its image is a copy of the target.
    """
    return _run_method("boolean", x, f, z, None)


def abelian_fcore(x: FiniteAlgebra, f: Mapping, z: FiniteAlgebra | None = None, *,
                  stats=None):
    """Retraction onto a complement of the kernel of f, when one exists.

    Searches for an idempotent endomorphism killing exactly the kernel; a
    witness splits X as kernel ⊕ image with the image a copy of the target.
    When the kernel is not a direct summand the construction is
    inapplicable and the brute result is returned inside the report; the
    splitting search and the brute fallback share one node budget.
    """
    return _run_method("abelian", x, f, z, stats)


def fixed_z_right_factor(inst: FactorizationInstance, fcore_method: str = "brute", *,
                         stats=None):
    """Right-factor decision through the f-core of X.

    Pipeline: require im(f) ⊆ im(h); replace X by its f-core, computed
    with Z restricted to im(f); solve the instance on the core, whose
    h-fibers over im(f) already confine g to h^-1(im f); reassemble the
    witness as the core solution precomposed with the retraction. The f-core
    step and the core search share one node budget.
    """
    inst.validate()
    _expect(inst, "right-factor")
    f, h = inst.f, inst.h
    im_f = sorted(set(f.values))
    if not set(im_f) <= set(h.values):
        return None
    z_res, z_idx = induced_subalgebra(inst.Z, im_f)
    f_res = Mapping(inst.X.size, z_res.size, tuple(z_idx[v] for v in f.values))
    spec = _method(fcore_method)
    _check_laws(spec, inst.X, z_res)  # the rest of the preamble holds by construction
    res = spec.build(inst.X, f_res, z_res, stats)
    if isinstance(res, InapplicableReport):
        res = res.fallback
    image = list(res.image)
    pos = {e: i for i, e in enumerate(image)}
    f_core = Mapping(len(image), inst.Z.size, tuple(f.values[e] for e in image))
    sub = FactorizationInstance("right-factor", res.core_algebra, inst.Y, inst.Z, f=f_core, h=h)
    pair = _solve_right_factor(sub, stats)  # sub is valid by construction
    if pair is None:
        return None
    g_core = pair[0].values
    g = Mapping(inst.X.size, inst.Y.size, tuple(g_core[pos[r]] for r in res.retraction.values))
    if not verify_witness(inst, g):
        raise AssertionError("reassembled right factor fails verification")
    return g
