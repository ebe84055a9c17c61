"""Command line driver.

Exit codes: 0 on success or a true property, 1 when a checked property is
false (counterexample on stdout), 2 on malformed input or violated
preconditions.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import io as rio
from .compactify import (
    check_compact_regular,
    compare,
    extension_map,
    from_compactification,
    compactify_extending,
)
from .errors import RoundIdealError, ValidationFailure
from .framemap import _continuity, _is_dense, _is_embedding
from .lattice import (
    Basis,
    _bits,
    _pcd_closure,
    _require,
    full_basis,
    is_regular,
    pcd_closure,
    pseudocomplement,
    well_inside,
)
from .relation import (
    Relation,
    check_strong_inclusion,
    interpolative_core_on_basis,
    is_strongly_regular_basis,
    least_strong_inclusion,
    ordered_sandwich,
)


def _load_lattice(path):
    return rio.parse_lattice(rio._read_document(path))


def _load_maps(paths, lat):
    maps = []
    for path in paths:
        f = rio.parse_map(rio._read_document(path), base_dir=Path(path).parent)
        if f.source != lat:
            raise RoundIdealError(
                f"map {path} has a source different from the main lattice"
            )
        # rebind onto the main lattice object so indices share one instance
        maps.append(
            type(f)(lat, f.target, f.basis, f.assignment)
        )
    for f in maps:
        _require(_continuity(f), RoundIdealError, "map is not continuous")
    return maps


def _basis_from(lat, labels):
    if labels is None:
        return full_basis(lat)
    return Basis(lat, frozenset(lat.element(x) for x in labels))


def _build_spec(spec, lat, base_dir):
    """The compactification a spec names: 'canonical' or 'canonical:<map>,<map>,...'."""
    head, _, rest = spec.partition(":")
    if head != "canonical":
        raise RoundIdealError(f"unknown compactification spec {spec!r}")
    paths = [base_dir / p for p in rest.split(",") if p] if rest else []
    maps = _load_maps(paths, lat)
    return compactify_extending(lat, full_basis(lat), maps)[0]


def _star_antitone(lat):
    """y* <= x* for every x <= y: the stars of the elements above x lie below x*.

    One mask test per comparable pair, read off the lattice's order rows.
    """
    up, down, pstar = lat._up, lat._down, lat.pstar
    for u, s in zip(up, pstar):
        below = down[s]
        for y in _bits(u):
            if not below >> pstar[y] & 1:
                return False
    return True


def _invariant_suite(lat):
    """Instance-level invariant checks; yields (name, ok, detail)."""
    n = lat.n
    wi = well_inside(lat)
    for x in range(n):
        if not lat.leq(x, lat.pstar[lat.pstar[x]]):
            yield "double-star dominates", False, lat.names[x]
            break
    else:
        yield "double-star dominates", True, ""
    yield "star antitone", _star_antitone(lat), ""
    inside_order = all(lat.leq(y, x) for y, x in wi)
    yield "well-inside within order", inside_order, ""
    # one element that is not a bound, closed and then closed again uncached
    seed = [x for x in range(n) if x not in (lat.bottom, lat.top)][:1]
    closure = pcd_closure(lat, seed)
    again = _pcd_closure(lat, closure.elements)
    yield "closure idempotent", again.elements == closure.elements, ""
    core = interpolative_core_on_basis(lat, full_basis(lat))
    yield "core sandwich-stable", ordered_sandwich(core) == core, ""
    reg = is_regular(lat, full_basis(lat))
    sreg = is_strongly_regular_basis(lat, full_basis(lat))
    yield "regular implies strongly regular", (not reg) or sreg, ""
    if sreg:
        comp, _ = compactify_extending(lat, full_basis(lat), [])
        report = check_compact_regular(comp.frame)
        yield "compactification frame compact regular", report.ok, "; ".join(
            report.problems
        )
        from_compactification(comp)  # raises unless the witness is an isomorphism
        yield "reconstruction isomorphism", True, ""


def cmd_validate(args):
    lat = _load_lattice(args.lattice)
    print(f"valid pcd-lattice '{lat.name}' with {lat.n} elements")
    if args.check_all:
        failed = False
        for name, ok, detail in _invariant_suite(lat):
            status = "ok" if ok else "FAIL"
            suffix = f": {detail}" if detail else ""
            print(f"{status} {name}{suffix}")
            failed = failed or not ok
        if failed:
            return 1
    return 0


def cmd_derive(args):
    lat = _load_lattice(args.lattice)
    if args.what == "pseudo":
        for y in range(lat.n):
            print(f"star {lat.names[y]} {lat.names[pseudocomplement(lat, y)]}")
        return 0
    if args.what == "wellinside":
        rel = well_inside(lat)
        print(rio.serialize_relation(rel, name="wellinside"), end="")
        return 0
    rel = interpolative_core_on_basis(lat, full_basis(lat))
    print(rio.serialize_relation(rel, name="core"), end="")
    return 0


def cmd_si(args):
    lat = _load_lattice(args.lattice)
    if args.seed_rel:
        seed = rio.parse_relation(rio._read_document(args.seed_rel), lat)
    else:
        seed = Relation(lat, ())
    basis = _basis_from(lat, args.basis)
    result = least_strong_inclusion(basis, seed)
    print(rio.serialize_relation(result, name="strong-inclusion"), end="")
    report = check_strong_inclusion(result, basis)
    print(f"# conditions passing: {sum(c.holds for c in report.conditions)}/7")
    return 0


def cmd_compactify(args):
    lat = _load_lattice(args.lattice)
    maps = _load_maps(args.maps or [], lat)
    basis = _basis_from(lat, args.basis)
    comp, exts = compactify_extending(lat, basis, maps)
    fr = comp.frame
    print(
        f"compactified '{lat.name}' ({lat.n} elements) over a carrier of "
        f"{len(fr.p.elements)} elements"
    )
    print(f"round ideals: {fr.lattice.n}")
    report = check_compact_regular(fr)
    print(f"compact regular: {'yes' if report.ok else 'NO: ' + '; '.join(report.problems)}")
    # compactify_extending checked the map: the kernels skip its re-check
    print(f"dense: {_is_dense(comp.map)}  embedding: {_is_embedding(comp.map)}")
    for i, g in enumerate(exts):
        print(
            f"extension {i}: factors its map through the compactification "
            f"onto {g.target.name}"
        )
    if args.dot:
        Path(args.dot).write_text(rio.export_dot(fr))
        print(f"wrote frame diagram to {args.dot}")
    return 0 if report.ok else 1


def cmd_extend(args):
    lat = _load_lattice(args.lattice)
    (f,) = _load_maps([args.map], lat)
    comp = _build_spec(args.through, lat, Path(args.lattice).parent)
    g = extension_map(comp.frame, f)
    print(f"# extension through {args.through}; assignment over the codomain basis")
    for a in sorted(g.basis.elements):
        print(f"to {g.target.names[a]} {g.source.names[g.assignment[a]]}")
    return 0


def _parse_compspec(spec):
    lat_path, _, rest = spec.partition(":")
    return lat_path, ("canonical:" + rest if rest else "canonical")


def cmd_compare(args):
    path1, spec1 = _parse_compspec(args.spec1)
    path2, spec2 = _parse_compspec(args.spec2)
    lat = _load_lattice(path1)
    # one parse when both specs name the same document
    lat2 = lat if path2 == path1 else _load_lattice(path2)
    if lat != lat2:
        raise RoundIdealError("compared compactifications must share one lattice")
    k1 = _build_spec(spec1, lat, Path(path1).parent)
    k2 = _build_spec(spec2, lat, Path(path2).parent)
    result = compare(k1, k2)
    print(f"verdict: {result.verdict}")
    return 0


def cmd_gen(args):
    lat = rio.generate(args.seed, args.size)
    print(rio.serialize_lattice(lat), end="")
    return 0


def cmd_dot(args):
    lat = _load_lattice(args.input)
    print(rio.export_dot(lat), end="")
    return 0


@functools.cache
def build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="roundideal",
        description="Finite pcd-lattices, strong inclusions and round-ideal "
        "compactifications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the pcd-lattice axioms")
    p.add_argument("lattice")
    p.add_argument("--check-all", action="store_true",
                   help="also run the instance invariant suite")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("derive", help="derived structure of a lattice")
    p.add_argument("lattice")
    p.add_argument("what", choices=["wellinside", "pseudo", "core"])
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("si", help="least strong inclusion from a seed")
    p.add_argument("lattice")
    p.add_argument("--seed-rel", help="relation document with the seed pairs")
    p.add_argument("--basis", nargs="*", help="carrier labels (default: all)")
    p.set_defaults(func=cmd_si)

    p = sub.add_parser("compactify", help="round-ideal compactification")
    p.add_argument("lattice")
    p.add_argument("--maps", nargs="*", help="map documents to extend")
    p.add_argument("--basis", nargs="*", help="strongly regular basis labels")
    p.add_argument("--dot", help="write the frame Hasse diagram to this file")
    p.set_defaults(func=cmd_compactify)

    p = sub.add_parser("extend", help="extend a map through a compactification")
    p.add_argument("lattice")
    p.add_argument("map")
    p.add_argument("--through", default="canonical",
                   help="compactification spec, e.g. canonical or canonical:f.map")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("compare", help="order two compactifications")
    p.add_argument("spec1", help="<lattice-file>[:<map>,<map>...]")
    p.add_argument("spec2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="seeded random downset lattice")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="Hasse diagram of a lattice document")
    p.add_argument("input")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        for line in exc.report:
            print(line)
        return 1
    except (RoundIdealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
