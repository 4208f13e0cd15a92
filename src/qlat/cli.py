"""Command-line interface: lattice I/O, enumeration, and verification.

Every command writes a single JSON document to standard output and
diagnostics to standard error.  The document's bytes are exactly what
``json.dumps`` with ``sort_keys=True, indent=2`` returns, plus a newline:
sorted keys, a two-space indent, non-ASCII characters escaped, no
timestamps.  ``_emit`` writes them in pieces of bounded size, without
building the whole string, and only after the document is fully
computed, so an error raised while computing it never leaves part of one
on stdout.  A matrix of plain-int rows, such as the generators
``quadric lines`` prints, takes a fast path: each row is encoded by one
precomputed ``%d`` format (see ``_pieces``).  Exit codes: 0 success, 1
verification failure or violated invariant, 2 invalid input or unmet
precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain

from . import kernels
from .errors import InvariantViolationError, PreconditionError, SizeGuardError
from .fp_quadratic import isotropic_generators
from .hecke_k3 import grow_unique, k3_isogeny, shrink_fiber
from .modp import MAX_PROJ_POINTS, is_prime
from .padic_lattice import enumerate_neighbors, reduction
from .quad_lattice import discriminant_group, is_self_dual_at, signature
from .serialize import (
    load_lattice_arg,
    load_matrix_arg,
    load_pair_arg,
    load_plattice_arg,
    plattice_to_dict,
    polarized_to_dict,
    quotient_to_dict,
)
from .verify import SUITES, processes, run_suite

# `lattice info` tests every integer up to --prime-bound for primality.
MAX_PRIME_BOUND = 10**6

# _emit writes once this many characters have gathered: one write per piece
# made `cli-mix` benchmark passes about 12% slower, and one write of the whole
# document would hold all of its text at once.
_WRITE_CHARS = 1 << 16

_encode_str = json.encoder.encode_basestring_ascii


def _pieces(o, nl: str):
    """The text of ``o`` as ``json.dumps`` with ``sort_keys=True, indent=2``
    writes it, in pieces; ``nl`` is the line break and indent of ``o``'s
    own line.

    Dict keys must be strings.  Keys and strings go through the C
    ``encode_basestring_ascii`` and every other scalar but a plain int
    through ``json.dumps``, so both come out as the encoder writes them.
    A list of plain ints is one piece; a matrix of plain-int rows (each
    row a non-empty tuple or list, all of one length; ``type(x) is int``
    for each entry, so no ``bool`` or int subclass) goes to ``_int_rows``,
    which yields it in slices of about ``_WRITE_CHARS`` characters."""
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            yield sep + _encode_str(key) + ": "
            yield from _pieces(o[key], inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(o, (list, tuple)):
        if not o:
            yield "[]"
            return
        inner = nl + "  "
        kinds = set(map(type, o))
        if kinds == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]"
            return
        if kinds <= {tuple, list}:
            widths = set(map(len, o))
            if len(widths) == 1 and 0 not in widths:
                if set(map(type, chain.from_iterable(o))) == {int}:
                    yield from _int_rows(o, nl, widths.pop())
                    return
        sep = "[" + inner
        for item in o:
            yield sep
            yield from _pieces(item, inner)
            sep = "," + inner
        yield nl + "]"
    elif type(o) is int:
        yield int.__repr__(o)
    elif isinstance(o, str):
        yield _encode_str(o)
    else:
        yield json.dumps(o)


def _int_rows(rows, nl: str, width: int):
    """The text of ``_pieces(rows, nl)`` for a matrix of plain-int rows of
    length ``width``, each row encoded by one ``%d`` format, in slices of
    about ``_WRITE_CHARS`` characters."""
    inner = nl + "  "
    row_inner = inner + "  "
    fmt = "[" + row_inner + ("," + row_inner).join(["%d"] * width) + inner + "]"
    sep = "," + inner
    start = "[" + inner
    step = max(1, _WRITE_CHARS // (len(fmt % tuple(rows[0])) + len(sep)))
    i = 0
    while i < len(rows):
        chunk = rows[i : i + step]
        text = start + sep.join([fmt % tuple(row) for row in chunk])
        yield text
        start = sep
        i += len(chunk)
        # the next slice's size follows this one's mean row length
        step = max(1, _WRITE_CHARS * len(chunk) // len(text))
    yield nl + "]"


def _emit(doc: dict) -> None:
    """Write ``doc`` to stdout as ``json.dumps`` with ``sort_keys=True,
    indent=2`` encodes it, plus a newline, byte for byte, in pieces of
    about ``_WRITE_CHARS`` characters."""
    write = sys.stdout.write
    buf: list[str] = []
    size = 0
    for piece in _pieces(doc, "\n"):
        buf.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            write("".join(buf))
            buf.clear()
            size = 0
    buf.append("\n")
    write("".join(buf))


def _cmd_lattice_info(args) -> int:
    if args.prime_bound > MAX_PRIME_BOUND:
        raise SizeGuardError(
            f"--prime-bound {args.prime_bound} exceeds the guard {MAX_PRIME_BOUND}"
            " (no flag raises it)"
        )
    L = load_lattice_arg(args.lattice)
    gram = L.gram()
    disc = discriminant_group(L)
    self_dual = [
        p for p in range(2, args.prime_bound + 1) if is_prime(p) and is_self_dual_at(L, p)
    ]
    _emit(
        {
            "rank": L.rank,
            "signature": list(signature(L)),
            "det": gram.det(),
            "discriminant_group": quotient_to_dict(disc),
            "self_dual_primes": self_dual,
            "prime_bound": args.prime_bound,
        }
    )
    return 0


def _cmd_quadric_lines(args) -> int:
    L = load_lattice_arg(args.lattice)
    V = reduction(L, args.p)
    lines = isotropic_generators(V, args.max_points)
    _emit({"p": args.p, "count": len(lines), "lines": lines})
    return 0


def _cmd_neighbors(args) -> int:
    N = load_lattice_arg(args.lattice)
    neighbors = enumerate_neighbors(N, args.p, args.max_points)
    _emit(
        {
            "p": args.p,
            "count": len(neighbors),
            "neighbors": [plattice_to_dict(Nt) for Nt in neighbors],
        }
    )
    return 0


def _cmd_shrink(args) -> int:
    N = load_lattice_arg(args.lattice)
    embedding = load_matrix_arg(args.embedding)
    pair = load_pair_arg(args.pair)
    if args.p is not None and args.p != pair.index:
        raise PreconditionError(
            f"--p {args.p} does not match the pair's index {pair.index}"
        )
    fiber = shrink_fiber(N, embedding, pair, args.max_points)
    _emit(
        {
            "p": pair.index,
            "count": len(fiber),
            "fiber": [plattice_to_dict(Nt) for Nt in fiber],
        }
    )
    return 0


def _cmd_grow(args) -> int:
    Nt = load_plattice_arg(args.lattice)
    embedding = load_matrix_arg(args.embedding)
    if args.p is not None and args.p != Nt.p:
        raise PreconditionError(f"--p {args.p} does not match the lattice prime {Nt.p}")
    grown = grow_unique(Nt, embedding, args.max_points)
    _emit({"p": Nt.p, "lattice": plattice_to_dict(grown)})
    return 0


def _cmd_k3_isogeny(args) -> int:
    pol = k3_isogeny(args.d, args.p)
    doc = polarized_to_dict(pol)
    doc["degree"] = pol.degree
    _emit(doc)
    return 0


def _cmd_verify(args) -> int:
    primes = (args.p,) if args.p is not None else None
    jobs = processes()
    print(
        f"running suite {args.suite} [backend: {kernels.backend_name()}, "
        f"{jobs} process{'es' if jobs > 1 else ''}]",
        file=sys.stderr,
    )
    start = time.perf_counter()
    report = run_suite(
        args.suite,
        primes=primes,
        max_rank=args.max_rank,
        seed=args.seed,
        max_points=args.max_points,
    )
    elapsed = time.perf_counter() - start
    print(
        f"suite {args.suite}: {report.instances} instances in {elapsed:.2f} s"
        f" ({report.instances / elapsed:.1f} instances/s,"
        f" {report.processes} process{'es' if report.processes > 1 else ''})",
        file=sys.stderr,
    )
    _emit(report.to_dict())
    return 0 if report.failures == 0 else 1


def _max_points(text: str) -> int:
    """A ``--max-points`` value: an integer of at least 1, else argparse exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_common(parser) -> None:
    parser.add_argument(
        "--max-points",
        type=_max_points,
        default=MAX_PROJ_POINTS,
        help=f"projective enumeration guard (default {MAX_PROJ_POINTS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlat",
        description="Exact quadratic-lattice machinery: neighbors, quadrics, "
        "K3 polarization changes, and verification suites.",
        epilog="Lattice arguments accept a JSON file path, inline JSON, or a "
        "name such as H, H⊥H, E8, K3, rank1(-2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="lattice inspection")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    info = lat_sub.add_parser("info", help="rank, signature, determinant, "
                              "discriminant group, self-dual primes")
    info.add_argument("lattice")
    info.add_argument("--prime-bound", type=int, default=50,
                      help="report self-dual primes up to this bound (default 50)")
    info.set_defaults(func=_cmd_lattice_info)

    quad = sub.add_parser("quadric", help="quadric over F_p")
    quad_sub = quad.add_subparsers(dest="subcommand", required=True)
    lines = quad_sub.add_parser("lines", help="isotropic lines of the reduction mod p")
    lines.add_argument("lattice")
    lines.add_argument("--p", type=int, required=True)
    _add_common(lines)
    lines.set_defaults(func=_cmd_quadric_lines)

    nb = sub.add_parser("neighbors", help="all p-neighbor self-dual lattices")
    nb.add_argument("lattice")
    nb.add_argument("--p", type=int, required=True)
    _add_common(nb)
    nb.set_defaults(func=_cmd_neighbors)

    sh = sub.add_parser(
        "shrink", help="fiber of neighbors realizing a minimal pair inside W"
    )
    sh.add_argument("lattice", help="ambient self-dual lattice N")
    sh.add_argument("embedding", help="matrix whose columns embed the pair into N")
    sh.add_argument("pair", help="minimal pair document")
    sh.add_argument("--p", type=int, default=None,
                    help="cross-check against the pair's index")
    _add_common(sh)
    sh.set_defaults(func=_cmd_shrink)

    gr = sub.add_parser("grow", help="unique neighbor lattice growing W-tilde back to W")
    gr.add_argument("lattice", help="p-power-denominator lattice document")
    gr.add_argument("embedding", help="matrix whose columns span W-tilde")
    gr.add_argument("--p", type=int, default=None,
                    help="cross-check against the lattice's prime")
    _add_common(gr)
    gr.set_defaults(func=_cmd_grow)

    k3 = sub.add_parser("k3-isogeny", help="polarization change of degree p²d on the K3 lattice")
    k3.add_argument("--d", type=int, required=True)
    k3.add_argument("--p", type=int, required=True)
    k3.set_defaults(func=_cmd_k3_isogeny)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--p", type=int, default=None,
                     help="restrict the suite to a single prime")
    ver.add_argument("--max-rank", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
