"""Command line front end: JSON in, JSON out.

Every verb prints one canonical JSON document (sorted keys, shortest
round-trip floats: 0.1 prints as 0.1, a float zero as 0.0), so identical
command/seed pairs are byte-identical.
Exit codes: 0 success, 1 domain error (payload {"error", "detail"}),
2 usage errors and malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import catalog, modular, numkit, roots, semigroup, verify
from .cones import Cone
from .errors import Grade3Error
from .liealg import GroupElement, LieAlgebraSpec, grade_by
from .numkit import Tolerance

__all__ = ["main"]

# Largest N accepted by `--random N`: bounds the N x N matrices it allocates.
_MAX_RANDOM_DIM = 1024
# Most basis matrices in a --file algebra: bounds its d^3 structure tensor.
_MAX_FILE_DIM = 300


# -- canonical JSON -----------------------------------------------------


def _plain(obj):
    """json.dumps hook: numpy scalars and arrays as plain Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# The one encoder.  It writes on one line, so json runs it in C.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False, default=_plain,
                           separators=(",", ":")).encode

_CONTAINERS = (dict, list, tuple, np.ndarray)


def _layout(obj, pad: str) -> str:
    """obj as json.dumps(..., indent=2) writes it at indentation pad.

    A dict or list with no container in it (for a list, judged by its first
    item) is written by one _encode call and split: when that text holds no
    bracket or brace and one comma fewer than there are items (for a dict,
    also one colon per item), no string holds a comma or colon, so each
    comma ends an item and each colon a key.  Anything else is laid out item
    by item, each scalar written by _encode."""
    if isinstance(obj, (str, int, float)) or obj is None:
        return _encode(obj)
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        return _layout(_plain(obj), pad)
    start, end = "{}" if is_dict else "[]"
    if not obj:
        return start + end
    inner = pad + "  "
    body = None
    if not any(isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj[:1])):
        text = _encode(obj)[1:-1]
        if ("[" not in text and "{" not in text and text.count(",") == len(obj) - 1
                and (not is_dict or text.count(":") == len(obj))):
            body = text.replace(",", ",\n" + inner)
            if is_dict:
                body = body.replace(":", ": ")
    if body is None and is_dict:
        # a key that is not a string takes JSON's own spelling from _encode
        body = (",\n" + inner).join(
            (_encode(k) if isinstance(k, str) else _encode({k: 0})[1:-3])
            + ": " + _layout(v, inner) for k, v in sorted(obj.items()))
    elif body is None:
        body = (",\n" + inner).join(_layout(v, inner) for v in obj)
    return start + "\n" + inner + body + "\n" + pad + end


def render_json(obj, compact: bool = False) -> str:
    """Canonical renderer: sorted keys and shortest round-trip floats, on one
    line when compact, else indented by two.  NaN and infinity raise
    ValueError."""
    return _encode(obj) if compact else _layout(obj, "")


# -- input plumbing -----------------------------------------------------


class UsageError(Exception):
    pass


def _parse(what: str, read, *args):
    """read(*args), with input that cannot be read reported as a usage error.

    KeyError, TypeError and ValueError (which covers json.JSONDecodeError and
    numpy's LinAlgError) all mean the value is malformed; the message is
    what, then the reason.  Only reading goes through here: checks of sizes
    against the algebra and every computation stay outside.
    """
    try:
        return read(*args)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _array(obj, what: str, *ndims: int) -> np.ndarray:
    """obj (JSON text, nested lists or a matrix object) as an array of
    finite numbers with one of the allowed numbers of axes."""
    if isinstance(obj, str):
        obj = _parse(f"malformed JSON for {what}", json.loads, obj)
    if isinstance(obj, dict):
        a = _parse(f"bad matrix object for {what}", numkit.matrix_from_json, obj)
    else:
        a = _parse(f"bad value for {what}", lambda: numkit.require_finite(
            np.asarray(obj, dtype=float), "value"))
    if a.ndim not in ndims:
        shapes = " or ".join(("vector", "matrix")[n - 1] for n in ndims)
        raise UsageError(f"{what} must be a {shapes}")
    return a


def _read_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return _parse(f"malformed JSON for {path}", json.loads, text)


def _document(args):
    """The JSON document behind --file, or None."""
    if args.file:
        doc = _read_file(args.file)
        if not isinstance(doc, dict):
            raise UsageError(f"{args.file} must hold a JSON object")
        return doc
    return None


def _algebra(doc, what: str) -> LieAlgebraSpec:
    """The document's 'algebra', refused unbuilt above _MAX_FILE_DIM basis matrices."""
    spec = _parse(what, doc.__getitem__, "algebra")
    basis = spec.get("basis") if isinstance(spec, dict) else None
    if isinstance(basis, list) and len(basis) > _MAX_FILE_DIM:
        raise UsageError(f"{what}: {len(basis)} basis matrices, more than {_MAX_FILE_DIM}")
    return _parse(what, LieAlgebraSpec.from_json, spec)


def _group_matrix(args, doc) -> np.ndarray:
    """The matrix behind --g, else the document's 'g'."""
    if args.g is not None:
        return _array(args.g, "--g", 2)
    if doc is not None and "g" in doc:
        return _array(doc["g"], "file entry 'g'", 2)
    raise UsageError("need a group element via --g or a 'g' file entry")


def _load_setting(args, need_cone=False, need_g=False):
    """(grading, cone or None, g or None) from --demo or the --file document;
    --g takes precedence over the document's 'g'.  With --demo the element
    is read before the catalog entry is built, so a missing or malformed one
    fails without the build; from --file it is read after the algebra and
    cone, whose errors come first."""
    doc = _document(args)
    m = _group_matrix(args, doc) if need_g and args.demo else None
    if args.demo:
        entry = catalog.get_entry(args.demo)
        algebra, grading, cone = entry.algebra, entry.grading, entry.cone
    elif doc is None:
        raise UsageError("need --demo NAME or --file FILE")
    else:
        algebra = _algebra(doc, "bad algebra document")
        h = _array(_parse("bad algebra document", doc.__getitem__, "h"), "file entry 'h'", 1)
        grading = grade_by(algebra, h)
        cone = None
        if "cone" in doc:
            cone = _parse("bad cone document", Cone.from_json, doc["cone"], algebra.dim)
    if need_cone and cone is None:
        raise UsageError("membership needs a cone (catalog demo or 'cone' entry)")
    if not need_g:
        return grading, cone, None
    if m is None:
        m = _group_matrix(args, doc)
    return grading, cone, _parse("bad group element", GroupElement, algebra, m)


def _random_dim(args) -> int:
    n = int(args.random)
    if not 1 <= n <= _MAX_RANDOM_DIM:
        raise UsageError(f"--random needs a dimension from 1 to {_MAX_RANDOM_DIM}")
    return n


# -- verb handlers ------------------------------------------------------


def _cmd_grade(args, tol, rng):
    grading, _, _ = _load_setting(args)
    return 0, {"dims": list(grading.dims)}


def _cmd_member(args, tol, rng):
    grading, cone, g = _load_setting(args, need_cone=True, need_g=True)
    return 0, {"member": semigroup.member_ShC(g, grading, cone, tol)}


def _cmd_factor(args, tol, rng):
    grading, _, g = _load_setting(args, need_g=True)
    return 0, semigroup.triangular_factor(g, grading, args.order, tol).to_json()


def _cmd_polar(args, tol, rng):
    grading, _, g = _load_setting(args, need_g=True)
    return 0, semigroup.polar_factor(g, grading, tol).to_json()


def _cmd_modular(args, tol, rng):
    doc = _document(args)
    if args.random is not None:
        v = modular.random_standard_subspace(_random_dim(args), rng)
    elif doc is not None:
        v = _parse("bad subspace document", modular.StandardSubspace.from_json, doc)
    else:
        raise UsageError("need --file SUBSPACE.json or --random N")
    pair = modular.modular_pair(v, tol)
    back = modular.standard_from_pair(pair, tol)
    return 0, {
        "subspace": v.to_json(),
        "pair": pair.to_json(),
        "roundtrip_gap": modular.subspace_gap_standard(v, back),
    }


def _cmd_monotone(args, tol, rng):
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    doc = _document(args)
    if args.random is not None:
        a, b = modular.random_ordered_pair(_random_dim(args), rng)
    elif doc is not None:
        a, b = (_array(_parse("bad pair document", doc.__getitem__, k),
                       f"file entry {k!r}", 2) for k in "ab")
        if a.shape[0] != a.shape[1] or a.shape != b.shape:
            raise UsageError("'a' and 'b' must be square matrices of one shape")
    else:
        raise UsageError("need --file PAIR.json or --random N")
    rep = modular.log_monotone_check(a, b, trials=args.samples, tol=tol,
                                     rng=np.random.default_rng([int(args.seed), 1]))
    return 0, rep


def _cmd_roots(args, tol, rng):
    doc = _document(args)
    if args.demo:
        algebra, cartan, _ = catalog.root_fixture(args.demo)
    elif doc is not None:
        algebra = _algebra(doc, "bad roots document")
        # a flat list is one Cartan row
        cartan = _array(_parse("bad roots document", doc.__getitem__, "cartan"),
                        "file entry 'cartan'", 1, 2)
        if np.iscomplexobj(cartan):  # a matrix object may carry "im"
            raise UsageError("file entry 'cartan' must be real")
        if not cartan.size or cartan.shape[-1] != algebra.dim:
            raise UsageError(f"file entry 'cartan' needs rows of length {algebra.dim}")
    else:
        raise UsageError("need --demo NAME or --file FILE")
    datum = roots.root_decomposition(algebra, cartan, tol)
    out = {"datum": datum.to_json()}
    if args.x0 is not None:
        x0 = _array(args.x0, "--x0", 1)
        out["c_max_generators"] = roots.c_max(datum, x0, tol).to_json()["generators"]
    return 0, out


def _cmd_demo(args, tol, rng):
    entry = catalog.get_entry(args.name)
    g = catalog.sample_semigroup_element(entry, rng)
    f = semigroup.triangular_factor(g, entry.grading, "+0-", tol)
    return 0, {
        "entry": entry.to_json(),
        "example": {
            "semigroup_element": numkit.matrix_to_json(g.matrix),
            "member": semigroup.member_ShC(g, entry.grading, entry.cone, tol),
            "factorization": f.to_json(),
        },
    }


def _cmd_verify(args, tol, rng):
    rep = verify.run_suite(args.suite, seed=int(args.seed),
                           samples=int(args.samples), tol=tol)
    return (0 if rep["pass"] else 1), rep


# -- argument parsing ---------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="grade3",
        description="3-graded Lie algebras: gradings, cones, compression "
                    "semigroups, modular theory.",
    )
    # One parent parser per shared flag; each verb takes only the flags it reads.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="compact single-line JSON instead of pretty-printed")
    tol_flag = argparse.ArgumentParser(add_help=False)
    tol_flag.add_argument("--tol", type=float, default=None,
                          help="tolerance (default: GRADE3_TOL env or 1e-9)")
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    samples_flag = argparse.ArgumentParser(add_help=False)
    samples_flag.add_argument("--samples", type=int, default=200,
                              help="sample count (default 200)")

    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, help_, *flags):
        p = sub.add_parser(name, parents=[json_flag, *flags], help=help_)
        p.set_defaults(run=handler)
        return p

    # Each verb reads its setting from exactly one source.
    p = add("grade", _cmd_grade, "eigenspace dimensions of a 3-grading")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--demo", choices=catalog.ENTRY_NAMES)
    src.add_argument("--file", help="JSON document with 'algebra' and 'h'")

    for name, handler, help_ in (
            ("member", _cmd_member, "compression-semigroup membership"),
            ("factor", _cmd_factor, "triangular factorization in the open cell"),
            ("polar", _cmd_polar, "polar factorization g0 exp(x)")):
        p = add(name, handler, help_, tol_flag)
        src = p.add_mutually_exclusive_group()
        src.add_argument("--demo", choices=catalog.ENTRY_NAMES)
        src.add_argument("--file", help="JSON document ('algebra', 'h', optional 'cone', 'g')")
        p.add_argument("--g", help="group element as a JSON matrix")
        if name == "factor":
            p.add_argument("--order", choices=("+0-", "-0+"), default="+0-",
                           help="factor order (write --order=-0+ for the "
                                "mirrored cell)")

    p = add("modular", _cmd_modular, "modular pair of a standard subspace",
            tol_flag, seed_flag)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--file", help="JSON document with a subspace 'basis'")
    src.add_argument("--random", type=int, metavar="N",
                     help="use a seeded random standard subspace of C^N")

    p = add("monotone", _cmd_monotone, "operator-monotonicity certificate for log",
            tol_flag, seed_flag, samples_flag)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--file", help="JSON document with matrices 'a' and 'b'")
    src.add_argument("--random", type=int, metavar="N",
                     help="use a seeded random pair A <= B of size N")

    p = add("roots", _cmd_roots, "root decomposition for a compactly embedded Cartan",
            tol_flag)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--demo", choices=catalog.ROOT_FIXTURE_NAMES)
    src.add_argument("--file", help="JSON document with 'algebra' and 'cartan'")
    p.add_argument("--x0", help="regular element (JSON list, Cartan coordinates) "
                               "to also report c_max generators")

    p = add("demo", _cmd_demo, "bundled example with a worked factorization",
            tol_flag, seed_flag)
    p.add_argument("name", choices=catalog.DEMO_NAMES)

    p = add("verify", _cmd_verify, "run an invariant suite",
            tol_flag, seed_flag, samples_flag)
    p.add_argument("suite", choices=verify.SUITE_NAMES)
    return parser


def _resolve_tol(args) -> Tolerance:
    value, env = args.tol, os.environ.get("GRADE3_TOL")
    if value is None and env is not None:
        value = _parse("bad GRADE3_TOL value", float, env)
    return Tolerance() if value is None else _parse("bad tolerance", Tolerance, value)


def _seeded_rng(args) -> np.random.Generator:
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    return np.random.default_rng([int(args.seed), 0])


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _resolve_tol(args) if "tol" in args else None
        rng = _seeded_rng(args) if "seed" in args else None
        with np.errstate(over="ignore", invalid="ignore"):  # the gates judge inf and NaN
            code, payload = args.run(args, tol, rng)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Grade3Error as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        print(render_json(payload, compact=args.json))
        return 1
    print(render_json(payload, compact=args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
