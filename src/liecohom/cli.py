"""Command-line interface.

Commands: validate, cohomology, quotient, catalog, selftest.  Reports go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 Jacobi violation,
2 not an ideal, 3 parse error or unknown key, 4 dimension cap exceeded,
5 selftest failure, 6 an internal consistency check failed (a bug: the
report would be wrong, so none is printed).  One parser serves every call,
and one writer, _json_text, prints every indented --json payload.  The
selftest and catalog modules run only when a command reads them, so
importing cli runs neither.
"""

import argparse
import importlib.util
import json
import math
import sys

from .ce_complex import DEFAULT_MAX_DIM, cohomology
from .errors import (
    DimensionCapExceeded,
    Error,
    InternalCheckFailed,
    JacobiViolation,
    NotAnIdeal,
    ParseError,
)
from .field_arith import _int_of_digits, format_scalar
from .lie_core import ideal_check, jacobi_check
from .mc_numeric import DEFAULT_STEP, DEFAULT_TOL
from .quotient_pipeline import DenseQuotientInput, dense_quotient_cohomology, document_from_json

EXIT_OK = 0
EXIT_JACOBI = 1
EXIT_NOT_IDEAL = 2
EXIT_PARSE = 3
EXIT_DIM_CAP = 4
EXIT_SELFTEST = 5
EXIT_INTERNAL = 6


def _lazy_import(name):
    """The package's submodule name, entered in sys.modules at once but run
    only on its first attribute access (importlib's LazyLoader)."""
    fullname = "%s.%s" % (__package__, name)
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


catalog = _lazy_import("catalog")
selftest = _lazy_import("selftest")

_quote = json.encoder.encode_basestring_ascii


def _json_text(value):
    """json.dumps(value, indent=2), byte for byte, for the dicts with str
    keys, lists, str, int, bool and None that the commands print.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer joins a flat list of ints in one step.  An int
    past the digit limit raises ValueError, as in json.dumps, and any other
    type TypeError.

    >>> _json_text({"betti": [1, 0], "note": None, "w": {}})
    '{\\n  "betti": [\\n    1,\\n    0\\n  ],\\n  "note": null,\\n  "w": {}\\n}'
    """
    parts = []
    _json_parts(value, "\n", parts.append)
    return "".join(parts)


def _json_parts(value, newline, put):
    """Put the text of value, each line after the first starting with
    newline (a line break and the enclosing indent); containers first, as
    a report is mostly dicts and lists."""
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        lead = "{" + inner
        for key, x in value.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            put(lead + _quote(key) + ": ")
            lead = sep
            _json_parts(x, inner, put)
        put(newline + "}")
    elif isinstance(value, list):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if type(value[0]) is int and all(type(x) is int for x in value):
            put("[" + inner + sep.join(map(int.__repr__, value)) + newline + "]")
        else:
            lead = "[" + inner
            for x in value:
                put(lead)
                lead = sep
                _json_parts(x, inner, put)
            put(newline + "]")
    elif isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def _fail(message, code):
    print("error: %s" % message, file=sys.stderr)
    return code


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that it repeats."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError("repeated key %r" % (key,))
            seen.add(key)
    return obj


def _load_document(path):
    """Read a JSON file holding either an algebra or a pipeline input.

    Every package error met while reading comes out as a ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        # malformed JSON, a repeated key, text that is not UTF-8, or an
        # integer longer than int() reads (sys.get_int_max_str_digits())
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise ParseError("JSON in %s is nested too deeply" % path) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    try:
        return document_from_json(doc)
    except Error as exc:
        raise ParseError(str(exc)) from exc


def _vector_text(v):
    return "(%s)" % ", ".join(format_scalar(x) for x in v)


def _print_violations(violations, as_json):
    if as_json:
        payload = {
            "status": "jacobi_violation",
            "violations": [
                {"i": i, "j": j, "k": k, "residual": [format_scalar(x) for x in res]}
                for i, j, k, res in violations
            ],
        }
        print(_json_text(payload))
    else:
        print("jacobi: FAIL (%d violations)" % len(violations))
        for i, j, k, res in violations:
            print("  triple (%d, %d, %d): residual %s" % (i, j, k, _vector_text(res)))


def _print_witness(witness, as_json):
    i, w, result = witness
    if as_json:
        payload = {
            "status": "not_an_ideal",
            "witness": {
                "i": i,
                "w": [format_scalar(x) for x in w],
                "bracket": [format_scalar(x) for x in result],
            },
        }
        print(_json_text(payload))
    else:
        print("ideal: FAIL")
        print("  [e_%d, %s] = %s leaves the subspace" % (i, _vector_text(w), _vector_text(result)))


def cmd_validate(args):
    parsed = _load_document(args.path)
    if isinstance(parsed, DenseQuotientInput):
        algebra, ideal = parsed.algebra, parsed.ideal
    else:
        algebra, ideal = parsed, None
    violations = jacobi_check(algebra)
    if violations:
        raise JacobiViolation(violations)
    if ideal is not None:
        witness = ideal_check(algebra, ideal)
        if witness is not None:
            raise NotAnIdeal(witness)
    if args.json:
        print(json.dumps({"status": "ok", "algebra": algebra.name,
                          "dimension": algebra.dim}))
    else:
        print("algebra: %s" % algebra.name)
        print("dimension: %d" % algebra.dim)
        print("jacobi: ok")
        if ideal is not None:
            print("ideal: ok (dimension %d)" % ideal.size)
    return EXIT_OK


def _report_lines(report, with_representatives):
    """The betti, ranks and (when asked) representatives lines of a report."""
    lines = [
        "betti: %s" % " ".join(str(b) for b in report.betti),
        "ranks: %s" % " ".join(str(r) for r in report.ranks),
    ]
    if with_representatives:
        lines.append("representatives:")
        for degree, forms in enumerate(report.representatives):
            for form in forms:
                lines.append("  degree %d: %s" % (degree, form))
    return lines


def cmd_cohomology(args):
    parsed = _load_document(args.path)
    if isinstance(parsed, DenseQuotientInput):
        raise ParseError("document carries an ideal; use the quotient command")
    report = cohomology(parsed, max_dim=args.max_dim)
    if args.json:
        print(_json_text(report.to_json()))
    else:
        lines = ["algebra: %s" % report.algebra, "dimension: %d" % report.dim]
        print("\n".join(lines + _report_lines(report, args.representatives)))
    return EXIT_OK


def cmd_quotient(args):
    parsed = _load_document(args.path)
    if not isinstance(parsed, DenseQuotientInput):
        raise ParseError("document has no ideal; use the cohomology command")
    report = dense_quotient_cohomology(
        parsed, check_chain_iso=not args.no_chain_iso, max_dim=args.max_dim
    )
    if args.json:
        print(_json_text(report.to_json()))
    else:
        lines = [
            "algebra: %s" % report.algebra,
            "quotient_dim: %d" % report.quotient_dim,
            "abelian_quotient: %s" % ("true" if report.abelian_quotient else "false"),
            "chain_iso: %s" % ("verified" if report.chain_iso_verified else "skipped"),
        ]
        lines += _report_lines(report.report, args.representatives)
        if report.note:
            lines.append("note: %s" % report.note)
        print("\n".join(lines))
    return EXIT_OK


def cmd_catalog(args):
    if args.action == "list":
        if args.key is not None or args.doc:
            raise ParseError("catalog list takes no key and no --doc")
        if args.json:
            print(_json_text({"keys": catalog.catalog_keys()}))
        else:
            for key in catalog.catalog_keys():
                print("%s: %s" % (key, catalog.describe(key)))
        return EXIT_OK
    if args.key is None:
        raise ParseError("catalog show needs a key")
    entry = catalog.catalog_entry(args.key)
    if args.doc:
        # just the input document, ready to feed back to the other commands
        print(_json_text(entry.document))
        return EXIT_OK
    if args.json:
        print(_json_text({
            "key": entry.key,
            "note": entry.note,
            "expected_betti": entry.expected_betti,
            "document": entry.document,
        }))
    else:
        print("key: %s" % entry.key)
        print("note: %s" % entry.note)
        print("expected betti: %s" % " ".join(str(b) for b in entry.expected_betti))
        print(_json_text(entry.document))
    return EXIT_OK


def cmd_selftest(args):
    ok = selftest.run_selftest(seed=args.seed, tol=args.tol, step=args.step)
    return EXIT_OK if ok else EXIT_SELFTEST


_INT_TEXT = (frozenset("0123456789"), "the ASCII digits 0-9")
_FLOAT_TEXT = (frozenset("0123456789.eE+-"), "the ASCII digits 0-9 and . e E + -")


def _read(convert, text, form):
    """convert(text), by int() or float(), or a usage error naming the
    expected form: argparse would name the type function instead.  An
    integer of ASCII digits is read at any length, past int()'s limit."""
    if convert is int and text.isascii() and text.isdigit():
        return _int_of_digits(text)
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not %s" % (text, form)) from None


def _ascii(text, spelling, value):
    """value, read from text by int() or float(), unless text has a
    character outside spelling's: both also read other scripts' digits,
    surrounding whitespace and underscores.  Called after every other
    check, so a text refused for another reason keeps that message."""
    chars, what = spelling
    if not set(text) <= chars:
        raise argparse.ArgumentTypeError("%r: write it with %s only" % (text, what))
    return value


def _seed_type(text):
    # 2^64 has 20 digits: refuse a longer one by its length, unconverted
    if text.isascii() and text.isdigit() and len(text.lstrip("0")) > 20:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    value = _read(int, text, "an integer")
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return _ascii(text, _INT_TEXT, value)


def _max_dim_type(text):
    value = _read(int, text, "an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("dimension cap must be nonnegative")
    return _ascii(text, _INT_TEXT, value)


def _positive_float_type(text):
    value = _read(float, text, "a number")
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return _ascii(text, _FLOAT_TEXT, value)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liecohom",
        description="Exact Lie algebra cohomology and dense-quotient reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("path")
    document.add_argument("--json", action="store_true", help="machine-readable output")
    report = argparse.ArgumentParser(add_help=False, parents=[document])
    report.add_argument("--representatives", action="store_true",
                        help="print representative cocycles")
    report.add_argument("--max-dim", type=_max_dim_type, default=DEFAULT_MAX_DIM,
                        help="dimension cap (default %(default)s)")

    p = sub.add_parser("validate", parents=[document],
                       help="parse a document and check Jacobi/ideal")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", parents=[report],
                       help="Betti numbers of an algebra document")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("quotient", parents=[report],
                       help="dense-subgroup quotient cohomology")
    p.add_argument("--no-chain-iso", action="store_true",
                   help="skip the chain-level isomorphism verification")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("catalog", help="list or show built-in examples")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("key", nargs="?",
                   help="catalog key for show (e.g. so3, abelian_5)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--doc", action="store_true",
                   help="print only the input document (pipe to a file and "
                        "feed it back to validate/cohomology/quotient)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.add_argument("--seed", type=_seed_type, default=0,
                   help="randomness seed (default %(default)s)")
    p.add_argument("--tol", type=_positive_float_type, default=DEFAULT_TOL,
                   help="numeric tolerance (default %(default)s)")
    p.add_argument("--step", type=_positive_float_type, default=DEFAULT_STEP,
                   help="finite-difference step (default %(default)s)")
    p.set_defaults(func=cmd_selftest)

    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # the one table from package errors to exit codes
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except JacobiViolation as exc:
        _print_violations(exc.violations, as_json)
        return EXIT_JACOBI
    except NotAnIdeal as exc:
        _print_witness(exc.witness, as_json)
        return EXIT_NOT_IDEAL
    except ParseError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except DimensionCapExceeded as exc:
        return _fail(str(exc), EXIT_DIM_CAP)
    except InternalCheckFailed as exc:
        return _fail("internal check failed: %s" % exc, EXIT_INTERNAL)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
