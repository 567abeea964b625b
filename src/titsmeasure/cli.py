"""Command line front end.

Subcommands: measure, compare, deduce, sigma, sigma-check, verify,
conic-family.  Documents come in as a file path or inline JSON; output is
deterministic (stable key order, fixed seeds) so reruns are byte-identical.

Exit codes: 0 success, 1 malformed input or domain error, 2 a check found a
counterexample, 3 a resource frontier was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .brauer import AbstractGroup, ResourceLimitError
from .rationals import distinct_conic_family
from .sigma import KINDS, RECURRENCE_FACTORS, recurrence_violations, sigma
from .varieties import compare, deduce, tits_measure
from .verify import (
    verify_normal_form_confluence,
    verify_quadric_product_matching,
    verify_relation_equivalence,
    verify_sum_cancellation,
    verify_tensor_cancellation,
)
from .version import VERSION

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_RESOURCE = 3


_REFUSED = object()


def _value(action: argparse.Action, token: str) -> object:
    """``token`` as ``action`` stores it, or _REFUSED when argparse must say
    what to do with it: an empty token, one that starts with "-", or one that
    the action's type or choices reject."""
    if not token or token[0] == "-":
        return _REFUSED
    value = token
    if action.type is not None:
        try:
            value = action.type(token)
        except (TypeError, ValueError):
            return _REFUSED
    if action.choices is not None and value not in action.choices:
        return _REFUSED
    return value


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads a plain command line itself.

    ``read_exact`` reads one off the declared actions: argparse's own list of
    the parser's actions (its parents' and then its own), without the help
    action argparse adds itself."""

    @functools.cached_property
    def _exact_table(self) -> tuple[tuple, dict, argparse.Action | None, tuple]:
        """(the declared actions, option string -> action, the one positional
        action or None, the required options); read once the parser is built."""
        declared = tuple(a for a in self._actions if not isinstance(a, argparse._HelpAction))
        options = {s: action for action in declared for s in action.option_strings}
        (positional,) = [action for action in declared if not action.option_strings] or [None]
        required = tuple(action for action in declared if action.required and action.option_strings)
        return declared, options, positional, required

    def read_exact(self, tokens) -> argparse.Namespace | None:
        """The namespace ``parse_known_args(tokens)`` returns with no extras,
        read straight off the declared actions, for a plain command line:

        - every option token is one of their option strings, whole;
        - a value-taking option is followed by its value, which passes
          ``_value``; a flag (``nargs=0``) takes none;
        - the positional tokens are non-empty, do not start with "-" and form
          one run, which the one positional takes: one token for
          ``nargs=None``, any number for ``"*"`` (whose default is None);
        - every required option is given.

        Any other token list gives None, so that argparse answers it with its
        own namespace, or its own message and exit code.  Defaults are taken
        as declared: no declared string default goes through a type."""
        declared, options, positional, required = self._exact_table
        args = argparse.Namespace(**self._defaults)
        for action in declared:
            setattr(args, action.dest, action.default)
        seen = set()
        words = None
        i, n = 0, len(tokens)
        while i < n:
            token = tokens[i]
            i += 1
            action = options.get(token)
            if action is None:  # a run of positional tokens, checked below
                if words is not None:
                    return None
                start = i - 1
                while i < n and tokens[i] not in options:
                    i += 1
                words = tokens[start:i]
                continue
            if action.nargs == 0:
                value = None
            elif action.nargs is None and i < n:
                value = _value(action, tokens[i])
                i += 1
                if value is _REFUSED:
                    return None
            else:
                return None
            action(self, args, value, token)
            seen.add(action)
        words = words or []
        if positional is None:
            if words:
                return None
        else:
            one = positional.nargs is None
            if positional.default is not None or not (one and len(words) == 1 or positional.nargs == "*"):
                return None
            values = [_value(positional, word) for word in words]
            if _REFUSED in values:
                return None
            setattr(args, positional.dest, values[0] if one else values)
        if any(action not in seen for action in required):
            return None
        return args

    # argparse exits with status 2 on bad usage, which collides with the
    # counterexample code; route usage errors to the malformed-input code,
    # as one line without the usage block.
    def error(self, message: str):
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def _parse_json(text: str) -> object:
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _load_document(text: str) -> object:
    """INPUT is inline JSON when it looks like JSON, else a file path."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _parse_json(stripped)
    with open(text, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


_escape = json.encoder.encode_basestring_ascii


def _json_parts(value: object, newline: str, out: list) -> None:
    """Append to ``out`` what ``json.dumps(value, indent=2, sort_keys=True)``
    prints for ``value`` after ``newline`` (a newline and its indent), without
    the stdlib's pure-Python indent encoder.  Keys are str; floats are finite."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(int.__repr__(value))  # past 4,300 digits, json's ValueError
    elif kind is dict or kind is list or kind is tuple:
        opening, closing = "{}" if kind is dict else "[]"
        if not value:
            out.append(opening + closing)
            return
        inner = newline + "  "
        sep, comma = opening + inner, "," + inner
        if kind is dict:
            for key in sorted(value):
                out.append(sep + _escape(key) + ": ")
                _json_parts(value[key], inner, out)
                sep = comma
        else:
            for item in value:
                out.append(sep)
                _json_parts(item, inner, out)
                sep = comma
        out.append(newline + closing)
    elif kind is float:
        out.append(float.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        out: list = []
        _json_parts(payload, "\n", out)
        print("".join(out))
        return
    for key in sorted(payload):
        value = payload[key]
        if not isinstance(value, str):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}: {value}")


def _parse_group_spec(spec: str) -> AbstractGroup:
    try:
        orders = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"bad group spec {spec!r}; expected e.g. 2,2 or 6")
    return AbstractGroup(orders)


def _cmd_measure(args) -> int:
    group, variety = jsonio.parse_measure_request(_load_document(args.input))
    report = tits_measure(variety)
    _emit(
        {
            "group": group.to_payload(),
            "variety": jsonio.descriptor_payload(variety),
            "measure": report.to_payload(),
        },
        args.format,
    )
    return EXIT_OK


def _cmd_pair(args) -> int:
    """compare or deduce: the two descriptors and the verdict or the report."""
    doc = _load_document(args.input)
    group, x, y = jsonio.parse_pair_request(doc)
    if args.command == "compare":
        key, record = "verdict", compare(x, y)
    else:
        i3_zero = jsonio.parse_flag(doc, "i3_zero", "request") or args.i3_zero
        key, record = "report", deduce(x, y, args.assume_equal, i3_zero=i3_zero)
    _emit(
        {
            "group": group.to_payload(),
            "x": jsonio.descriptor_payload(x),
            "y": jsonio.descriptor_payload(y),
            key: record.to_payload(),
        },
        args.format,
    )
    return EXIT_OK


def _resolve_sigma_args(args) -> tuple[str, int, int, int]:
    positional = args.args
    if positional:
        if len(positional) != 4:
            raise ValueError("positional form is: sigma KIND M N L")
        if any(v is not None for v in (args.kind, args.m, args.n, args.l)):
            raise ValueError("give either positional KIND M N L or flags, not both")
        kind = positional[0]
        try:
            m, n, l = (int(v) for v in positional[1:])
        except ValueError:
            raise ValueError("sigma M N L must be integers")
        return kind, m, n, l
    missing = [
        name
        for name, v in (("--kind", args.kind), ("--m", args.m), ("--n", args.n), ("--l", args.l))
        if v is None
    ]
    if missing:
        raise ValueError(f"sigma needs {' '.join(missing)} (or the positional form)")
    return args.kind, args.m, args.n, args.l


def _cmd_sigma(args) -> int:
    kind, m, n, l = _resolve_sigma_args(args)
    value = sigma(kind, m, n, l)
    if args.format == "json":
        _emit({"kind": kind, "m": m, "n": n, "l": l, "value": value}, "json")
    else:
        print(value)
    return EXIT_OK


def _cmd_sigma_check(args) -> int:
    kinds = tuple(args.kinds.split(",")) if args.kinds is not None else tuple(RECURRENCE_FACTORS)
    n_values = range(args.n_min, args.n_max + 1)
    m_values = range(args.m_min, args.m_max + 1)
    violations = recurrence_violations(n_values, m_values, kinds)
    payload = {
        "kinds": list(kinds),
        "n_range": [args.n_min, args.n_max],
        "m_range": [args.m_min, args.m_max],
        "violations": violations,
        "ok": not violations,
    }
    _emit(payload, args.format)
    return EXIT_OK if not violations else EXIT_COUNTEREXAMPLE


# suite -> {option: keyword}, with the options in the order they are read.
# Each default lives in the suite's ``verify_*`` signature: only the options
# the user set are passed, and a suite that reads ``group`` needs it.  The
# suite's function is looked up by name on each call, so a replaced
# ``verify_*`` attribute of this module is the one that runs.
SUITES = {
    "relation-equivalence": {"group": "group", "m-max": "m_max"},
    "sum-cancellation": {"group": "group", "card-max": "card_max", "trials": "trials", "seed": "seed"},
    "tensor-cancellation": {"group": "group", "n": "n_dim", "card-max": "card_max"},
    "quadric-product-matching": {"d-max": "d_max", "m": "m", "n": "n_dim"},
    "normal-form-confluence": {"group": "group", "trials": "trials", "seed": "seed"},
}
# Every option some suite reads, each a flag of ``verify``.  A flag the chosen
# suite does not read is refused.
_VERIFY_OPTIONS = tuple(dict.fromkeys(o for options in SUITES.values() for o in options))


def _cmd_verify(args) -> int:
    options = SUITES[args.suite]
    for option in _VERIFY_OPTIONS:
        if option not in options and getattr(args, option.replace("-", "_")) is not None:
            raise ValueError(f"suite {args.suite} does not take --{option}")
    if "group" in options and args.group is None:
        raise ValueError(f"suite {args.suite} needs --group")
    kwargs = {}
    for option, keyword in options.items():
        value = getattr(args, option.replace("-", "_"))
        if value is not None:
            kwargs[keyword] = _parse_group_spec(value) if option == "group" else value
    run = globals()["verify_" + args.suite.replace("-", "_")](**kwargs)
    _emit(run.to_payload(), args.format)
    return EXIT_OK if run.passed else EXIT_COUNTEREXAMPLE


def _cmd_conic_family(args) -> int:
    try:
        primes = [int(p) for p in args.primes.split(",")]
    except ValueError:
        raise ValueError(f"bad primes spec {args.primes!r}; expected e.g. 3,7,11")
    classes = distinct_conic_family(primes)
    payload = {
        "family": [
            {
                "prime": p,
                "class": c.to_payload(),
                "ramified_places": [str(v) for v in c.ramified_places()],
            }
            for p, c in zip(primes, classes)
        ],
        "pairwise_distinct": True,
    }
    _emit(payload, args.format)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The one parser, built on the first call and shared by every later
    ``main`` call in the process (parse_args keeps no state between calls).

    ``commands`` maps each subcommand name to its parser (the subparsers
    action's own table); ``main`` dispatches on it."""
    parser = _Parser(prog="titsmeasure", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("measure", parents=[fmt], help="measure a variety document")
    p.add_argument("input", help="file path or inline JSON")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("compare", parents=[fmt], help="compare two varieties")
    p.add_argument("input", help="file path or inline JSON")
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("deduce", parents=[fmt], help="geometric consequences of equal measures")
    p.add_argument("input", help="file path or inline JSON")
    p.add_argument(
        "--assume-equal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="treat measure equality as a hypothesis to exploit",
    )
    p.add_argument("--i3-zero", action="store_true", help="both sides have trivial I^3")
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("sigma", parents=[fmt], help="evaluate a copy-count sum")
    p.add_argument("args", nargs="*", metavar="KIND M N L")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("sigma-check", parents=[fmt], help="recheck the sum recurrences")
    p.add_argument("--kinds", help="comma list, default all six split kinds")
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, default=12)
    p.set_defaults(fn=_cmd_sigma_check)

    p = sub.add_parser("verify", parents=[fmt], help="run a brute-force checking suite")
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    for option in _VERIFY_OPTIONS:  # docs/cli.md says what each one means
        p.add_argument("--" + option, type=str if option == "group" else int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conic-family", parents=[fmt], help="pairwise distinct conic classes")
    p.add_argument("--primes", required=True, help="comma list of primes = 3 mod 4")
    p.set_defaults(fn=_cmd_conic_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A plain command line is read off its command's declared actions; the
    # top-level parser answers every other one, so argparse's messages and
    # exit codes stay its own.
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else command.read_exact(argv[1:])
    if args is None:
        args = parser.parse_args(argv)
    else:
        args.command = argv[0]
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
