"""Command-line front end.

Verbs: compute (any character as canonical text/JSON), verify (identity
suites), gt (chain listings), fock (pairings and matrix elements), newton
(series recurrence check).  Exit codes: 0 success, 1 a check failed, 2 usage.

A JSON config file (--config) may supply defaults for any flag; explicit
command-line flags win.  All JSON output carries {"schema": 1} and renders
coefficients as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import skew, universal
from .fock import matrix_element, pairing
from .partitions import EMPTY, Partition, gt_chains
from .series import HSpec, check_newton
from .verify import Grid, SUITE_NAMES, gt_weight, run_suite

SCHEMA = 1


class UsageError(Exception):
    pass


def _parse_partition(text: str | None) -> Partition:
    if text is None or not text.strip():
        return EMPTY
    parts = [int(tok) for tok in text.split(",") if tok.strip()]
    return Partition(parts)


_DEST_OF = {"lambda": "lam"}


def _require(args, names) -> None:
    missing = [
        n
        for n in names
        if getattr(args, _DEST_OF.get(n, n.replace("-", "_")), None) is None
    ]
    if missing:
        raise UsageError(f"missing required flags: {', '.join('--' + n for n in missing)}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": args.verb, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_compute(args) -> int:
    _require(args, ["family", "n", "m", "outer"])
    outer = _parse_partition(args.outer)
    inner = _parse_partition(args.inner)
    if inner.declared_len > 0:
        result = skew(args.family, outer, inner, args.n, args.m)
    else:
        result = universal(args.family, outer, args.n, args.m)
    payload = {
        "family": args.family,
        "n": args.n,
        "m": args.m,
        "outer": outer.to_json(),
        "inner": inner.to_json() if args.inner is not None else None,
        "result": result.to_json(),
        "text": result.text(),
    }
    _emit(args, payload, result.text())
    return 0


def _cmd_verify(args) -> int:
    grid = Grid.from_json(json.loads(args.grid) if args.grid else {})
    # through the validating constructor, so a bad override exits 2
    if args.seed is not None:
        grid = Grid(**{**grid._asdict(), "rng_seed": args.seed})
    if args.eval_points is not None:
        grid = Grid(**{**grid._asdict(), "eval_points": args.eval_points})
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {name!r}; known: all, {', '.join(SUITE_NAMES)}"
            )
    reports = [run_suite(name, grid) for name in names]
    payload = {
        "grid": grid.to_json(),
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(
            f"suite {rep.check_name}: {status} ({rep.instances_run} instances,"
            f" {len(rep.failures)} failures)"
        )
        for note in rep.notes:
            lines.append(f"  note: {note}")
        for desc, lhs, rhs in rep.failures[:5]:
            lines.append(f"  failed: {desc}")
            lines.append(f"    lhs: {lhs}")
            lines.append(f"    rhs: {rhs}")
        if len(rep.failures) > 5:
            lines.append(f"  ... and {len(rep.failures) - 5} more failures")
    _emit(args, payload, "\n".join(lines))
    return 0 if payload["passed"] else 1


def _cmd_gt(args) -> int:
    _require(args, ["lambda", "n"])
    lam = _parse_partition(args.lam)
    chains = list(gt_chains(lam, args.n))
    entries = [(chain, chain.weight_exponents(), gt_weight(chain)) for chain in chains]
    payload = {
        "lambda": lam.to_json(),
        "n": args.n,
        "count": len(chains),
        "chains": [
            {
                "partitions": [list(z.padded(z.declared_len)) for z in chain.chain],
                "exponents": list(exps),
                "weight": mono.text(),
            }
            for chain, exps, mono in entries
        ],
    }
    if args.count:
        _emit(args, payload, str(len(chains)))
        return 0
    lines = []
    for chain, exps, mono in entries:
        steps = " -> ".join(
            str(list(z.padded(z.declared_len))) for z in chain.chain
        )
        lines.append(f"{steps}  weight {mono.text()}")
    lines.append(f"count {len(chains)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_fock(args) -> int:
    if args.pairing == args.matrix_element:
        raise UsageError("choose exactly one of --pairing / --matrix-element")
    if args.pairing:
        _require(args, ["mu", "lambda"])
        mu = _parse_partition(args.mu)
        lam = _parse_partition(args.lam)
        result = pairing(mu, lam, args.family)
        detail = {"mu": mu.to_json(), "lambda": lam.to_json()}
    else:
        _require(args, ["beta", "alpha", "n", "m"])
        beta = _parse_partition(args.beta)
        alpha = _parse_partition(args.alpha)
        result = matrix_element(beta, args.n, args.m, alpha, args.family)
        detail = {
            "beta": beta.to_json(),
            "alpha": alpha.to_json(),
            "n": args.n,
            "m": args.m,
        }
    payload = {
        "family": args.family,
        "result": result.to_json(),
        "text": result.text(),
        **detail,
    }
    _emit(args, payload, result.text())
    return 0


def _cmd_newton(args) -> int:
    _require(args, ["n", "m", "N"])
    ok = check_newton(HSpec(args.n, args.m, "plain"), args.N)
    payload = {
        "n": args.n,
        "m": args.m,
        "N": args.N,
        "passed": ok,
    }
    _emit(args, payload, "pass" if ok else "fail")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--config", default=None, help="JSON file with flag defaults")

    parser = argparse.ArgumentParser(
        prog="spochar",
        description="exact universal symplectic/orthogonal character toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", parents=[common], help="evaluate a character")
    p.add_argument("--family", choices=("sp", "o"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--outer", type=str, default=None)
    p.add_argument("--inner", type=str, default=None)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", parents=[common], help="run identity suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--grid", default=None, help="JSON grid overrides")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eval-points", dest="eval_points", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gt", parents=[common], help="list chain patterns")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--n", type=int)
    p.add_argument("--count", action="store_true")
    p.set_defaults(fn=_cmd_gt)

    p = sub.add_parser("fock", parents=[common], help="operator-side quantities")
    p.add_argument("--pairing", action="store_true")
    p.add_argument("--matrix-element", dest="matrix_element", action="store_true")
    p.add_argument("--mu", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--family", choices=("sp", "o"), default="sp")
    p.set_defaults(fn=_cmd_fock)

    p = sub.add_parser("newton", parents=[common], help="series recurrence check")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.set_defaults(fn=_cmd_newton)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config value as argparse would take the same flag on the command line."""
    if action.nargs == 0:  # a switch such as --count
        if type(value) is bool:
            return value
    elif type(value) in (str, int):
        try:
            value = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or value in action.choices:
                return value
    raise UsageError(f"config key {key!r}: invalid value {value!r}")


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    pre = argparse.ArgumentParser(prog="spochar", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    # push config values into every subparser that knows the key
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            known = {a.dest: a for a in sub._actions}
            sub.set_defaults(
                **{k: _config_value(known[k], k, v) for k, v in cfg.items() if k in known}
            )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits on bad flags (code 2) and on --help (code 0)
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
