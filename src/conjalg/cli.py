"""Command line front end.

Every invocation prints exactly one JSON document to stdout.  Exit code 0
means the requested decision completed (whatever the answer), 2 signals a
parse or validation failure of the inputs, and 3 a module precondition
failure or any other error inside a decision.  Every failure writes one
`error:` line to stderr, never a traceback; `norms` writes a `warning:`
line for each truncation at or below the polynomial's degree.

Each subcommand imports the layers it runs when it runs, so the parser is
built from this module alone: `disk classify`, `disk conjugate` and
`disk iso` load `diskmaps` and no numpy, and every other subcommand loads
numpy with its layers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from . import DEFAULT_SEED, DEFAULT_TRUNC

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

GAMMA_PRESETS = ("cayley", "cayley-flip", "identity", "radial-square")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("cannot read %s: %s" % (path, exc), EXIT_PARSE)


def _load_system(path):
    from . import dynsys

    try:
        return dynsys.FiniteDynSys.from_json(_load_json(path))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)


def _load_mobius(path):
    from . import diskmaps

    try:
        return diskmaps.MobiusMap.from_json(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError("bad Mobius map JSON %s: %s" % (path, exc), EXIT_PARSE)


def _decide(stage, *args):
    """stage(*args), where any error exits 3 with the stage's name."""
    try:
        return stage(*args)
    except Exception as exc:
        raise CliError("%s: %s: %s" % (stage.__name__, type(exc).__name__, exc),
                       EXIT_PRECONDITION)


def validate_report(obj) -> bool:
    """Schema check used by the round-trip property: a report is a JSON
    object with a command tag, re-serialisable to the same bytes."""
    if not isinstance(obj, dict) or "command" not in obj:
        return False
    try:
        return json.loads(json.dumps(obj, sort_keys=True)) == obj
    except (TypeError, ValueError):
        return False


def _emit(report):
    assert validate_report(report)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_finite(args):
    from . import dynsys

    a = _load_system(args.a)
    b = _load_system(args.b)
    w = dynsys.are_conjugate(a, b)
    report = {"command": "finite", "conjugate": w is not None}
    if w is not None:
        report["witness"] = list(w.bijection)
    return report


def cmd_canon(args):
    from . import dynsys

    sys_ = _load_system(args.system)
    return {"command": "canon", "canonical_form": dynsys.canonical_form(sys_), "format": 2}


def cmd_char_space(args):
    from . import charspace

    sys_ = _load_system(args.system)
    report = charspace.build_catalog(sys_, args.radius).to_json()
    report["command"] = "char-space"
    return report


def cmd_norms(args):
    from . import reps, skewpoly

    obj = _load_json(args.poly)
    try:
        p = skewpoly.SkewPoly.from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError("bad polynomial JSON: %s" % exc, EXIT_PARSE)
    sizes = sorted({min(args.trunc, max(2, args.trunc // 4)),
                    min(args.trunc, max(3, args.trunc // 2)), args.trunc})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals = [reps.norm_estimate(p, N) for N in sizes]
    for w in caught:  # one line each, not Python's file:line form
        sys.stderr.write("warning: %s\n" % w.message)
    monotone = all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))
    return {
        "command": "norms",
        "estimate": vals[-1],
        "N": args.trunc,
        "l1_norm": skewpoly.l1_norm(p),
        "monotone_check": monotone,
    }


def cmd_pencil_check(args):
    import numpy as np

    from . import reps, verify

    sys_ = _load_system(args.system)
    if not 0 <= args.x < sys_.n:
        raise CliError("base point %d out of range(%d)" % (args.x, sys_.n), EXIT_PARSE)
    z = complex(args.z_re, args.z_im)
    try:
        rep = reps.build_pencil(sys_, args.x, z)
    except reps.NestRepError as exc:
        raise CliError("%s: %s" % (exc.code, exc), EXIT_PRECONDITION)
    except ValueError as exc:  # a NaN or infinite z
        raise CliError(str(exc), EXIT_PARSE)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        p = verify.random_poly(rng, sys_, 8)
        q = verify.random_poly(rng, sys_, 8)
        worst = max(worst, verify.mat_dev(rep.apply(p * q),
                                          rep.apply(p) @ rep.apply(q)))
    return {
        "command": "pencil-check",
        "x": args.x,
        "z": [z.real, z.imag],
        "samples": args.samples,
        "max_deviation": worst,
        "passed": worst <= args.tolerance,
    }


def normal_form(m, cl):
    """The invariants of m, read from its classification cl."""
    from . import diskmaps

    return diskmaps._normal_form(m, cl)[0]


def cmd_disk_classify(args):
    from . import diskmaps

    m = _load_mobius(args.map)
    cl = _decide(diskmaps.classify, m)
    inv = _decide(normal_form, m, cl)
    report = cl.to_json()
    report["command"] = "disk-classify"
    report["normal_form"] = [
        v if isinstance(v, str) else [complex(v).real, complex(v).imag] for v in inv
    ]
    return report


def cmd_disk_conjugate(args):
    from . import diskmaps

    m1 = _load_mobius(args.m1)
    m2 = _load_mobius(args.m2)
    w = _decide(diskmaps.analytically_conjugate, m1, m2)
    report = {"command": "disk-conjugate", "conjugate": w is not None}
    if w is not None:
        report["witness"] = w.to_json()["matrix"]
        report["deviation_bound"] = diskmaps.witness_bound(w, m1, m2)
    return report


def cmd_disk_iso(args):
    from . import diskmaps

    m1 = _load_mobius(args.m1)
    m2 = _load_mobius(args.m2)
    verdict, w = _decide(diskmaps.semicrossed_iso_verdict, m1, m2)
    report = {"command": "disk-iso", "verdict": verdict}
    if w is not None:
        report["witness"] = w.to_json()["matrix"]
    return report


def cmd_disk_verify_witness(args):
    from . import diskmaps

    if args.gamma not in GAMMA_PRESETS:
        raise CliError("unknown gamma preset %r" % args.gamma, EXIT_PARSE)
    gamma = {
        "identity": lambda z: z,
        "radial-square": lambda z: z * abs(z),
        "cayley": diskmaps.MobiusMap(1, -1, 1, 1),        # (z - 1)/(z + 1)
        "cayley-flip": diskmaps.MobiusMap(1, 1, 1, -1),   # (z + 1)/(z - 1)
    }[args.gamma]
    m1 = _load_mobius(args.m1)
    m2 = _load_mobius(args.m2)
    dev = _decide(diskmaps.verify_conjugacy_witness, gamma, m1, m2,
                  diskmaps.disk_samples(args.samples, seed=args.seed))
    return {
        "command": "disk-verify-witness",
        "gamma": args.gamma,
        "samples": args.samples,
        "max_deviation": dev,
        "passed": dev <= args.tolerance,
    }


def cmd_verify_suite(args):
    from . import verify

    report = verify.run_suite(seed=args.seed, quick=args.quick)
    report["command"] = "verify-suite"
    return report


# ---------------------------------------------------------------------------

def _positive_int(value):
    v = int(value)
    if v <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return v


def _positive_float(value):
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return v


def build_parser() -> argparse.ArgumentParser:
    # argparse converts a CONJ_SEED string like a --seed value, and reports a
    # bad one, only in the subcommands that take --seed
    default_seed = os.environ.get("CONJ_SEED", DEFAULT_SEED)
    parser = argparse.ArgumentParser(
        prog="conj",
        description="Conjugacy decisions for finite systems and Mobius disk maps",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("finite", help="decide conjugacy of two finite systems")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_finite)

    p = sub.add_parser("canon", help="canonical form of a finite system")
    p.add_argument("system")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("char-space", help="character catalog of a finite system")
    p.add_argument("system")
    p.add_argument("--radius", type=_positive_float, default=1.0)
    p.set_defaults(fn=cmd_char_space)

    p = sub.add_parser("norms", help="truncated operator norm estimate")
    p.add_argument("poly")
    p.add_argument("--trunc", type=_positive_int, default=DEFAULT_TRUNC)
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("pencil-check", help="pencil homomorphism check")
    p.add_argument("system")
    p.add_argument("x", type=int)
    p.add_argument("--z-re", type=float, default=0.5)
    p.add_argument("--z-im", type=float, default=0.0)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--tolerance", type=_positive_float, default=1e-12)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(fn=cmd_pencil_check)

    disk = sub.add_parser("disk", help="Mobius disk map operations")
    dsub = disk.add_subparsers(dest="disk_subcommand", required=True)

    p = dsub.add_parser("classify")
    p.add_argument("map")
    p.set_defaults(fn=cmd_disk_classify)

    p = dsub.add_parser("conjugate")
    p.add_argument("m1")
    p.add_argument("m2")
    p.set_defaults(fn=cmd_disk_conjugate)

    p = dsub.add_parser("iso")
    p.add_argument("m1")
    p.add_argument("m2")
    p.set_defaults(fn=cmd_disk_iso)

    p = dsub.add_parser("verify-witness")
    p.add_argument("gamma", help="one of: %s" % ", ".join(GAMMA_PRESETS))
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--tolerance", type=_positive_float, default=1e-10)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(fn=cmd_disk_verify_witness)

    p = sub.add_parser("verify-suite", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except Exception as exc:  # a fault inside a decision: exit 3, no traceback
        command = " ".join(filter(None, (args.subcommand, getattr(args, "disk_subcommand", None))))
        sys.stderr.write("error: %s: %s: %s\n" % (command, type(exc).__name__, exc))
        return EXIT_PRECONDITION
    if args.subcommand == "verify-suite" and not report["passed"]:
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
