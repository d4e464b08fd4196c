"""Command-line front end.

Subcommands: encode, decode, simulate, analyze.  Exit codes: 0 ok,
2 usage or configuration error, 3 a checked invariant was violated,
4 resource guard (k or n over the enumeration limits).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, rmcode, sim
from .decoders import Undecodable
from .decoders.types import hard_input_llr, result_for
from .sim import ConfigError


def _cmd_encode(args) -> int:
    params = rmcode.CodeParams(args.m, args.r)
    msg = rmcode.message_from_json(params, args.message)
    print(rmcode.word_to_hex(rmcode.encode(msg)))
    return 0


def _cmd_decode(args) -> int:
    params = rmcode.CodeParams(args.m, args.r)
    if (args.hex is None) == (args.llr is None):
        raise ConfigError("give exactly one of --hex or --llr")
    if args.hex is not None:
        word = rmcode.word_from_hex(args.hex, params.n)
        kind, fn = sim.resolve_decoder(args.decoder, params, "bsc", False)
        if kind != "hard":
            raise ConfigError(f"{args.decoder!r} needs --llr input")
        L = hard_input_llr(word)
    else:
        word = np.array([float(x) for x in args.llr.split(",")], dtype=np.float64)
        if word.size != params.n:
            raise ConfigError(f"expected {params.n} LLRs")
        if not np.isfinite(word).all():
            raise ConfigError("LLRs must be finite")
        # below n * max|L| = 2^1020 no decoder's sum of n magnitudes (a soft
        # metric, a Chase perturbation, an ML correlation) overflows
        if np.abs(word).max() >= 2.0**1020 / params.n:
            raise ConfigError(f"LLR magnitudes too large: {params.n} * max|L| must stay below 2^1020")
        try:
            fn = sim.resolve_decoder(args.decoder, params, "awgn", False)[1]
        except ConfigError:
            # off the BSC only a hard-input decoder fails by itself; a bad id,
            # argument or code fails on the BSC too and reports that instead
            sim.resolve_decoder(args.decoder, params, "bsc", False)
            raise ConfigError(f"{args.decoder!r} needs --hex input") from None
        L = word
    try:
        codeword = fn(word)
    except Undecodable as exc:
        print(json.dumps({"undecodable": str(exc)}))
        return 0
    res = result_for(params, codeword, L)
    msg = None if res.message is None else json.loads(rmcode.message_to_json(res.message))
    print(
        json.dumps(
            {
                "codeword_hex": rmcode.word_to_hex(res.codeword),
                "message": msg,
                "metric": res.metric,
            }
        )
    )
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        data = json.load(fh)
    config = sim.config_from_dict(data)
    points = sim.run_simulation(config, workers=args.workers)
    sys.stdout.write(sim.csv_report(config, points))
    for pt in points:
        for trial in pt.error_trials:
            print(f"# error {pt.spec}: trial {trial}", file=sys.stderr)
    return 0


def _an_weights(args) -> int:
    wd = analysis.weight_distribution(rmcode.CodeParams(args.m, args.r))
    for w, count in wd.counts.items():
        print(f"{w},{count}")
    return 0


def _an_ghw(args) -> int:
    k = rmcode.CodeParams(args.m, args.r).k
    for a in range(1, k + 1):
        print(f"{a},{analysis.generalized_hamming_weight(args.m, args.r, a)}")
    return 0


def _an_exit(args) -> int:
    params = rmcode.CodeParams(args.m, args.r)
    h = analysis.exit_function_bec(
        params, args.p, mode=args.mode, trials=args.trials, seed=args.seed
    )
    trials = args.trials if args.mode == "mc" else 0
    print(f"{args.m},{args.r},{args.p:g},h,{h:.12g},{args.mode},{trials}")
    return 0


def _an_area(args) -> int:
    params = rmcode.CodeParams(args.m, args.r)
    integral, rate, diff = analysis.area_theorem_check(params, args.grid)
    print(f"{args.m},{args.r},{integral:.12g},{rate:.12g},{diff:g}")
    return 0


def _an_polarize(args) -> int:
    profile = analysis.bitchannel_entropies_bec(
        args.m, args.p, mode=args.mode, trials=args.trials, seed=args.seed
    )
    trials = args.trials if args.mode == "mc" else 0
    for mask, h in profile.entries:
        name = rmcode.monomial_name(mask)
        print(f"{args.m},{name},{args.p:g},H,{h:.12g},{profile.mode},{trials}")
    if profile.mode != "exact":
        return 0
    violated = False
    n = 1 << args.m
    if abs(profile.total() - n * args.p) > 1e-9:
        print(f"balance violated: sum={profile.total()!r}", file=sys.stderr)
        violated = True
    for a, b, ha, hb in analysis.check_partial_order(profile):
        print(
            f"partial order violated: H[{rmcode.monomial_name(a)}]={ha!r} "
            f"< H[{rmcode.monomial_name(b)}]={hb!r}",
            file=sys.stderr,
        )
        violated = True
    if args.m <= 3:
        for perm, i, side, lhs, rhs in analysis.check_interlacing(args.m, args.p):
            print(
                f"interlacing violated: chain {perm} step {i} ({side}): "
                f"{lhs!r} > {rhs!r}",
                file=sys.stderr,
            )
            violated = True
    return 3 if violated else 0


def _an_twin(args) -> int:
    profile = analysis.bitchannel_entropies_bec(args.m, args.p)
    chosen = set(analysis.twin_rm_select(profile, args.eps))
    for mask, h in profile.entries:
        if mask in chosen:
            print(f"{args.m},{rmcode.monomial_name(mask)},{args.p:g},selected_H,{h:.12g},exact,0")
    for row in analysis.twin_rm_report(profile):
        print(
            f"{args.m},r={row['r']},{args.p:g},symmetric_difference,"
            f"{row['symmetric_difference']},exact,0"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a message JSON to a hex codeword")
    enc.add_argument("m", type=int)
    enc.add_argument("r", type=int)
    enc.add_argument("message", help='JSON, e.g. {"x1": 1} or {"0": 1}')
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decode one word")
    dec.add_argument("m", type=int)
    dec.add_argument("r", type=int)
    dec.add_argument("decoder", help="decoder id, e.g. reed or dumer-list:8")
    dec.add_argument("--hex", help="hard word in hex (hard-input decoders)")
    dec.add_argument("--llr", help="comma-separated LLRs (soft-input decoders)")
    dec.set_defaults(func=_cmd_decode)

    simp = sub.add_parser("simulate", help="run a Monte-Carlo sweep from a JSON config")
    simp.add_argument("config", help="path to a flat JSON config")
    simp.add_argument("--workers", type=int, default=1)
    simp.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="structural reports")
    asub = ana.add_subparsers(dest="subcommand", required=True)

    w = asub.add_parser("weights")
    w.add_argument("m", type=int)
    w.add_argument("r", type=int)
    w.set_defaults(func=_an_weights)

    g = asub.add_parser("ghw")
    g.add_argument("m", type=int)
    g.add_argument("r", type=int)
    g.set_defaults(func=_an_ghw)

    e = asub.add_parser("exit")
    e.add_argument("m", type=int)
    e.add_argument("r", type=int)
    e.add_argument("p", type=float)
    e.add_argument("--mode", choices=("exact", "mc"), default="exact")
    e.add_argument("--trials", type=int, default=100_000)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_an_exit)

    a = asub.add_parser("area")
    a.add_argument("m", type=int)
    a.add_argument("r", type=int)
    a.add_argument("--grid", type=int, default=129)
    a.set_defaults(func=_an_area)

    pz = asub.add_parser("polarize")
    pz.add_argument("m", type=int)
    pz.add_argument("p", type=float)
    pz.add_argument("--mode", choices=("exact", "mc"), default="exact")
    pz.add_argument("--trials", type=int, default=100_000)
    pz.add_argument("--seed", type=int, default=0)
    pz.set_defaults(func=_an_polarize)

    tw = asub.add_parser("twin")
    tw.add_argument("m", type=int)
    tw.add_argument("p", type=float)
    tw.add_argument("eps", type=float)
    tw.set_defaults(func=_an_twin)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except rmcode.TooLarge as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except (
        ConfigError,
        analysis.OutOfRange,
        json.JSONDecodeError,
        ValueError,
        KeyError,
        OSError,
        rmcode.DegenerateDual,
        rmcode.TooShort,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
