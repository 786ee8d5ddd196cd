"""Command-line surface: JSON to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from . import grid as grid_mod
from . import jumps as jumps_mod
from . import moves as moves_mod
from . import planar as planar_mod
from . import realize as realize_mod
from . import simplify as simplify_mod


def _read_grid(path: str) -> grid_mod.GridDiagram:
    with open(path) as fh:
        return grid_mod.parse_grid(fh.read())


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=False))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _limits(args) -> simplify_mod.SearchLimits:
    kwargs = {}
    if args.limit_states is not None:
        kwargs["max_states"] = args.limit_states
    if args.limit_seconds is not None:
        kwargs["max_seconds"] = args.limit_seconds
    return simplify_mod.SearchLimits(**kwargs)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_move(text: str) -> moves_mod.CromwellMove:
    return moves_mod.move_from_json_obj(json.loads(text))


def cmd_validate(args) -> dict:
    d = _read_grid(args.grid)
    return {"ok": True, "n": d.n, "grid": grid_mod.to_json_obj(d)}


def cmd_info(args) -> dict:
    d = _read_grid(args.grid)
    stats = grid_mod.length_stats(d)
    return {
        "n": d.n,
        "crossings": stats.crossing_count,
        "components": grid_mod.component_count(d),
        "total_length": stats.total_all,
    }


def cmd_moves(args) -> dict:
    d = _read_grid(args.grid)
    listed = moves_mod.available_moves(d, include_divides=args.divides)
    return {"moves": [m.to_json_obj() for m in listed]}


def cmd_simplify(args) -> dict:
    if args.grid:
        d = _read_grid(args.grid)
    else:
        d = simplify_mod.scramble(args.seed or 0, args.steps)
    report = simplify_mod.is_trivial(
        d,
        limits=_limits(args),
        check_exterior_requirement=args.check_exterior,
    )
    out = report.to_json_obj()
    if report.witness is not None and args.witness_out:
        with open(args.witness_out, "w") as fh:
            json.dump(report.witness.to_json_obj(), fh)
        out["witness_file"] = args.witness_out
    return out


def cmd_census(args) -> dict:
    filt = census_mod.CensusFilter(
        knots_only=args.knots or args.trivial,
        stuck_only=args.stuck,
        trivial_only=args.trivial,
    )
    res = census_mod.enumerate_diagrams(args.n, filt, checkpoint=args.checkpoint, limits=_limits(args))
    if args.out:
        with open(args.out, "w") as fh:
            for d in res.representatives:
                fh.write(grid_mod.to_text(d))
    return res.summary()


def cmd_bounds(args) -> dict | int:
    if args.formula:
        n, kind = args.formula
        try:
            n = int(n)
        except ValueError:
            args.usage_error(f"argument --formula: N is not an integer: {n!r}")
        return jumps_mod.move_count_bound(n, kind)
    if args.grid is None or args.move is None:
        args.usage_error("give either --formula N KIND, or --grid and --move")
    d = _read_grid(args.grid)
    m = _parse_move(args.move)
    report = jumps_mod.verify_move_count_bound(d, m)
    return report.to_json_obj()


def cmd_realize(args) -> dict:
    d = _read_grid(args.grid)
    m = _parse_move(args.move)
    frames: list | None = [] if args.frames else None
    trace = realize_mod.realize(d, m, frames=frames)
    obj = realize_mod.trace_to_json(trace, d, m)
    if args.frames:
        obj["frames"] = realize_mod.write_frames(frames, args.frames)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(obj, fh, indent=2)
        return {"ok": True, "trace_file": args.out, "moves": len(trace.moves)}
    return obj


def cmd_render(args) -> dict:
    d = _read_grid(args.grid)
    text = grid_mod.render(d, args.format)
    return {"format": args.format, "grid": grid_mod.to_json_obj(d), "text": text}


def _read_record(path: str, *keys: str) -> dict:
    """A JSON object from a witness or trace file that has all of `keys`."""
    with open(path) as fh:
        obj = json.load(fh)
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise grid_mod.GridError(f"{path}: no {', '.join(map(repr, missing))} in the file")
    return obj


def cmd_replay(args) -> dict:
    if args.witness:
        obj = _read_record(args.witness, "start", "moves")
        if not isinstance(obj["moves"], list):
            raise moves_mod.MoveError(f"{args.witness}: 'moves' is not a list")
        start = grid_mod.from_json_obj(obj["start"])
        seq = tuple(moves_mod.move_from_json_obj(o) for o in obj["moves"])
        simplify_mod.replay_witness(simplify_mod.SimplificationWitness(start, seq))
        return {"ok": True, "kind": "witness", "moves": len(seq)}
    obj = _read_record(args.trace, "grid", "move")
    d = grid_mod.from_json_obj(obj["grid"])
    m = moves_mod.move_from_json_obj(obj["move"])
    trace = realize_mod.realize(d, m)
    # every recorded field, the moves included, must match a fresh realization
    expected = json.loads(json.dumps(realize_mod.trace_to_json(trace, d, m)))
    recorded = {k: v for k, v in obj.items() if k != "frames"}
    for key in sorted(expected.keys() | recorded.keys()):
        if expected.get(key) != recorded.get(key):
            raise planar_mod.IllegalMoveAtSiteError(
                f"trace file field {key!r} differs from the realization of its grid and move"
            )
    final = realize_mod.replay(trace)
    code = planar_mod.gauss_code(final)
    ok = code == obj["final_gauss"]
    if not ok:
        raise planar_mod.IllegalMoveAtSiteError("replayed code differs from the trace file")
    return {"ok": True, "kind": "trace", "moves": len(trace.moves), "final_gauss": code}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand from overriding flags given before it
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                        help="indent JSON output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--limit-states", type=int, default=argparse.SUPPRESS)
    common.add_argument("--limit-seconds", type=float, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="gridknot",
        description="grid diagrams of knots: moves, simplification, censuses, bounds",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grid file", parents=[common])
    p.add_argument("--grid", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("info", help="basic statistics of a grid", parents=[common])
    p.add_argument("--grid", required=True)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("moves", help="list available moves", parents=[common])
    p.add_argument("--grid", required=True)
    p.add_argument("--divides", action="store_true")
    p.set_defaults(fn=cmd_moves)

    p = sub.add_parser("simplify", help="decide unknottedness", parents=[common])
    p.add_argument("--grid")
    p.add_argument("--steps", type=_nonnegative_int, default=10, help="scramble steps when no grid given")
    p.add_argument("--check-exterior", action="store_true")
    p.add_argument("--witness-out")
    p.set_defaults(fn=cmd_simplify)

    p = sub.add_parser("census", help="enumerate diagrams", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--knots", action="store_true")
    p.add_argument("--stuck", action="store_true")
    p.add_argument("--trivial", action="store_true")
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="write representatives as grid text")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("bounds", help="move-count bounds and region counts", parents=[common])
    p.add_argument("--formula", nargs=2, metavar=("N", "KIND"))
    p.add_argument("--grid")
    p.add_argument("--move", help="move JSON")
    p.set_defaults(fn=cmd_bounds, usage_error=p.error)

    p = sub.add_parser("realize", help="realize an exterior move by explicit rewrites", parents=[common])
    p.add_argument("--grid", required=True)
    p.add_argument("--move", required=True)
    p.add_argument("--out")
    p.add_argument("--frames", help="directory for per-move SVG frames")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("render", help="draw a grid", parents=[common])
    p.add_argument("--grid", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("replay", help="verify a witness or trace file", parents=[common])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness")
    group.add_argument("--trace")
    p.set_defaults(fn=cmd_replay)
    return parser


_DOMAIN_ERRORS = (
    grid_mod.GridError,
    moves_mod.MoveError,
    jumps_mod.JumpError,
    planar_mod.PlanarError,
    planar_mod.IllegalMoveAtSiteError,
    simplify_mod.NotAKnotError,
    simplify_mod.NotTrivialInputError,
    simplify_mod.LimitExceededError,
    simplify_mod.LimitSettingError,
    realize_mod.SweepObstructionError,
    OSError,
    json.JSONDecodeError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (
        ("pretty", False), ("seed", None),
        ("limit_states", None), ("limit_seconds", None),
    ):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        result = args.fn(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "render" and args.pretty:
        print(result["text"], end="")
    else:
        _emit(result, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
