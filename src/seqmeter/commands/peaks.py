"""`seqmeter peaks`: search for a full periodic peak."""

import argparse

from . import EXIT_OK, _emit, _env_budget, _load


def add_arguments(parser: argparse.ArgumentParser, common: argparse.ArgumentParser,
                  name: str, argv: list[str]) -> None:
    parser.add_argument("file")
    parser.add_argument("--tmax", type=int, default=None,
                        help="weight cap (default: the sphere-packing threshold; none at full rank)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.set_defaults(func=cmd_peaks)


def cmd_peaks(args) -> int:
    from ..codes import build_span, find_periodic_peak
    from ..thresholds import full_peak_threshold

    seq = _load(args.file)
    span = build_span(seq)
    t_max = full_peak_threshold(seq.period, span.dimension) if args.tmax is None else args.tmax
    cert = find_periodic_peak(span, t_max, budget=_env_budget(), jobs=args.jobs)
    if cert is None:
        _emit(args, {"found": False, "tmax": t_max, "dimension": span.dimension},
              f"no full peak of order <= {t_max}")
        return EXIT_OK
    payload = cert.as_dict()
    payload.update(found=True, dimension=span.dimension, tmax=t_max)
    _emit(args, payload,
          f"full peak: order {cert.order}, shifts {list(cert.shifts)}, theta = {cert.period}")
    return EXIT_OK
