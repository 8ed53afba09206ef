"""`seqmeter peaks`: search for a full periodic peak."""

import argparse

from . import EXIT_OK, _emit, _env_budget, _load

NOTE_SHIFTS = 8  # shifts the stderr note lists; stdout's JSON holds them all


def add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument("file")
    parser.add_argument("--tmax", type=int, default=None,
                        help="weight cap (default: the sphere-packing threshold; none at full rank)")
    parser.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    parser.set_defaults(func=cmd_peaks)


def cmd_peaks(args) -> int:
    from ..codes import build_span, find_periodic_peak
    from ..thresholds import full_peak_threshold

    seq, _ = _load(args)
    span = build_span(seq)
    t_max = full_peak_threshold(seq.period, span.dimension) if args.tmax is None else args.tmax
    cert = find_periodic_peak(span, t_max, budget=_env_budget())
    if cert is None:
        _emit(args, {"found": False, "tmax": t_max, "dimension": span.dimension},
              f"no full peak of order <= {t_max}")
        return EXIT_OK
    payload = cert.as_dict()
    payload.update(found=True, dimension=span.dimension, tmax=t_max)
    shifts = ", ".join(map(str, cert.shifts[:NOTE_SHIFTS]))
    if cert.order > NOTE_SHIFTS:
        shifts += ", ..."
    _emit(args, payload, f"full peak: order {cert.order}, shifts [{shifts}], theta = {cert.period}")
    return EXIT_OK
