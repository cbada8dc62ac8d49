"""Command-line pipeline: synth -> ingest -> graphs -> detection -> analytics.

Every subcommand writes CSV data files plus a JSON run manifest (flags, seed,
library versions, input digests). Outputs are byte-identical for identical
flags and seed; diagnostics go to stderr, never into data files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import warnings
from collections.abc import Iterable
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .community import ALGORITHMS, derived_seed, fastgreedy
from .compare import rand_index, random_partition
from .graphs import Partition, build_bipartite, project
from .ingest import (
    DEFAULT_MIN_POSTS,
    DEFAULT_RANGE,
    ENGAGEMENT_ACTIONS,
    Dataset,
    csv_text,
    dataset_summary,
    filter_dataset,
    parse_records,
    read_labels,
    serialize_chunks,
    write_labels,
)
from .metrics import (
    DEFAULT_BINS,
    DEFAULT_MIN_ACTIONS,
    DEFAULT_SPAN,
    MAX_COUNT,
    check_count,
    check_span,
    loess_fit,
    pages_per_window,
    polarization_histogram,
    standardize,
    two_largest_sides,
    user_engagement,
    user_polarization,
)
from .synth import (ACTIVITY_CAP, PAGES_CAP, POSTS_CAP, RECORDS_CAP, USERS_CAP, SynthConfig,
                    generate)
from .temporal import (
    activity_series,
    cohesion_series,
    manova_pillai,
    two_way_anova,
)
from .timebins import parse_quarter, quarter_label

DV_ACTION = {"posts": "post", "likes": "like", "comments": "comment"}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _publish(outputs: list[tuple[Path, str | Iterable[str]]]) -> None:
    """Write each text, or each chunk of an iterable, to a new temporary file in
    its path's directory; once all are closed, rename each onto its path, in
    order. On any error every temporary file made so far is removed, so no
    output appears and an existing one keeps its bytes.

    A temporary file is opened with mode "x", so its permission bits follow
    the umask as a new file's do.
    """
    temps: list[Path] = []
    try:
        for path, text in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            fh = open(temp, "x", encoding="utf-8", newline="")
            temps.append(temp)
            with fh:
                fh.writelines([text] if isinstance(text, str) else text)
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _manifest(args: argparse.Namespace, inputs: dict[str, str]) -> str:
    flags = {k: (str(v) if isinstance(v, Path) else v)
             for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "flags": flags,
        "versions": {
            "echonet": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "inputs": inputs,
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def _out_path(args, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else Path(args.out_dir) / p


def _run(args) -> None:
    """Run one subcommand: load its inputs, build its outputs, write them all.

    Subcommands with ``--in`` get the parsed Dataset and those with
    ``--labels`` the label map, in that order. The body returns its
    ``(output name, text or iterable of text chunks)`` pairs; the manifest
    goes next to ``--out`` and lists the inputs as they were read. Nothing is
    written if two outputs, the manifest included, resolve to one file, or if
    one names a directory or lies under a file; otherwise _publish writes all
    of them or none, each at its resolved path, so a symlinked output updates
    its target.
    """
    inputs, loaded = [], []
    if hasattr(args, "infile"):
        inputs.append(_out_path(args, args.infile))
        with open(inputs[-1], encoding="utf-8", errors="surrogateescape") as fh:
            d = parse_records(fh, format=getattr(args, "format", "jsonl"),
                              strict=getattr(args, "strict", True))
        if d.skipped_lines:
            print(f"warning: skipped {d.skipped_lines} malformed lines", file=sys.stderr)
        loaded.append(d)
    if hasattr(args, "labels"):
        inputs.append(_out_path(args, args.labels))
        with open(inputs[-1], encoding="utf-8", errors="surrogateescape") as fh:
            loaded.append(read_labels(fh))
    digests = {str(p): _sha256(p) for p in inputs}  # before --out can overwrite --in
    outputs = [(_out_path(args, name), text) for name, text in args.func(args, *loaded)]
    outputs.append((Path(f"{_out_path(args, args.out)}.manifest.json"), _manifest(args, digests)))
    resolved = [path.resolve() for path, _ in outputs]
    for i, path in enumerate(resolved):
        if path in resolved[:i]:
            raise ValueError(f"two outputs name one file: {outputs[i][0]}")
        if path.is_dir():
            raise ValueError(f"output names a directory: {outputs[i][0]}")
        ancestor = next(a for a in path.parents if a.exists())
        if not ancestor.is_dir():
            raise ValueError(f"output {outputs[i][0]} lies under a file: {ancestor}")
    _publish([(path, text) for path, (_, text) in zip(resolved, outputs)])


def _numbers(flag: str, text: str, form: str, kind=int, count=None, prefix="") -> tuple:
    """The comma-separated numbers after ``prefix`` in ``text``, ``count`` of
    them if given; otherwise a ValueError that names ``flag`` and its ``form``."""
    try:
        values = tuple(kind(v) for v in text.removeprefix(prefix).split(","))
    except ValueError:
        values = None
    if values is None or not text.startswith(prefix) or count not in (None, len(values)):
        raise ValueError(f"bad {flag} {text!r}, use {form}")
    return values


# ---------------------------------------------------------------- subcommands


def cmd_synth(args) -> list[tuple[str, str | Iterable[str]]]:
    # parsed here so a malformed pair is one error line; stored back for the manifest
    args.users = _numbers("--users", args.users, "PRO,ANTI", count=2)
    args.pages = _numbers("--pages", args.pages, "PRO,ANTI", count=2)
    form = "fixed:N or lognormal:MU,SIGMA"
    if args.actions.startswith("fixed:"):
        actions = ("fixed", *_numbers("--actions", args.actions, form, int, 1, "fixed:"))
    else:
        actions = ("lognormal", *_numbers("--actions", args.actions, form, float, 2, "lognormal:"))
    sub_blocks = None
    if args.pro_blocks or args.anti_blocks:
        sub_blocks = (_numbers("--pro-blocks", args.pro_blocks or str(args.pages[0]), "N1,N2,..."),
                      _numbers("--anti-blocks", args.anti_blocks or str(args.pages[1]), "N1,N2,..."))
    config = SynthConfig(
        users_per_side=args.users,
        pages_per_side=args.pages,
        p_out=args.p_out,
        actions_per_user=actions,
        comment_fraction=args.comment_fraction,
        posts_per_page=args.posts_per_page,
        time_range=(args.date_from, args.date_to),
        seed=derived_seed(args.seed, "synth"),
        sub_blocks=sub_blocks,
    )
    dataset, truth, labels = generate(config)
    outputs = [(args.out, serialize_chunks(dataset)), (args.truth, write_labels(labels))]
    if args.user_truth:
        outputs.append((args.user_truth, write_labels(truth.user_side)))
    return outputs


def cmd_ingest(args, d: Dataset) -> list[tuple[str, Iterable[str]]]:
    filtered = filter_dataset(d, min_posts=args.min_posts,
                              date_range=(args.date_from, args.date_to))
    return [(args.out, serialize_chunks(filtered))]


def cmd_summary(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    return [(args.out, dataset_summary(d, labels).to_csv())]


def cmd_project(args, d: Dataset) -> list[tuple[str, str]]:
    return [(args.out, project(build_bipartite(d, args.action)).to_csv())]


def cmd_detect(args, d: Dataset) -> list[tuple[str, str]]:
    if args.steps < 1:  # checked for every algorithm, not only walktrap
        raise ValueError(f"steps must be positive, got {args.steps}")
    g = project(build_bipartite(d, args.action))
    part, dendro = ALGORITHMS[args.algorithm](
        g, derived_seed(args.seed, "detect", args.algorithm), args.steps)
    outputs = [(args.out, part.to_csv())]
    if args.dendrogram:
        if dendro is None:
            raise ValueError(f"{args.algorithm} does not produce a dendrogram")
        outputs.append((args.dendrogram, dendro.to_csv()))
    return outputs


def run_validation_matrix(d: Dataset, labels: dict[str, str], seed: int,
                          draws: int = 100) -> dict:
    """Rand-index matrix of {random, labeled, fastgreedy} against all algorithms.

    One sub-table per action kind whose page graph has positive total weight;
    a kind with no records, or whose users each act on one page, is omitted
    with a warning. The random row averages ``draws`` uniform partitions into
    as many communities as the label map uses, drawn once per action kind and
    added to every algorithm's sum as it is drawn.
    """
    check_count("draws", draws, 1)
    result: dict[str, dict[str, dict[str, float]]] = {}
    for kind in ENGAGEMENT_ACTIONS:
        if (table := _validation_table(d, kind, labels, seed, draws)) is not None:
            result[kind + "s"] = table
    return result


def _validation_table(d: Dataset, kind: str, labels: dict[str, str], seed: int,
                      draws: int) -> dict[str, dict[str, float]] | None:
    """One action kind's sub-table, or None with a warning if its graph has no weight.
    Its graphs and partitions are released on return, before the next kind's."""
    b = build_bipartite(d, kind)
    g = project(b) if b.n_edges else None
    del b
    if g is None or g.total_weight == 0:
        why = f"no {kind} records" if g is None else f"{kind} graph has zero total weight"
        warnings.warn(f"{why}; sub-table omitted")
        return None
    parts = {algo: ALGORITHMS[algo](g, derived_seed(seed, "validate", kind, algo))[0]
             for algo in ALGORITHMS}
    labeled_nodes = [n for n in g.nodes if n in labels]
    if len(labeled_nodes) < 2:
        raise ValueError("need at least 2 labeled pages")
    if len(labeled_nodes) < len(g.nodes):
        warnings.warn(f"{len(g.nodes) - len(labeled_nodes)} pages unlabeled; "
                      "labeled row restricted to labeled pages")
    labeled = Partition.from_mapping(labels, labeled_nodes)

    k = max(len(set(labels.values())), 2)
    sums = dict.fromkeys(parts, 0.0)
    for i in range(draws):
        rp = random_partition(g.nodes, k, derived_seed(seed, "validate", kind, "random", i))
        for algo, part in parts.items():
            sums[algo] += rand_index(rp, part)
    table: dict[str, dict[str, float]] = {"random": {}, "labeled": {}, "fastgreedy": {}}
    for algo, part in parts.items():
        table["random"][algo] = sums[algo] / draws
        table["labeled"][algo] = rand_index(  # each partition on the labeled pages
            labeled, Partition.from_mapping(part.as_dict(), labeled_nodes))
        table["fastgreedy"][algo] = rand_index(parts["fastgreedy"], part)
    return table


def validation_matrix_csv(matrix: dict) -> str:
    """The matrix's rows in the order ``run_validation_matrix`` built them."""
    cols = list(ALGORITHMS)
    rows = [[kind, row] + [scores[c] for c in cols]
            for kind, table in matrix.items() for row, scores in table.items()]
    return csv_text(["graph", "communities"] + cols, rows)


def cmd_validate(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    matrix = run_validation_matrix(d, labels, args.seed, draws=args.draws)
    return [(args.out, validation_matrix_csv(matrix))]


def _side_map(args, d: Dataset, labels: dict[str, str]) -> dict[str, str]:
    if args.sides == "labels":
        return labels
    g = project(build_bipartite(d, args.action))
    part, _ = fastgreedy(g)
    return two_largest_sides(part)


def cmd_polarize(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    sides = _side_map(args, d, labels)
    profiles = user_polarization(d, sides, action=args.action,
                                 min_actions=args.min_actions)
    hist = polarization_histogram(profiles, bins=args.bins)
    rows = [(hist.edges[i], hist.edges[i + 1], hist.densities[i])
            for i in range(len(hist.densities))]
    outputs = [(args.out, csv_text(["bin_left", "bin_right", "density"], rows))]
    if args.profiles:
        outputs.append((args.profiles, csv_text(["user", "x", "y", "rho"],
                                                [(p.user, p.x, p.y, p.rho) for p in profiles])))
    return outputs


def cmd_exposure(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    check_count("eval-points", args.eval_points, 1)
    check_span(args.span)
    engagement = user_engagement(d, labels)
    pages = pages_per_window(d, args.window)
    by_side: dict[str, list] = {}
    for e in engagement:
        by_side.setdefault(e.community, []).append(e)
    rows = []
    for side in sorted(by_side):
        members = by_side[side]
        if len(members) < 3:
            warnings.warn(f"community {side!r} has fewer than 3 users; skipped")
            continue
        counts = [pages[e.user] for e in members]
        if args.standardize_pages:
            counts = standardize(counts, "pages per window", side)
        for measure in ("lifetime", "activity"):
            x = np.array([getattr(e, f"{measure}_std") for e in members])
            grid = np.linspace(x.min(), x.max(), args.eval_points)
            fit, lo95, hi95 = loess_fit(x, counts, span=args.span, eval_points=grid)
            for i in range(len(grid)):
                rows.append((side, measure, float(grid[i]), float(fit[i]),
                             float(lo95[i]), float(hi95[i])))
    return [(args.out, csv_text(["community", "measure", "x", "fit", "lo95", "hi95"],
                                rows))]


def cmd_timeline(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    rows = [(quarter_label(s.quarter), s.community, s.measure, s.count)
            for s in activity_series(d, labels)]
    return [(args.out, csv_text(["quarter", "community", "measure", "count"], rows))]


def cmd_cohesion(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    algos = tuple(ALGORITHMS) if args.algorithms == "all" else \
        tuple(a.strip() for a in args.algorithms.split(","))
    points = cohesion_series(d, labels, action=args.action, algorithms=algos,
                             seed=args.seed, cumulative=args.cumulative)
    # one warning per degenerate (quarter, community), not one per algorithm
    for q, side in dict.fromkeys((p.quarter, p.community) for p in points if p.flags):
        print(f"warning: degenerate quarter {quarter_label(q)} for {side}",
              file=sys.stderr)
    rows = [(quarter_label(p.quarter), p.community, p.algorithm, p.largest, p.total)
            for p in points]
    return [(args.out, csv_text(["quarter", "community", "algorithm", "largest",
                                 "total"], rows))]


def cmd_anova(args, d: Dataset, labels: dict[str, str]) -> list[tuple[str, str]]:
    dvs = [v.strip() for v in args.dv.split(",")]
    for dv in dvs:
        if dv not in DV_ACTION:
            raise ValueError(f"unknown dependent variable {dv!r}")
        if args.entity == "users" and dv == "posts":
            raise ValueError("users are never active by posts")
    measures = [f"active_{args.entity}_{DV_ACTION[dv]}" for dv in dvs]
    split = parse_quarter(args.split)
    series = activity_series(d, labels)
    counts: dict[tuple, dict[str, int]] = {}
    for s in series:
        if s.measure in measures:
            counts.setdefault((s.community, s.quarter), {})[s.measure] = s.count
    obs = []
    for (community, q), values in sorted(counts.items()):
        epoch = "before" if q <= split else "after"
        obs.append((community, epoch, tuple(values[m] for m in measures)))

    if len(measures) == 1:
        table = two_way_anova([(a, b, v[0]) for a, b, v in obs])
        results = (table.factor_a, table.factor_b, table.interaction)
    else:
        results = (manova_pillai(obs),)
    rows = [(r.term, r.F, r.df1, r.df2, r.p, r.partial_eta2) for r in results]
    return [(args.out, csv_text(["term", "F", "df1", "df2", "p", "partial_eta2"], rows))]


# --------------------------------------------------------------------- parser


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    """A help-less parser holding one option, shared by several subcommands."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*flags, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="global seed; per-operation seeds derive from it")
    common.add_argument("--out-dir", default=".", help="directory for outputs")
    common.add_argument("--out", required=True)
    infile = _parent("--in", dest="infile", required=True)
    labels = _parent("--labels", required=True)
    action = _parent("--action", choices=ENGAGEMENT_ACTIONS, default="like")
    dates = argparse.ArgumentParser(add_help=False)
    dates.add_argument("--from", dest="date_from", default=DEFAULT_RANGE[0].isoformat())
    dates.add_argument("--to", dest="date_to", default=DEFAULT_RANGE[1].isoformat())

    parser = argparse.ArgumentParser(
        prog="echonet",
        description="polarized user-page interaction network analytics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, *parents, help):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func)
        return p

    p = add("synth", cmd_synth, dates, help="generate a planted-polarization dataset")
    p.description = (f"A config may imply at most {RECORDS_CAP} records: the posts plus each "
                     f"user's action count, {ACTIVITY_CAP} for a lognormal draw.")
    # argparse's private negative-number pattern has no comma, so it reads "-1,2" as an
    # option; with this one "--users -1,2" reaches the range check as "--users=-1,2" does
    p._negative_number_matcher = re.compile(r"^-[\d.][\d.,-]*$")
    p.add_argument("--users", default="5000,5000", metavar="PRO,ANTI",
                   help=f"users per side (at most {USERS_CAP} each)")
    p.add_argument("--pages", default="145,98", metavar="PRO,ANTI",
                   help=f"pages per side (at most {PAGES_CAP} each)")
    p.add_argument("--p-out", dest="p_out", type=float, default=0.02)
    p.add_argument("--actions", default="lognormal:2,1",
                   help=f"fixed:N (N at most {ACTIVITY_CAP}) or lognormal:MU,SIGMA "
                   "per-user action count")
    p.add_argument("--comment-fraction", type=float, default=0.2)
    p.add_argument("--posts-per-page", type=int, default=50,
                   help=f"posts per page (at most {POSTS_CAP})")
    p.add_argument("--pro-blocks", default=None, metavar="N1,N2,...",
                   help="user-disjoint page blocks on the pro side")
    p.add_argument("--anti-blocks", default=None, metavar="N1,N2,...")
    p.add_argument("--truth", required=True, help="page label CSV output")
    p.add_argument("--user-truth", default=None)

    p = add("ingest", cmd_ingest, infile, dates,
            help="parse, filter and canonicalize an interaction log")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--min-posts", type=int, default=DEFAULT_MIN_POSTS)
    strictness = p.add_mutually_exclusive_group()
    strictness.add_argument("--strict", dest="strict", action="store_true",
                            default=True)
    strictness.add_argument("--lenient", dest="strict", action="store_false")

    add("summary", cmd_summary, infile, labels, help="per-label dataset description table")
    add("project", cmd_project, infile, action, help="weighted one-mode page projection")

    p = add("detect", cmd_detect, infile, action, help="community detection")
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="fastgreedy")
    p.add_argument("--steps", type=int, default=4, help="walk length for walktrap")
    p.add_argument("--dendrogram", default=None)

    p = add("validate", cmd_validate, infile, labels,
            help="partition-similarity validation matrix")
    p.add_argument("--draws", type=int, default=100,
                   help=f"random partitions averaged in the random row (1..{MAX_COUNT})")

    p = add("polarize", cmd_polarize, infile, labels, action,
            help="per-user polarization density")
    p.add_argument("--sides", choices=("labels", "detected"), default="labels")
    p.add_argument("--min-actions", type=int, default=DEFAULT_MIN_ACTIONS)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS,
                   help=f"histogram bins over [-1, 1] (2..{MAX_COUNT})")
    p.add_argument("--profiles", default=None, help="optional per-user CSV")

    p = add("exposure", cmd_exposure, infile, labels,
            help="selective-exposure curves with 95%% confidence bands")
    p.add_argument("--window", choices=("year", "month", "week"), default="week")
    p.add_argument("--span", type=float, default=DEFAULT_SPAN)
    p.add_argument("--eval-points", type=int, default=25,
                   help=f"grid points per fitted curve (1..{MAX_COUNT})")
    p.add_argument("--standardize-pages", action="store_true")

    add("timeline", cmd_timeline, infile, labels,
        help="quarterly active-page and active-user series")

    p = add("cohesion", cmd_cohesion, infile, labels, action,
            help="largest detected community per quarter")
    p.add_argument("--algorithms", default="all")
    p.add_argument("--cumulative", action="store_true")

    p = add("anova", cmd_anova, infile, labels,
            help="sentiment-by-epoch interaction tests")
    p.add_argument("--dv", default="comments",
                   help="dependent variables, e.g. comments or posts,likes")
    p.add_argument("--entity", choices=("pages", "users"), default="pages")
    p.add_argument("--split", default="2014Q4", help="last quarter of the 'before' epoch")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
