"""Command-line entry points.

Subcommands: synth (generate a synthetic corpus), approximate (fit the
compressed transition model), propagate (spread labels from a seeded labeled
subset), experiment (accuracy sweeps over labeled fractions and the timing
sweep over dataset sizes). Options may come from a key=value config file;
command-line flags win.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from .anchor_tree import build_cluster_tree
from .dataset import (
    SyntheticSpec,
    block_topic_alphas,
    generate_synthetic,
    load_bow,
    load_labels,
    smooth,
    write_bow,
    write_labels,
)
from .divergence import COUNT_KINDS, KINDS, DivergenceSpec
from .model_io import load_model, save_model
from .partition import auto_refine, coarsest_partition, finest_partition
from .propagation import (
    PropagationConfig,
    TransitionModel,
    classify_one_vs_all,
    dense_transition_matrix,
    evaluate_accuracy,
    per_class_accuracy,
    spread_labels,
)
from .variational import exact_loglik, lower_bound, optimize_q

DEFAULT_EPSILON = 0.5  # additive count smoothing for positive-domain kinds
DEFAULT_ALPHA = 0.01
DEFAULT_ITERS = 300
DEFAULT_MAX_EXACT_N = 8192
SIGMA_STREAM = 0xD157  # fixed sub-stream for the bandwidth policy
SIGMA_PAIRS = 1000  # random row pairs the bandwidth policy takes the median over


def _float_list(text):
    return [float(t) for t in str(text).split(",") if t != ""]


def _int_list(text):
    return [int(t) for t in str(text).split(",") if t != ""]


def _str_list(text):
    return [t.strip() for t in str(text).split(",") if t.strip()]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def default_sigma(data, seed):
    """Bandwidth policy: median Euclidean distance over seeded random pairs."""
    n = data.n_rows
    if n < 2:  # no pair of distinct rows to draw
        raise ValueError(f"the median bandwidth policy needs 2 rows, not {n} row; give --sigma")
    rng = np.random.default_rng([int(seed), SIGMA_STREAM])
    i = rng.integers(0, n, SIGMA_PAIRS)
    j = rng.integers(0, n - 1, SIGMA_PAIRS)
    j[j >= i] += 1
    xi = np.asarray(data.csr()[i].todense())
    xj = np.asarray(data.csr()[j].todense())
    with np.errstate(over="ignore"):  # an overflow is named by the caller
        med = float(np.median(np.linalg.norm(xi - xj, axis=1)))
    return med if med > 0 else 1.0


def make_divergence_spec(kind, data, sigma=None, epsilon=None, seed=0):
    """Resolve defaults: epsilon 0.5 for count kinds, sigma by the median
    policy for sq-euclidean. Returns (spec, notes)."""
    if kind not in KINDS:
        raise ValueError(f"unknown divergence {kind!r}; choose from {KINDS}")
    notes = {}
    if epsilon is None:
        epsilon = DEFAULT_EPSILON if kind in COUNT_KINDS else 0.0
    notes["epsilon"] = epsilon
    if kind == "sq-euclidean":
        if sigma is None:
            sigma = default_sigma(data, seed)
            notes["sigma_policy"] = "median-random-pairs"
            if not np.isfinite(sigma):
                raise ValueError("the median policy's bandwidth overflows; give --sigma")
        notes["sigma"] = sigma
    spec = DivergenceSpec(
        kind, data.n_cols, sigma=sigma if sigma is not None else 1.0, epsilon=epsilon
    )
    return spec, notes


class _PartitionModeError(ValueError, argparse.ArgumentTypeError):
    """A malformed partition mode: a ValueError to callers of build_model,
    and to argparse an error whose message it prints after the option."""


def _partition_mode(text):
    """A partition mode, checked: `coarsest`, `finest` or `refine:<k>` with
    an integer k. Returns it as given."""
    if re.fullmatch(r"coarsest|finest|refine:[+-]?[0-9]+", text):
        return text
    raise _PartitionModeError(
        f"partition mode {text!r} is not coarsest, finest or refine:<k> with an integer k"
    )


def build_model(data, spec, partition_mode):
    """Tree, partition, optimized parameters; returns model + report + timings."""
    _partition_mode(partition_mode)  # a malformed mode fails before the tree
    timings = {}
    smoothed = smooth(data, spec.epsilon)
    t0 = time.perf_counter()
    tree = build_cluster_tree(smoothed, spec)
    timings["tree_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if partition_mode == "coarsest":
        part = coarsest_partition(tree)
    elif partition_mode == "finest":
        part = finest_partition(tree)
    else:
        rounds = int(partition_mode.split(":", 1)[1])
        part = auto_refine(coarsest_partition(tree), tree, rounds)
    timings["partition_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    params = optimize_q(tree, part, spec, smoothed)
    timings["optimize_seconds"] = time.perf_counter() - t0
    report = lower_bound(params, part, tree, spec, smoothed)
    model = TransitionModel(tree, part, params, spec)
    return model, report, smoothed, timings


def stratified_subset(ids, labels, fraction, rng):
    """Seeded stratified labeled subset, at least one id per class."""
    if not 0 < fraction < 1:
        raise ValueError("labeled fraction must be in (0, 1)")
    y = labels.classes(ids)
    chosen = []
    for cls in np.flatnonzero(np.bincount(y)):  # the classes present, ascending
        members = np.flatnonzero(y == cls)
        k = min(members.size, max(1, round(fraction * members.size)))
        pick = rng.choice(members.size, size=k, replace=False)
        chosen.extend(ids[m] for m in members[pick])
    if len(chosen) >= len(ids):
        raise ValueError("labeled subset covers all rows; nothing to predict")
    return set(chosen)


def one_hot_seed(ids, labels, labeled_ids):
    rows = np.flatnonzero(np.fromiter(map(labeled_ids.__contains__, ids), bool, len(ids)))
    y0 = np.zeros((len(ids), labels.n_classes))
    y0[rows, labels.classes([ids[k] for k in rows])] = 1.0
    return y0


def run_propagation(operator, ids, labels, labeled_ids, config):
    y0 = one_hot_seed(ids, labels, labeled_ids)
    scores, iterations_run = spread_labels(operator, y0, config)
    classes, unreached = classify_one_vs_all(scores)
    accuracy = evaluate_accuracy(classes, labels, ids, labeled_ids)
    return scores, classes, unreached, accuracy, iterations_run


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args):
    k = args.classes
    data, labels = _synthesize(args, args.rows, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_bow(data, out / "data.bow")
    write_labels(out / "labels.csv", data.ids, labels)
    counts = np.bincount(labels.classes(data.ids), minlength=k)
    print(f"wrote {out / 'data.bow'} and {out / 'labels.csv'}")
    print(f"N={data.n_rows} d={data.n_cols} K={k}")
    for cls in range(k):
        print(f"class {labels.names[cls]}: {counts[cls]} rows")
    return 0


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def cmd_approximate(args):
    t_load = time.perf_counter()
    data = load_bow(args.input, args.format)
    timings = {"load_seconds": time.perf_counter() - t_load}
    if args.exact and data.n_rows > args.max_exact_n:
        raise ValueError(
            f"--exact refused for N={data.n_rows} > --max-exact-n={args.max_exact_n}"
        )
    spec, notes = make_divergence_spec(
        args.divergence, data, sigma=args.sigma, epsilon=args.epsilon, seed=args.seed
    )
    model, report, smoothed, build_timings = build_model(data, spec, args.partition)
    timings.update(build_timings)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    extras = dict(notes)
    extras["input"] = str(args.input)
    extras["partition_mode"] = args.partition
    extras["counts_normalization"] = "raw"
    save_model(out, model, report, data.ids, extras=extras)
    build_report = {
        "n_points": data.n_rows,
        "dim": data.n_cols,
        "divergence": spec.kind,
        "epsilon": spec.epsilon,
        "sigma": spec.sigma if spec.kind == "sq-euclidean" else None,
        "partition": args.partition,
        "n_blocks": model.partition.n_blocks,
        "ell": report.ell,
        "constraint_residual": model.params.residual,
        "converged": model.params.converged,
        "optimizer_sweeps": model.params.sweeps,
        "timings": timings,
        "notes": extras,
    }
    if args.exact:
        exact = exact_loglik(smoothed, spec, cap=args.max_exact_n)
        build_report["exact_loglik"] = exact
        build_report["bound_gap"] = exact - report.ell
    report_path = args.report or str(out) + ".report.json"
    Path(report_path).write_text(json.dumps(build_report, indent=2, sort_keys=True))
    print(f"model written to {out}")
    print(
        f"N={data.n_rows} blocks={model.partition.n_blocks} ell={report.ell:.6f} "
        f"residual={model.params.residual:.3e}"
    )
    if args.exact:
        print(f"exact={build_report['exact_loglik']:.6f} gap={build_report['bound_gap']:.6e}")
    if not model.params.converged:
        print("warning: optimizer did not reach the target residual", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------


def cmd_propagate(args):
    model, report, meta = load_model(args.model)
    ids = meta["ids"]
    if not meta["optimizer"]["converged"]:
        print(
            f"warning: {args.model} was fitted by an optimizer that did not reach "
            f"the target residual (residual {meta['optimizer']['residual']:.3e})",
            file=sys.stderr,
        )
    labels = load_labels(args.labels)
    rng = np.random.default_rng([args.seed, 0])
    labeled = stratified_subset(ids, labels, args.labeled_fraction, rng)
    config = PropagationConfig(alpha=args.alpha, iterations=args.iters)
    t0 = time.perf_counter()
    scores, classes, unreached, accuracy, iterations_run = run_propagation(
        model, ids, labels, labeled, config
    )
    prop_seconds = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("id,predicted_class,score\n")
        for k, rid in enumerate(ids):
            name = labels.names[classes[k]]
            fh.write(f"{rid},{name},{scores[k, classes[k]]:.12g}\n")
    metrics = {
        "accuracy": accuracy,
        "per_class_accuracy": per_class_accuracy(classes, labels, ids, labeled),
        "n_labeled": len(labeled),
        "n_unreached": int(unreached.sum()),
        "iterations_run": iterations_run,
        "converged": meta["optimizer"]["converged"],
        "constraint_residual": meta["optimizer"]["residual"],
        "config": {
            "alpha": config.alpha,
            "iterations": config.iterations,
            "labeled_fraction": args.labeled_fraction,
            "seed": args.seed,
            "model": str(args.model),
        },
        "timings": {"propagate_seconds": prop_seconds},
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True))
    print(f"accuracy over unlabeled rows: {accuracy:.4f}")
    print(f"predictions written to {out / 'predictions.csv'}")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _parse_methods(tokens):
    out = []
    for tok in tokens:
        if ":" not in tok:
            raise ValueError(f"method {tok!r} must look like bvdt:<kind> or exact:<kind>")
        family, kind = tok.split(":", 1)
        if family not in ("bvdt", "exact"):
            raise ValueError(f"unknown method family {family!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown divergence {kind!r} in method {tok!r}")
        out.append((family, kind))
    return out


def _method_operator(family, kind, data, args, seed):
    """Build the transition operator for one method; returns (operator,
    build_seconds)."""
    spec, _ = make_divergence_spec(
        kind, data, sigma=args.sigma, epsilon=args.epsilon, seed=seed
    )
    if family == "bvdt":
        model, _, _, timings = build_model(data, spec, args.partition)
        build_s = (
            timings["tree_seconds"]
            + timings["partition_seconds"]
            + timings["optimize_seconds"]
        )
        return model, build_s
    if data.n_rows > args.max_exact_n:
        raise ValueError(
            f"exact method refused for N={data.n_rows} > --max-exact-n={args.max_exact_n}"
        )
    t0 = time.perf_counter()
    base = dense_transition_matrix(smooth(data, spec.epsilon), spec, cap=args.max_exact_n)
    return base, time.perf_counter() - t0


def _health(op):
    """The optimizer's flag and residual of an operator, as a CSV tail and a
    printed tail. The exact operator has no optimizer: it reads 1 and 0."""
    params = getattr(op, "params", None)
    ok, res = (True, 0.0) if params is None else (params.converged, params.residual)
    return f"{int(ok)},{res:.6g}", f"converged={int(ok)} residual={res:.3g}"


def _load_experiment_data(args):
    if args.input:
        if not args.labels:
            raise ValueError("--labels is required with --input")
        data = load_bow(args.input, args.format)
        labels = load_labels(args.labels)
        labels.classes(data.ids)  # an id without a label fails before any fit
        return data, labels
    return _synthesize(args, args.rows, args.seed)


def _synthesize(args, rows, seed):
    lambdas = args.mean_length if args.mean_length else [80.0]
    if len(lambdas) == 1:
        lambdas = lambdas * args.classes
    if len(lambdas) != args.classes:
        raise ValueError("--mean-length must have 1 or --classes entries")
    alphas = block_topic_alphas(args.classes, args.dim, args.overlap)
    spec = SyntheticSpec(alphas, np.array(lambdas), rows, seed)
    return generate_synthetic(spec)


def cmd_experiment(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    methods = _parse_methods(args.methods)
    config = PropagationConfig(alpha=args.alpha, iterations=args.iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.scaling_rows:
        rows_list = sorted(args.scaling_rows)
        lines = [
            "method,n_rows,build_seconds,propagate_seconds,total_seconds,"
            "converged,residual"
        ]
        times = {m: [] for m in methods}
        for n in rows_list:
            data, labels = _synthesize(args, n, [args.seed, n])
            rng = np.random.default_rng([args.seed, n, 0])
            labeled = stratified_subset(data.ids, labels, args.labeled_fraction, rng)
            for family, kind in methods:
                op, build_s = _method_operator(family, kind, data, args, args.seed)
                t0 = time.perf_counter()
                *_, acc, its = run_propagation(op, data.ids, labels, labeled, config)
                prop_s = time.perf_counter() - t0
                total = build_s + prop_s
                times[(family, kind)].append(total)
                csv, shown = _health(op)
                lines.append(
                    f"{family}:{kind},{n},{build_s:.6f},{prop_s:.6f},{total:.6f},{csv}"
                )
                print(
                    f"{family}:{kind} N={n} build={build_s:.2f}s "
                    f"propagate={prop_s:.2f}s iterations={its} accuracy={acc:.4f} {shown}"
                )
        (out / "scaling.csv").write_text("\n".join(lines) + "\n")
        logn = np.log(np.asarray(rows_list, dtype=float))
        if len(set(rows_list)) < 2:
            print("no log-log slope fitted: a slope needs two distinct sizes")
        else:
            for (family, kind), ts in times.items():
                slope = float(np.polyfit(logn, np.log(np.maximum(ts, 1e-9)), 1)[0])
                print(f"{family}:{kind} log-log slope: {slope:.3f}")
        print(f"scaling table written to {out / 'scaling.csv'}")
        return 0

    data, labels = _load_experiment_data(args)
    fractions = sorted(args.fractions)
    fits = {m: _method_operator(*m, data, args, args.seed) for m in methods}
    lines = [
        "method,fraction,trials,mean_accuracy,ci95,mean_seconds,build_seconds,"
        "converged,residual"
    ]
    for fraction in fractions:
        for family, kind in methods:
            op, build_s = fits[(family, kind)]
            csv, shown = _health(op)
            accs, secs, its = [], [], []
            for trial in range(args.trials):
                rng = np.random.default_rng([args.seed, trial])
                labeled = stratified_subset(data.ids, labels, fraction, rng)
                t0 = time.perf_counter()
                *_, acc, it = run_propagation(op, data.ids, labels, labeled, config)
                secs.append(time.perf_counter() - t0)
                accs.append(acc)
                its.append(it)
            mean = float(np.mean(accs))
            sd = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            ci = 1.96 * sd / np.sqrt(len(accs))
            lines.append(
                f"{family}:{kind},{fraction:.10g},{args.trials},"
                f"{mean:.10g},{ci:.10g},{np.mean(secs):.6f},{build_s:.6f},{csv}"
            )
            print(
                f"{family}:{kind} fraction={fraction:g} accuracy={mean:.4f} +- {ci:.4f} "
                f"iterations={min(its)}-{max(its)} {shown}"
            )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"sweep table written to {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    """The top-level parser and its subcommand parsers by name. Each option
    is declared once, with its type and default, in one parent parser
    (common, corpus, fit, spread) or in the one subcommand that takes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags win")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--classes", type=int, default=3)
    corpus.add_argument("--dim", type=int, default=200)
    corpus.add_argument("--rows", type=int, default=1500)
    corpus.add_argument("--mean-length", type=_float_list)
    corpus.add_argument("--overlap", type=float, default=0.3)

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--input")
    fit.add_argument("--format", choices=("uci-bow", "dense-csv"), default="uci-bow")
    fit.add_argument("--sigma", type=float)
    fit.add_argument("--epsilon", type=float)
    fit.add_argument("--partition", type=_partition_mode, default="coarsest")
    fit.add_argument("--max-exact-n", type=int, default=DEFAULT_MAX_EXACT_N)

    spread = argparse.ArgumentParser(add_help=False)
    spread.add_argument("--labels")
    spread.add_argument("--labeled-fraction", type=float, default=0.05)
    spread.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    spread.add_argument(
        "--iters", type=int, default=DEFAULT_ITERS,
        help="update cap; spreading stops earlier at its bitwise fixed point "
        f"(default {DEFAULT_ITERS})",
    )

    parser = argparse.ArgumentParser(
        prog="blockwalk",
        description="Compressed transition-matrix approximation and label propagation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    subs.add_parser("synth", parents=[common, corpus], help="generate a synthetic corpus")

    p = subs.add_parser(
        "approximate", parents=[common, fit], help="fit the compressed transition model"
    )
    p.add_argument("--divergence", choices=KINDS)
    p.add_argument("--report")
    p.add_argument("--exact", action="store_true")

    p = subs.add_parser(
        "propagate", parents=[common, spread], help="spread labels from a seeded subset"
    )
    p.add_argument("--model")

    p = subs.add_parser(
        "experiment", parents=[common, corpus, fit, spread],
        help="accuracy and timing sweeps",
    )
    p.add_argument("--methods", type=_str_list)
    p.add_argument("--fractions", type=_float_list)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--scaling-rows", type=_int_list)
    return parser, subs.choices


# the words a config file's exact= takes, in any case
_ON, _OFF = ("1", "true", "yes"), ("0", "false", "no")


def _config_flags(path, command, subcommands):
    """A key=value config file as flags of `command`, to go before the
    command line's flags, which win. A key that only other subcommands take
    is skipped, so one file serves them all. Each flag is parsed alone
    first, so that a value its option rejects is named by its line."""
    sub = subcommands[command]
    sub.exit_on_error = False  # a rejected value raises ArgumentError
    # each subcommand's option names, from a parse of no arguments
    keys = {
        name: set(vars(p.parse_args([]))) - {"config"}
        for name, p in subcommands.items()
    }
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        sub.error(f"cannot read config file {path}: {exc}")
    flags = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, val = line.partition("=")
        name, val = name.strip(), val.strip()
        key = name.replace("-", "_")
        if not eq:
            sub.error(f"{path}:{ln}: expected key=value")
        if not any(key in known for known in keys.values()):
            sub.error(f"{path}:{ln}: unknown key {key!r}")
        if key not in keys[command]:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "exact":
            if val.lower() not in _ON + _OFF:
                words = "1, true, yes, 0, false or no"
                sub.error(f"{path}:{ln}: key {name!r}: expected {words}, got {val!r}")
            flags += [flag] if val.lower() in _ON else []
            continue
        flags.append(f"{flag}={val}")
        try:
            sub.parse_known_args(flags[-1:])
        except argparse.ArgumentError as exc:
            sub.error(f"{path}:{ln}: key {name!r}: {exc}")
    return flags


_REQUIRED = {
    "synth": ["out"],
    "approximate": ["input", "divergence", "out"],
    "propagate": ["model", "labels", "out"],
    "experiment": ["methods", "out"],
}


_COMMANDS = {
    "synth": cmd_synth,
    "approximate": cmd_approximate,
    "propagate": cmd_propagate,
    "experiment": cmd_experiment,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the config's flags go right after the subcommand's name, before
        # the command line's own
        at = argv.index(args.command) + 1
        flags = _config_flags(args.config, args.command, subcommands)
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    missing = [k for k in _REQUIRED[args.command] if getattr(args, k, None) is None]
    if missing:
        parser.error(f"{args.command}: missing required option --{missing[0].replace('_', '-')}")
    if args.command == "experiment" and not args.scaling_rows and args.fractions is None:
        parser.error("experiment: provide --fractions or --scaling-rows")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
