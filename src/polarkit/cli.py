"""Experiment driver: subcommands over the library with reproducible output.

Configuration is a flat key=value file (one experiment per file); command
line flags override file values.  Every run is a pure function of the
resolved config, so reruns produce byte-identical output.  Exit codes:
0 success, 2 invalid kernel, 3 budget exceeded, 4 bad config or usage.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field, fields, replace

from . import becpolar, codec, construct
from .asymptotics import (DoubleExponent, loglog_exponent, polar_threshold,
                          q_function, q_inverse)
from .becpolar import DEFAULT_BUDGET
from .errors import (
    BudgetExceeded,
    DimensionTooLarge,
    DomainError,
    NotPolarizing,
    PolarkitError,
    SingularMatrix,
    real,
)
from .gf2kernel import BitMatrix, kernel_profile, profile_to_json
from .serialize import csv_text, fmt_cell

EXIT_OK = 0
EXIT_BAD_KERNEL = 2
EXIT_BUDGET = 3
EXIT_BAD_CONFIG = 4

DEFAULT_PATHS = 100000


class ConfigError(Exception):
    pass


def _flag(default, help_text):
    """A config field whose command-line flag carries ``help_text``."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; round-trips through key=value text."""

    kernel: str = _flag("10;11", "kernel literal, rows ';'-joined")
    eps: float = _flag(0.5, "erasure probability")
    n: tuple = _flag((10,), "depth or comma sweep, e.g. 12,16,20")
    rate: tuple = _flag((0.5,), "rate or comma list")
    t: tuple = _flag((0.0,), "deviation t or comma grid")
    beta: tuple = _flag((0.4, 0.6), "exponent beta or comma grid")
    seed: int = 1
    trials: int = 10000
    paths: int = DEFAULT_PATHS
    budget: int = DEFAULT_BUDGET
    out: str = _flag("", "output path (stdout when omitted)")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            s = ",".join(map(fmt_cell, v)) if isinstance(v, tuple) else fmt_cell(v)
            lines.append(f"{f.name} = {s}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    """A config value typed like the field's default; tuples split on ','."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    default = _FIELDS[key].default
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            cast = type(default[0])
            return tuple(cast(p) for p in raw.split(",") if p.strip())
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        cfg = replace(cfg, **{key: _parse_value(key, raw)})
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _resolve(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = replace(cfg, **{
        key: _parse_value(key, v) if isinstance(v, str) else v
        for key, v in vars(args).items() if key in _FIELDS and v is not None})
    if not cfg.n or any(d < 0 for d in cfg.n):
        raise ConfigError("n must list nonnegative depths")
    for key in ("rate", "t", "beta"):
        if not getattr(cfg, key):
            raise ConfigError(f"{key} must list at least one value")
        for v in getattr(cfg, key):
            real(v, key)
    real(cfg.eps, "eps", 0.0, 1.0)
    if cfg.trials < 1 or cfg.paths < 1 or cfg.budget < 1:
        raise ConfigError("trials, paths and budget must be positive")
    return cfg


def _kernel(cfg: ExperimentConfig) -> BitMatrix:
    try:
        return BitMatrix.from_literal(cfg.kernel)
    except (DomainError, DimensionTooLarge, ValueError) as exc:
        raise ConfigError(f"bad kernel literal: {exc}") from exc


def _check_positive_depths(cfg: ExperimentConfig) -> None:
    """The first check of every command that builds a code or a threshold
    at each depth, which depth 0 does not have."""
    if 0 in cfg.n:
        raise ConfigError("n must list positive depths")


def _walk(g, cfg: ExperimentConfig) -> becpolar.LevelWalk:
    """The one walk of the exact level tree that serves a command's depths."""
    return becpolar.LevelWalk(g, cfg.eps, cfg.budget)


def cmd_kernel_analyze(cfg: ExperimentConfig) -> str:
    return profile_to_json(kernel_profile(_kernel(cfg))) + "\n"


def cmd_polarize(cfg: ExperimentConfig) -> str:
    """Level CDF at depth n[0]: exact within budget, sampled beyond it."""
    g = _kernel(cfg)
    depth = cfg.n[0]
    try:
        cdf = becpolar.enumerate_level(g, cfg.eps, depth, budget=cfg.budget)
    except BudgetExceeded:
        samples = becpolar.sample_paths(g, cfg.eps, depth, cfg.paths, cfg.seed)
        cdf = becpolar.level_from_samples(samples, g, cfg.eps, depth, cfg.seed)
    return cdf.to_csv()


def cmd_scaling_verify(cfg: ExperimentConfig) -> str:
    _check_positive_depths(cfg)
    g = _kernel(cfg)
    prof = kernel_profile(g)
    channel_i = 1.0 - cfg.eps
    walk = _walk(g, cfg)
    rows = []
    for depth in cfg.n:
        cdf = walk.cdf(depth)
        for tval in cfg.t:
            thr = polar_threshold(depth, tval, prof, side="good")
            exact = float(cdf.cdf_at_neglog(thr.neglog2()))
            pred = channel_i * q_function(tval)
            rows.append((depth, tval, exact, pred, abs(exact - pred)))
    return csv_text("n,t,exact_F,predicted,abs_error", rows)


def cmd_exponent_verify(cfg: ExperimentConfig) -> str:
    g = _kernel(cfg)
    walk = _walk(g, cfg)
    rows = []
    for depth in cfg.n:
        cdf = walk.cdf(depth)
        for beta in cfg.beta:
            lam = DoubleExponent(beta * depth, g.ell).neglog2()
            rows.append((depth, beta, float(cdf.cdf_at_neglog(lam))))
    return csv_text("n,beta,fraction", rows)


def cmd_selection_compare(cfg: ExperimentConfig) -> str:
    """polar / rm / hybrid selections at rate[0], overlap against RM rate[-1].

    The hybrid rule takes beta = beta[0] and requires it inside (0, E'),
    E' = E * log2(ell).  The default beta 0.4 lies outside for every kernel
    with E' <= 0.4 (E' = 0.25 for 1001;1111;1101;0101), so there the default
    config exits 4: pass a lower --beta.
    """
    _check_positive_depths(cfg)
    g = _kernel(cfg)
    prof = kernel_profile(g)
    r = cfg.rate[0]
    r_rm = cfg.rate[-1]
    beta = cfg.beta[0]
    tval = cfg.t[0]
    walk = _walk(g, cfg)
    rows = []
    for depth in cfg.n:
        # the depth's checks and then the rate tests raise first, as when
        # the depth's level was built first; the walk then stops at the
        # prefix depth m <= depth on its way to the depth
        walk.check(depth)
        rm = construct.rm_selection(g, depth, r_rm)
        rm_r = construct.rm_selection(g, depth, r)
        m = construct.default_prefix_depth(depth, beta, prof)
        prefix = walk.cdf(m)
        cdf = walk.cdf(depth) if m < depth else prefix
        selections = [
            ("polar", construct.polar_selection(cdf, r)),
            ("rm", rm_r),
            ("hybrid", construct.hybrid_selection(
                prefix, g, depth, r, beta, tval, pad_cdf=cdf)),
        ]
        for rule, sel in selections:
            bounds = construct.selection_bounds(sel, cdf, prof, cfg.eps)
            rows.append((
                depth,
                rule,
                loglog_exponent(bounds.union_bound, g.ell),
                bounds.dmin_upper,
                loglog_exponent(bounds.map_lower, g.ell),
                construct.overlap_fraction(sel, rm),
            ))
    return csv_text(
        "n,rule,union_bound_loglog,dmin,map_lower_loglog,overlap_with_rm", rows)


def cmd_codec_sim(cfg: ExperimentConfig) -> str:
    _check_positive_depths(cfg)
    g = _kernel(cfg)
    prof = kernel_profile(g)
    walk = _walk(g, cfg)
    rows = []
    for depth in cfg.n:
        cdf = walk.cdf(depth)
        for r in cfg.rate:
            sel = construct.polar_selection(cdf, r)
            code = codec.PolarCode.from_selection(prof, sel)
            rep = codec.simulate(code, cfg.eps, cfg.trials, cfg.seed)
            rows.append(rep.csv_row())
    return csv_text(codec.SimulationReport.CSV_HEADER, rows)


def cmd_map_bound(cfg: ExperimentConfig) -> str:
    """Weight-side bound table: log-log of the MAP lower bound vs its limit.

    theorem3_rhs = n*E_w + sqrt(n*V_w) * Qinv(rate / I); requires every
    --rate below I = 1 - eps.  The defaults (eps 0.5, rate 0.5) sit on that
    boundary, so the default config exits 4: pass a lower --rate or --eps.
    """
    _check_positive_depths(cfg)
    g = _kernel(cfg)
    prof = kernel_profile(g)
    channel_i = 1.0 - cfg.eps
    walk = _walk(g, cfg)
    rows = []
    for depth in cfg.n:
        cdf = walk.cdf(depth)
        for r in cfg.rate:
            real(r, "rate", 0.0, channel_i, "()")
            sel = construct.polar_selection(cdf, r)
            bounds = construct.selection_bounds(sel, cdf, prof, cfg.eps)
            rhs = depth * prof.weight_exponent + math.sqrt(
                depth * prof.weight_second_exponent
            ) * q_inverse(r / channel_i)
            rows.append((
                depth,
                r,
                bounds.dmin_upper,
                loglog_exponent(bounds.map_lower, g.ell),
                loglog_exponent(bounds.union_bound, g.ell),
                rhs,
            ))
    return csv_text(
        "n,rate,dmin_upper,map_lower_loglog,sc_union_loglog,theorem3_rhs", rows)


_COMMANDS = {
    "kernel-analyze": cmd_kernel_analyze,
    "polarize": cmd_polarize,
    "scaling-verify": cmd_scaling_verify,
    "exponent-verify": cmd_exponent_verify,
    "selection-compare": cmd_selection_compare,
    "codec-sim": cmd_codec_sim,
    "map-bound": cmd_map_bound,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the bad-config code on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    top = _Parser(prog="polarkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value experiment file")
        for f in _FIELDS.values():
            p.add_argument(f"--{f.name}", help=f.metadata.get("help"),
                           type=int if type(f.default) is int else None)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        text = _COMMANDS[args.command](cfg)
    except (NotPolarizing, SingularMatrix) as exc:
        print(f"polarkit: invalid kernel: {exc}", file=sys.stderr)
        return EXIT_BAD_KERNEL
    except (BudgetExceeded, DimensionTooLarge) as exc:
        print(f"polarkit: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, PolarkitError) as exc:
        print(f"polarkit: bad config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
