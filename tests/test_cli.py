import json
import math
from pathlib import Path

import numpy as np
import pytest

from polarkit import becpolar, cli, codec, construct
from polarkit.asymptotics import polar_threshold, q_function, q_inverse
from polarkit.cli import (
    EXIT_BAD_CONFIG,
    EXIT_BAD_KERNEL,
    EXIT_BUDGET,
    EXIT_OK,
    _COMMANDS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    cmd_kernel_analyze,
    load_config,
    main,
    parse_config,
    _resolve,
)
from polarkit.errors import DomainError
from polarkit.gf2kernel import BitMatrix, kernel_profile

from conftest import ARIKAN, L3, equivalent_kernel, kron_power, random_polarizing

SWEEP_COMMANDS = ["scaling-verify", "exponent-verify", "selection-compare", "codec-sim",
                  "map-bound"]


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestConfig:
    def test_roundtrip_default(self):
        cfg = ExperimentConfig()
        assert parse_config(cfg.to_text()) == cfg

    def test_roundtrip_custom(self):
        cfg = ExperimentConfig(kernel="100;110;101", eps=0.3125, n=(6, 9),
                               rate=(0.3, 1 / 3), t=(-2.0, 0.0, 2.0),
                               beta=(0.45,), seed=77, trials=123, paths=10,
                               budget=4096, out="table.csv")
        assert parse_config(cfg.to_text()) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\neps = 0.25\n  n = 4,8  \n")
        assert cfg.eps == 0.25 and cfg.n == (4, 8)

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config("volume = 11\n")
        with pytest.raises(ConfigError):
            parse_config("eps = loud\n")
        with pytest.raises(ConfigError):
            parse_config("just a line\n")
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("eps = 0.3\nn = 6\nseed = 9\n")
        args = build_parser().parse_args(
            ["polarize", "--config", str(path), "--eps", "0.4"])
        cfg = _resolve(args)
        assert cfg.eps == 0.4  # flag wins
        assert cfg.n == (6,) and cfg.seed == 9  # file fills the rest
        assert cfg.trials == ExperimentConfig().trials  # defaults elsewhere

    def test_resolve_validation(self):
        args = build_parser().parse_args(["polarize", "--eps", "1.5"])
        with pytest.raises(DomainError, match=r"^eps 1\.5 is not a number in \[0, 1\]$"):
            _resolve(args)
        args = build_parser().parse_args(["polarize", "--n", ""])
        with pytest.raises(ConfigError):
            _resolve(args)

    @pytest.mark.parametrize("key", ["rate", "t", "beta"])
    def test_resolve_rejects_empty_lists(self, key, tmp_path):
        args = build_parser().parse_args(["codec-sim", f"--{key}="])
        with pytest.raises(ConfigError, match=f"{key} must list"):
            _resolve(args)
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} =\n")
        args = build_parser().parse_args(["selection-compare", "--config", str(path)])
        with pytest.raises(ConfigError, match=f"{key} must list"):
            _resolve(args)


class TestExitCodes:
    def test_ok(self, capsys):
        rc, out, _ = run(["kernel-analyze"], capsys)
        assert rc == EXIT_OK and out.endswith("\n")

    def test_bad_kernel(self, capsys):
        rc, _, err = run(["kernel-analyze", "--kernel", "10;01"], capsys)
        assert rc == EXIT_BAD_KERNEL and "invalid kernel" in err

    def test_budget(self, capsys):
        rc, _, err = run(
            ["scaling-verify", "--n", "12", "--budget", "100"], capsys)
        assert rc == EXIT_BUDGET and "budget" in err

    def test_bad_config(self, capsys):
        rc, _, err = run(["polarize", "--eps", "2.0"], capsys)
        assert rc == EXIT_BAD_CONFIG and "bad config" in err
        rc, _, err = run(
            ["map-bound", "--eps", "0.5", "--rate", "0.6", "--n", "4"], capsys)
        assert rc == EXIT_BAD_CONFIG and "is not a number in (0, 0.5)" in err

    @pytest.mark.parametrize("bad", [["--trials", "0"], ["--paths", "0"], ["--budget", "-3"]],
                             ids=" ".join)
    def test_counts_must_be_positive(self, bad, capsys):
        rc, out, err = run(["polarize", "--n", "4", *bad], capsys)
        assert rc == EXIT_BAD_CONFIG and out == ""
        assert err == "polarkit: bad config: trials, paths and budget must be positive\n"

    def test_map_bound_defaults_sit_on_the_capacity(self, capsys):
        # the default eps 0.5 and rate 0.5 put the rate on I = 1 - eps, which
        # map-bound rejects: it needs --rate below I
        rc, out, err = run(["map-bound", "--n", "4"], capsys)
        assert rc == EXIT_BAD_CONFIG and out == ""
        assert err == "polarkit: bad config: rate 0.5 is not a number in (0, 0.5)\n"

    def test_huge_polarize_depth_is_rejected_at_once(self, capsys):
        # ell^n against the budget must not be evaluated as a giant integer
        argv = ["polarize", "--kernel", "100;110;101", "--n", "1000000000",
                "--paths", "10"]
        rc, out, err = run(argv, capsys)
        assert rc == EXIT_BAD_CONFIG and out == ""
        assert err == ("polarkit: bad config: requested depth would push "
                       "-log2 Z beyond the valid float range\n")

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("bad", [
        ["--kernel", "12;11"], ["--kernel", "10;1"], ["--kernel", ";"],
        ["--rate="], ["--t="], ["--beta="], ["--eps", "nan"]], ids=" ".join)
    def test_bad_input_sweep(self, command, bad, capsys):
        # malformed literals, empty lists and NaN reach every subcommand as
        # one error line and the bad-config code, never a traceback
        rc, out, err = run([command, "--n", "4", *bad], capsys)
        assert rc == EXIT_BAD_CONFIG and out == ""
        assert err.startswith("polarkit: bad config: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("edge", [["--n", "0"], ["--beta", "nan"]], ids=" ".join)
    def test_edge_value_sweep(self, command, edge, capsys):
        # edge values end in a documented exit code, never a traceback
        rc, out, err = run([command, "--trials", "20", "--paths", "20", *edge], capsys)
        assert rc in (EXIT_OK, EXIT_BAD_KERNEL, EXIT_BUDGET, EXIT_BAD_CONFIG)
        if rc != EXIT_OK:
            assert out == "" and err.startswith("polarkit: ") and err.count("\n") == 1
        if "nan" in edge:
            assert rc == EXIT_BAD_CONFIG
            assert err == "polarkit: bad config: beta nan is not a number in [-inf, inf]\n"
        elif command in ("kernel-analyze", "polarize", "exponent-verify"):
            # level-0 tables; kernel-analyze reads no depth
            assert rc == EXIT_OK and err == ""
        else:
            # every command that needs a code or a threshold, one message
            assert rc == EXIT_BAD_CONFIG and out == ""
            assert err == "polarkit: bad config: n must list positive depths\n"

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("flag", [
        *(f"--t={v}" for v in ("1e308", "-1e308", "inf", "-inf", "1e-320")),
        *(f"--beta={v}" for v in ("1e308", "-1e308", "inf", "300", "-300", "1e-320",
                                  "5e-324")),
        *(f"--rate={v}" for v in ("1e-320", "0", "1", "inf", "-inf")),
        *(f"--eps={v}" for v in ("1e-320", "5e-324", repr(1 - 2**-53)))])
    def test_extreme_value_sweep(self, command, flag, capsys):
        # values at and past the float range (a threshold ell^(beta n) that
        # overflows, a subnormal beta whose prefix-depth ratio is inf) end in
        # a documented exit code
        rc, out, err = run([command, "--n", "4", "--trials", "20", "--paths", "20", flag],
                           capsys)
        assert rc in (EXIT_OK, EXIT_BAD_KERNEL, EXIT_BUDGET, EXIT_BAD_CONFIG)
        if rc != EXIT_OK:
            assert out == "" and err.startswith("polarkit: ") and err.count("\n") == 1

    def test_threshold_past_float_range_admits_no_index(self, capsys):
        rc, out, _ = run(["exponent-verify", "--n", "4", "--beta", "300"], capsys)
        assert rc == EXIT_OK and out == "n,beta,fraction\n4,300,0\n"

    def test_usage_errors_exit_bad_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_BAD_CONFIG
        with pytest.raises(SystemExit) as exc:
            main(["polarize", "--frequency", "3"])
        assert exc.value.code == EXIT_BAD_CONFIG
        capsys.readouterr()

    def test_parser_reused_across_calls(self, capsys):
        # one parser per process: errors and successes repeat byte for byte
        assert build_parser() is build_parser()
        seen = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["polarize", "--frequency", "3"])
            assert exc.value.code == EXIT_BAD_CONFIG
            seen.append(capsys.readouterr())
            seen.append(run(["kernel-analyze", "--kernel", "100;110;101"], capsys))
        assert seen[0] == seen[2] and seen[1] == seen[3]
        assert seen[0].out == "" and "unrecognized arguments" in seen[0].err


class TestKernelAnalyze:
    def test_values_match_profile(self, capsys):
        rc, out, _ = run(["kernel-analyze", "--kernel", "100;110;101"], capsys)
        assert rc == EXIT_OK
        doc = json.loads(out)
        prof = kernel_profile(BitMatrix.from_literal("100;110;101"))
        assert doc["ell"] == 3
        assert doc["partial_distances"] == list(prof.partial_distances)
        assert doc["exponent"] == prof.exponent
        assert doc["c3_constant"] == prof.c3_constant
        assert doc["derived_h"] == prof.derived_h.to_literal()
        assert doc["comp_map_consistent"] is prof.comp_map_consistent

    def test_raw_command_function(self):
        text = cmd_kernel_analyze(ExperimentConfig())
        assert json.loads(text)["exponent"] == 0.5


class TestPolarize:
    def test_exact_branch_matches_library(self, capsys):
        rc, out, _ = run(["polarize", "--n", "6", "--eps", "0.5"], capsys)
        assert rc == EXIT_OK
        g = BitMatrix.from_literal(ARIKAN)
        assert out == becpolar.enumerate_level(g, 0.5, 6).to_csv()
        lines = out.splitlines()
        assert lines[0] == "lambda"
        vals = [float(v) for v in lines[1:]]
        assert vals == sorted(vals) and len(vals) == 64

    def test_sampled_branch_matches_library(self, capsys):
        rc, out, _ = run(
            ["polarize", "--n", "23", "--paths", "40", "--seed", "3"], capsys)
        assert rc == EXIT_OK
        g = BitMatrix.from_literal(ARIKAN)
        samples = becpolar.sample_paths(g, 0.5, 23, 40, 3)
        want = becpolar.level_from_samples(samples, g, 0.5, 23, 3)
        assert out == want.to_csv()


class TestScalingVerify:
    def test_row_semantics(self, capsys):
        rc, out, _ = run(
            ["scaling-verify", "--n", "8", "--t=-1.0,0.0,1.0"], capsys)
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,t,exact_F,predicted,abs_error"
        g = BitMatrix.from_literal(ARIKAN)
        prof = kernel_profile(g)
        cdf = becpolar.enumerate_level(g, 0.5, 8)
        fracs = []
        for row, tval in zip(lines[1:], (-1.0, 0.0, 1.0)):
            cells = row.split(",")
            thr = polar_threshold(8, tval, prof, side="good")
            want = float(cdf.cdf_at_neglog(thr.neglog2()))
            assert float(cells[2]) == want
            assert math.isclose(float(cells[3]), 0.5 * q_function(tval),
                                rel_tol=1e-15)
            assert math.isclose(float(cells[4]),
                                abs(want - 0.5 * q_function(tval)),
                                rel_tol=1e-12, abs_tol=1e-17)
            fracs.append(float(cells[2]))
        assert fracs[0] >= fracs[1] >= fracs[2]  # monotone in t


class TestExponentVerify:
    def test_beta_at_exponent_matches_t_zero(self, capsys):
        # lambda = ell^(E n) equals the t = 0 threshold, so the fractions agree
        rc, e_out, _ = run(
            ["exponent-verify", "--n", "8,10", "--beta", "0.5"], capsys)
        assert rc == EXIT_OK
        rc, s_out, _ = run(
            ["scaling-verify", "--n", "8,10", "--t", "0.0"], capsys)
        assert rc == EXIT_OK
        efr = [r.split(",")[2] for r in e_out.splitlines()[1:]]
        sfr = [r.split(",")[2] for r in s_out.splitlines()[1:]]
        assert efr == sfr

    def test_fractions_match_library(self, capsys):
        rc, out, _ = run(
            ["exponent-verify", "--n", "8", "--beta", "0.4,0.6"], capsys)
        assert rc == EXIT_OK
        g = BitMatrix.from_literal(ARIKAN)
        cdf = becpolar.enumerate_level(g, 0.5, 8)
        rows = out.splitlines()[1:]
        assert rows[0].split(",")[0] == "8"
        for row, beta in zip(rows, (0.4, 0.6)):
            want = float(cdf.cdf_at_neglog(2.0 ** (beta * 8)))
            assert float(row.split(",")[2]) == want


class TestSelectionCompare:
    def test_rows_match_library(self, capsys):
        rc, out, _ = run(
            ["selection-compare", "--n", "8", "--rate", "0.3,0.5",
             "--beta", "0.4", "--t", "0.0"], capsys)
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == ("n,rule,union_bound_loglog,dmin,map_lower_loglog,"
                            "overlap_with_rm")
        rules = [r.split(",")[1] for r in lines[1:]]
        assert rules == ["polar", "rm", "hybrid"]
        g = BitMatrix.from_literal(ARIKAN)
        cdf = becpolar.enumerate_level(g, 0.5, 8)
        rm_half = construct.rm_selection(g, 8, 0.5)
        pol = construct.polar_selection(cdf, 0.3)
        cells = lines[1].split(",")
        assert float(cells[5]) == construct.overlap_fraction(pol, rm_half)
        prof = kernel_profile(g)
        bounds = construct.selection_bounds(pol, cdf, prof, 0.5)
        assert int(cells[3]) == bounds.dmin_upper


class TestCodecSim:
    def test_rows_match_direct_simulation(self, arikan, capsys):
        rc, out, _ = run(
            ["codec-sim", "--n", "4", "--rate", "0.25,0.5",
             "--trials", "40", "--seed", "6"], capsys)
        assert rc == EXIT_OK
        lines = out.splitlines()
        g = BitMatrix.from_literal(ARIKAN)
        cdf = becpolar.enumerate_level(g, 0.5, 4)
        for row, rate in zip(lines[1:], (0.25, 0.5)):
            sel = construct.polar_selection(cdf, rate)
            code = codec.PolarCode.from_selection(arikan, sel)
            rep = codec.simulate(code, 0.5, 40, 6)
            head, want = rep.to_csv().strip().split("\n")
            assert lines[0] == head
            assert row == want


class TestMapBound:
    def test_reference_row(self, capsys):
        rc, out, _ = run(["map-bound", "--n", "16", "--rate", "0.25"], capsys)
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == ("n,rate,dmin_upper,map_lower_loglog,"
                            "sc_union_loglog,theorem3_rhs")
        assert lines[1] == ("16,0.25,256,9.0056245491938789,"
                            "7.1948516622812058,8")

    def test_loglog_and_rhs_relations(self, capsys):
        rc, out, _ = run(
            ["map-bound", "--n", "8", "--rate", "0.125,0.25"], capsys)
        assert rc == EXIT_OK
        dmins = []
        for row in out.splitlines()[1:]:
            cells = row.split(",")
            n, rate = int(cells[0]), float(cells[1])
            dmin, mll, rhs = int(cells[2]), float(cells[3]), float(cells[5])
            # map lower bound is Z^(2 dmin)/4 at Z = 1/2
            assert math.isclose(mll, math.log2(2.0 * dmin + 2.0),
                                rel_tol=1e-15)
            want_rhs = (n * 0.5
                        + math.sqrt(n * 0.25) * q_inverse(rate / 0.5))
            assert math.isclose(rhs, want_rhs, rel_tol=1e-13)
            dmins.append(dmin)
        assert dmins[0] >= dmins[1]  # higher rate cannot raise dmin


class TestEquivalentKernels:
    """Kernels related by column permutations and by adding a later row to
    an earlier one share every erasure count, so the channel-side commands
    print the same bytes.  Row additions change row weights, so the RM rule
    and dmin columns of selection-compare only survive column permutations."""

    @staticmethod
    def pairs(permute, add_rows):
        rng = np.random.default_rng(97)
        for ell in range(3, 7):
            m = random_polarizing(rng, ell).kernel
            yield m.to_literal(), equivalent_kernel(rng, m, permute, add_rows).to_literal()

    def outputs(self, argv, literal, capsys):
        rc, out, err = run([argv[0], "--kernel", literal, *argv[1:]], capsys)
        assert rc == EXIT_OK and err == ""
        return out

    @pytest.mark.parametrize("permute, add_rows", [(True, False), (False, True), (True, True)])
    def test_channel_commands(self, permute, add_rows, capsys):
        for lit, twin in self.pairs(permute, add_rows):
            assert lit != twin
            for argv in (["polarize", "--n", "3", "--eps", "0.3"],
                         ["exponent-verify", "--n", "2,3"]):
                assert self.outputs(argv, twin, capsys) == self.outputs(argv, lit, capsys)

    def test_selection_compare_under_column_permutations(self, capsys):
        argv = ["selection-compare", "--n", "3", "--eps", "0.4", "--rate", "0.3,0.6"]
        for lit, twin in self.pairs(True, False):
            assert self.outputs(argv, twin, capsys) == self.outputs(argv, lit, capsys)


R5 = random_polarizing(np.random.default_rng(5), 5).kernel.to_literal()


class PerDepthWalk:
    """The sweeps' reference: one enumerate_level per requested depth, each
    from the root, as the commands ran before one walk served them."""

    def __init__(self, g, eps, budget):
        self.g, self.eps, self.budget = g, eps, budget

    def cdf(self, n):
        return becpolar.enumerate_level(self.g, self.eps, n, budget=self.budget)

    def check(self, n):
        # a command checked a depth by enumerating its level
        self.cdf(n)


FIRST_ERRORS = [
    (["scaling-verify", "--n", "12,30"], EXIT_BUDGET,
     "budget exceeded: 2^30 exceeds the enumeration budget 4194304"),
    (["scaling-verify", "--n", "30,12"], EXIT_BUDGET,
     "budget exceeded: 2^30 exceeds the enumeration budget 4194304"),
    # the rate test at depth 4 comes before depth 30's budget check
    (["map-bound", "--eps", "0.5", "--rate", "0.6", "--n", "4,30"], EXIT_BAD_CONFIG,
     "bad config: rate 0.6 is not a number in (0, 0.5)"),
    # the default beta 0.4 is past E' = 0.25 of this kernel
    (["selection-compare", "--kernel", "1001;1111;1101;0101", "--n", "3,30"],
     EXIT_BAD_CONFIG, "bad config: beta 0.4 is not a number in (0, 0.25)"),
    (["selection-compare", "--kernel", "1001;1111;1101;0101", "--n", "30,3"],
     EXIT_BUDGET, "budget exceeded: 4^30 exceeds the enumeration budget 4194304"),
    # selection-compare: depth checks, then rates, then the prefix depth
    (["selection-compare", "--n", "30,4", "--beta", "-1"], EXIT_BUDGET,
     "budget exceeded: 2^30 exceeds the enumeration budget 4194304"),
    (["selection-compare", "--n", "4", "--beta", "-1", "--eps", "0"], EXIT_BAD_CONFIG,
     "bad config: erasure probability 0.0 is not a number in (0, 1)"),
    (["selection-compare", "--n", "4", "--beta", "-1", "--rate", "2"], EXIT_BAD_CONFIG,
     "bad config: rate 2.0 is not a number in (0, 1]"),
    (["selection-compare", "--n", "4,30", "--beta", "-1"], EXIT_BAD_CONFIG,
     "bad config: beta -1.0 is not a number in (0, inf)"),
    (["selection-compare", "--n", "6,12", "--budget", "100"], EXIT_BUDGET,
     "budget exceeded: 2^12 exceeds the enumeration budget 100"),
    (["codec-sim", "--n", "4,30", "--rate", "2", "--trials", "10"], EXIT_BAD_CONFIG,
     "bad config: rate 2.0 is not a number in (0, 1]"),
    (["exponent-verify", "--n", "2000", "--eps", "0"], EXIT_BAD_CONFIG,
     "bad config: requested depth would push -log2 Z beyond the valid float range"),
]


class TestSweeps:
    """Every sweep command takes its depths from one walk of the level tree:
    the bytes and the first error are those of one enumerate_level per
    depth, and an ascending sweep expands each level once."""

    DEPTHS = {ARIKAN: ("12,14", "14,12", "10,14,10"),
              L3: ("8,10", "10,8", "9,10,9"),
              R5: ("4,6", "6,4", "5,6,5")}
    # betas that put the hybrid prefix depth below most sweep depths
    BETA = {ARIKAN: "0.45", L3: "0.6", R5: "0.4"}

    @staticmethod
    def per_depth(monkeypatch):
        monkeypatch.setattr(cli, "_walk", lambda g, cfg: PerDepthWalk(g, cfg.eps, cfg.budget))

    @staticmethod
    def argv(command, literal, depths):
        extra = {
            "scaling-verify": ["--t=-1,0,1"],
            "exponent-verify": [],
            "selection-compare": ["--beta", TestSweeps.BETA[literal], "--rate", "0.3,0.5"],
            "codec-sim": ["--rate", "0.25", "--trials", "20", "--seed", "4"],
            "map-bound": ["--rate", "0.25,0.4"],
        }[command]
        return [command, "--kernel", literal, "--eps", "0.3", "--n", depths, *extra]

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    @pytest.mark.parametrize("literal, depths", [
        (lit, ns) for lit, lists in DEPTHS.items() for ns in lists])
    def test_matches_per_depth_reference(self, command, literal, depths, capsys,
                                         monkeypatch):
        argv = self.argv(command, literal, depths)
        got = run(argv, capsys)
        self.per_depth(monkeypatch)
        want = run(argv, capsys)
        assert got == want
        assert got[0] == EXIT_OK and got[2] == ""
        assert len(got[1].splitlines()) > len(depths.split(","))

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    @pytest.mark.parametrize("depths, levels", [("12,14", 14), ("14,12", 26), ("10,14,10", 24)])
    def test_levels_expanded(self, command, depths, levels, capsys, monkeypatch):
        # one enumerate_level per depth expands 26 levels for 12,14; the
        # walk expands 14, and restarts only for a depth behind it
        expanded = []
        expand = becpolar._expand
        monkeypatch.setattr(becpolar, "_expand",
                            lambda m, p, t: expanded.append(len(m)) or expand(m, p, t))
        extra = {"codec-sim": ["--rate", "0.25", "--trials", "5"],
                 "map-bound": ["--rate", "0.25"]}.get(command, [])
        rc, out, err = run([command, "--n", depths, *extra], capsys)
        assert rc == EXIT_OK and err == ""
        assert len(expanded) == levels

    @pytest.mark.parametrize("argv, depths", [
        (["codec-sim", "--n", "12,14", "--rate", "0.25,0.5", "--trials", "5"], 0),
        (["scaling-verify", "--n", "12,14", "--t=-1,0,0.5,1"], 2),
    ])
    def test_lambda_is_derived_on_first_read(self, argv, depths, capsys, monkeypatch):
        # codec-sim reads only the Z order, so no level derives lambda or
        # sorts it; scaling-verify sorts each depth once for all its t
        lams, sorts = [], []
        neglog, sort = becpolar._neglog_array, np.sort

        def counting_neglog(mode, payload):
            lams.append(neglog(mode, payload))
            return lams[-1]

        def counting_sort(a, *args, **kwargs):
            sorts.extend(i for i, lam in enumerate(lams) if a is lam)
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(becpolar, "_neglog_array", counting_neglog)
        monkeypatch.setattr(np, "sort", counting_sort)
        rc, out, err = run(argv, capsys)
        assert rc == EXIT_OK and err == ""
        assert len(lams) == depths
        assert sorts == list(range(depths))

    @pytest.mark.parametrize("argv, code, message", FIRST_ERRORS,
                             ids=[" ".join(argv) for argv, _, _ in FIRST_ERRORS])
    def test_first_error(self, argv, code, message, capsys, monkeypatch):
        assert run(argv, capsys) == (code, "", f"polarkit: {message}\n")
        self.per_depth(monkeypatch)
        assert run(argv, capsys) == (code, "", f"polarkit: {message}\n")


class TestOutputFile:
    def test_out_flag_writes_identical_bytes(self, tmp_path, capsys):
        rc, out, _ = run(["kernel-analyze"], capsys)
        assert rc == EXIT_OK
        path = tmp_path / "profile.json"
        rc2, stdout2, _ = run(["kernel-analyze", "--out", str(path)], capsys)
        assert rc2 == EXIT_OK and stdout2 == ""
        assert path.read_bytes().decode() == out

    def test_runs_are_byte_identical(self, capsys):
        argv = ["codec-sim", "--n", "4", "--rate", "0.5", "--trials", "30"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second


class TestGoldenBytes:
    """Exact stdout for the 16x16 kernel 10;11 (x)4, recorded before the
    subset tables moved to numpy, for a sampled level beyond the budget,
    recorded when path sampling moved to arrays (Arikan n = 24), before it
    moved to grouped slices (L3 n = 30) and before it shared an exact prefix
    tree (G8 n = 10), and for every table command on Arikan and L3, recorded
    before the tables moved to one CSV writer.  The ell = 5 selection-compare table, whose kernel row weights
    are not all powers of two, was recorded once RM ranked exact integer
    weights.  The profile of a random ell = 16 kernel and codec-sim over a
    random ell = 10 kernel, which runs MAP on every trial since BP stops at
    BP_MAX_ELL, were recorded before the subset tables moved to packed
    lattice passes."""

    golden = Path(__file__).parent / "golden"

    @pytest.mark.parametrize("name, argv", [
        ("scaling_verify_arikan.csv",
         ["scaling-verify", "--n", "8,10,12", "--t=-1,0,0.5,1,2,3"]),
        ("scaling_verify_l3.csv",
         ["scaling-verify", "--kernel", L3, "--eps", "0.3", "--n", "6,8",
          "--t=-2,0,1.5,4"]),
        ("exponent_verify_arikan.csv", ["exponent-verify", "--n", "10,12"]),
        ("exponent_verify_l3.csv",
         ["exponent-verify", "--kernel", L3, "--n", "6,8"]),
        ("selection_compare_arikan.csv", ["selection-compare", "--n", "10,12"]),
        ("selection_compare_l3.csv",
         ["selection-compare", "--kernel", L3, "--n", "6"]),
        ("codec_sim_arikan.csv",
         ["codec-sim", "--n", "8", "--rate", "0.25,0.5", "--trials", "300",
          "--seed", "3"]),
        ("codec_sim_l3.csv",
         ["codec-sim", "--kernel", L3, "--n", "4", "--rate", "0.3",
          "--trials", "300", "--seed", "3"]),
        ("map_bound_arikan.csv",
         ["map-bound", "--n", "8,10", "--rate", "0.1,0.25,0.4"]),
        ("map_bound_l3.csv",
         ["map-bound", "--kernel", L3, "--n", "5", "--rate", "0.3"]),
        ("kernel_analyze_l3.json", ["kernel-analyze", "--kernel", L3]),
        ("selection_compare_ell5.csv",
         ["selection-compare", "--kernel", "10000;11000;10100;11110;11111",
          "--eps", "0.2", "--n", "5,6", "--rate", "0.25"]),
    ])
    def test_table_commands(self, name, argv, capsys):
        rc, out, err = run(argv, capsys)
        assert rc == EXIT_OK and err == ""
        assert out == (self.golden / name).read_text()

    g16 = kron_power(4).to_literal()

    def test_kernel_analyze_g16(self, capsys):
        rc, out, _ = run(["kernel-analyze", "--kernel", self.g16], capsys)
        assert rc == EXIT_OK
        assert out == (self.golden / "kernel_analyze_g16.json").read_text()

    rand16 = (
        "1111111101111001;0101010000111000;0110011010110111;1110010011100010;"
        "1111001111101010;0001111110001111;0111101101100001;1000010101000011;"
        "1111011101011100;1100010101100110;0000001000000101;0000100100001011;"
        "0101011100011100;1001101010111000;0101000010100100;0000000111101001"
    )
    rand10 = (
        "1101111101;1011011111;0110101001;1001111101;1011100001;"
        "1101100111;1011010010;0001000011;0010111010;1000000101"
    )

    def test_kernel_analyze_random16(self, capsys):
        rc, out, _ = run(["kernel-analyze", "--kernel", self.rand16], capsys)
        assert rc == EXIT_OK
        assert out == (self.golden / "kernel_analyze_rand16.json").read_text()

    def test_codec_sim_random10(self, capsys):
        assert codec.BP_MAX_ELL < 10
        argv = ["codec-sim", "--kernel", self.rand10, "--n", "2", "--rate", "0.3,0.5",
                "--eps", "0.4", "--trials", "300", "--seed", "5"]
        rc, out, err = run(argv, capsys)
        assert rc == EXIT_OK and err == ""
        assert out == (self.golden / "codec_sim_rand10.csv").read_text()

    def test_polarize_g16_n2(self, capsys):
        argv = ["polarize", "--kernel", self.g16, "--n", "2", "--eps", "0.5"]
        rc, out, _ = run(argv, capsys)
        assert rc == EXIT_OK
        assert out == (self.golden / "polarize_g16_n2_eps0.5.csv").read_text()

    def test_polarize_sampled_arikan_n24(self, capsys):
        argv = ["polarize", "--n", "24", "--paths", "2000", "--seed", "11",
                "--budget", "4096"]
        rc, out, _ = run(argv, capsys)
        assert rc == EXIT_OK
        assert out == (self.golden / "polarize_sampled_n24_paths2000_seed11.csv").read_text()

    def test_polarize_sampled_l3_n30(self, capsys):
        # deep enough that the sampled paths cross every mode band
        argv = ["polarize", "--kernel", L3, "--n", "30", "--paths", "2000",
                "--seed", "43"]
        rc, out, _ = run(argv, capsys)
        assert rc == EXIT_OK
        assert out == (self.golden / "polarize_sampled_l3_n30_paths2000_seed43.csv").read_text()

    def test_polarize_sampled_g8_n10(self, capsys):
        # 3000 paths share the 8^3-entry exact prefix tree of the sampler
        argv = ["polarize", "--kernel", kron_power(3).to_literal(), "--n", "10",
                "--paths", "3000", "--seed", "5", "--budget", "1000"]
        rc, out, _ = run(argv, capsys)
        assert rc == EXIT_OK
        assert out == (self.golden / "polarize_sampled_g8_n10_paths3000_seed5.csv").read_text()
