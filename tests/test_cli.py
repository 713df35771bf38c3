"""Tests for the command-line interface (repro.cli)."""

from collections import Counter

import pytest

from repro.aqp.sources import CoverDraw
from repro.cli import FIGURES, build_parser, main, union_sample
from repro.joins.executor import join_result_set
from repro.tpch.workloads import build_workload


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sample_defaults(self):
        args = build_parser().parse_args(["sample"])
        assert args.workload == "UQ1"
        assert args.sampler == "cover"
        # The paper samplers' flags resolve their defaults only when given
        # to one, so a flag passed to the other side is an error.
        assert args.warmup is None and args.weights is None and args.workers is None

    def test_figure_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_all_documented_figures_registered(self):
        expected = {
            "fig4a", "fig4b", "fig4c", "fig4d",
            "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig5g", "fig5h",
            "fig6a", "fig6b", "ablation-bernoulli", "ablation-template",
        }
        assert expected == set(FIGURES)


class TestCommands:
    common = ["--scale-factor", "0.0005", "--seed", "3"]

    def test_sample_set_union(self, capsys):
        code = main(
            ["sample", "--workload", "UQ2", "--samples", "30",
             "--sampler", "set-union", "--warmup", "histogram", *self.common]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "samples drawn      : 30" in out
        assert "per-join samples" in out

    def test_sample_online(self, capsys):
        code = main(["sample", "--workload", "UQ2", "--samples", "20",
                     "--sampler", "online", *self.common])
        assert code == 0
        assert "samples drawn      : 20" in capsys.readouterr().out

    @pytest.mark.parametrize("sampler", ["bernoulli", "disjoint"])
    def test_sample_other_algorithms(self, capsys, sampler):
        code = main(["sample", "--workload", "UQ2", "--samples", "15",
                     "--sampler", sampler, "--warmup", "exact", *self.common])
        assert code == 0
        assert "samples drawn      : 15" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_sample_prints_the_union_sample(self, capsys, workers):
        """``repro sample`` with no --sampler is the cover draw of
        :func:`union_sample` at every worker count."""
        assert main(["sample", "--workload", "UQ2", "--samples", "30",
                     "--workers", str(workers), *self.common]) == 0
        out = capsys.readouterr().out.splitlines()
        queries = build_workload("UQ2", 0.0005, 0.3, 3).queries
        union = CoverDraw.concat(union_sample(queries, 30, 3, workers).parts)
        names = dict(Counter(queries[owner].name for owner in union.owners.tolist()))
        assert out[0] == f"workload=UQ2 sampler=cover workers={workers}"
        assert out[2] == f"per-join samples   : {names}"
        assert out[3] == f"attempts           : {union.attempts} (accepted 30)"
        assert out[5:] == [f"  {value}" for value in union.rows()[:5]]

    def test_default_sample_draws_from_every_owning_join(self, capsys):
        """Every join that owns part of the union (values no earlier join
        produces) shows up in 2 000 default samples of UQ2 at SF 0.005; the
        histogram warm-up of the record-rule sampler gave all but the first
        join a share of 0."""
        assert main(["sample", "--workload", "UQ2", "--samples", "2000",
                     "--scale-factor", "0.005"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("per-join samples"))
        seen, owning = set(), set()
        for query in build_workload("UQ2", 0.005, 0.3, 2023).queries:
            result = join_result_set(query)
            if result - seen:
                owning.add(query.name)
            seen |= result
        assert len(owning) == 3
        assert {name for name in owning if f"'{name}'" in line} == owning

    def test_estimate(self, capsys):
        code = main(["estimate", "--workload", "UQ2", "--walks", "150", *self.common])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact" in out and "histogram+EO" in out and "random-walk" in out

    def test_figure(self, capsys):
        code = main(["figure", "fig5a", "--scale-factor", "0.0005",
                     "--walks", "100", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig5a" in out
        assert "random_walk_error" in out
