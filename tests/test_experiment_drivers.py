"""Smoke tests for every figure driver, at miniature scale.

These keep the drivers covered by the fast suite so a broken driver is
caught before the (slow) benchmark run.  Each test only checks structure
and basic sanity, not the paper shapes — those are the benches' job.
"""

import pytest

from repro.experiments import (
    ablation_adaptive,
    ablation_params,
    ext_stlb_prefetch,
    fig01_itlb_cost,
    fig02_stlb_impki,
    fig03_probabilistic,
    fig04_mpki_breakdown,
    fig08_main_comparison,
    fig09_mpki_latency,
    fig10_stlb_breakdown,
    fig11_llc_sensitivity,
    fig12_itlb_sensitivity,
    fig13_large_pages,
    fig14_split_stlb,
)
from repro.experiments.reporting import FigureResult, format_figure

TINY = dict(warmup=3000, measure=12000)


def check(result):
    assert isinstance(result, FigureResult)
    assert result.rows, f"{result.figure} produced no rows"
    text = format_figure(result)
    assert result.figure in text
    return result


class TestMotivationDrivers:
    def test_fig01(self):
        result = fig01_itlb_cost.run(
            itlb_sizes=((8, 32), (32, 128)), server_count=1, spec_count=1, **TINY
        )
        check(result)
        assert len(result.rows) == 4

    def test_fig02(self):
        result = fig02_stlb_impki.run(server_count=1, spec_count=1, **TINY)
        check(result)
        assert {r[0] for r in result.rows} == {"server", "spec"}

    def test_fig03(self):
        result = fig03_probabilistic.run(p_values=(0.8,), server_count=1, **TINY)
        check(result)
        assert any(r[1] == "GEOMEAN" for r in result.rows)

    def test_fig04(self):
        result = fig04_mpki_breakdown.run(server_count=1, **TINY)
        check(result)
        assert len(result.rows) == 4  # 2 levels x 2 policies


class TestEvaluationDrivers:
    def test_fig08(self):
        single, smt = fig08_main_comparison.run(server_count=1, per_category=1, **TINY)
        check(single)
        check(smt)
        assert len(single.rows) == 10  # the full Table 2 matrix

    def test_fig09(self):
        single, smt = fig09_mpki_latency.run(
            techniques=("lru", "itp+xptp"), server_count=1, per_category=1, **TINY
        )
        check(single)
        check(smt)

    def test_fig10(self):
        result = fig10_stlb_breakdown.run(server_count=1, per_category=1, **TINY)
        check(result)
        assert len(result.rows) == 4

    def test_fig11(self):
        result = fig11_llc_sensitivity.run(
            server_count=1, per_category=1, llc_policies=("lru",), **TINY
        )
        check(result)

    def test_fig12(self):
        result = fig12_itlb_sensitivity.run(
            itlb_sizes=((16, 64),), server_count=1, per_category=1, **TINY
        )
        check(result)

    def test_fig13(self):
        result = fig13_large_pages.run(
            percents=(0, 100), server_count=1, per_category=1, **TINY
        )
        check(result)

    def test_fig14(self):
        result = fig14_split_stlb.run(server_count=1, **TINY)
        check(result)
        assert len(result.rows) == 5


class TestAblationDrivers:
    def test_ablation_nm(self):
        result = ablation_params.run_nm(nm_values=((2, 4),), server_count=1, **TINY)
        check(result)

    def test_ablation_k(self):
        result = ablation_params.run_k(k_values=(8,), server_count=1, **TINY)
        check(result)

    def test_ablation_adaptive(self):
        result = ablation_adaptive.run(
            t1_values=(1,), warmup=3000, measure=20000, phase_records=1000
        )
        check(result)
        assert any("always-on" in str(r[0]) for r in result.rows)

    def test_ext_stlb_prefetch(self):
        result = ext_stlb_prefetch.run(server_count=1, **TINY)
        check(result)


class TestCLI:
    def test_main_runs_one_figure(self, capsys, monkeypatch):
        from repro.experiments import __main__ as cli

        monkeypatch.setitem(cli.RUNNERS, "fig02", lambda: fig02_stlb_impki.run(
            server_count=1, spec_count=1, **TINY
        ))
        assert cli.main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_main_rejects_unknown(self, capsys):
        from repro.experiments import __main__ as cli

        assert cli.main(["fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage(self, capsys, flag):
        from repro.experiments import __main__ as cli

        assert cli.main([flag]) == 0
        out = capsys.readouterr().out
        assert "python -m repro.experiments" in out
        assert "--cache-dir" in out

    def test_uncreatable_cache_dir_is_a_usage_error(self, capsys, tmp_path):
        from repro.experiments import __main__ as cli

        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["--cache-dir", str(blocker / "sub"), "fig02"]) == 2
        assert str(blocker / "sub") in capsys.readouterr().err


class TestSMTCategoryBreakdown:
    def test_rows_per_category(self):
        result = fig08_main_comparison.smt_category_breakdown(
            techniques=("lru", "itp+xptp"), per_category=1, **TINY
        )
        check(result)
        categories = {row[0] for row in result.rows}
        assert categories == {"intense", "medium", "relaxed"}
